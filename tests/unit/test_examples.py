"""Every example script imports cleanly against the current API.

Each script guards ``main()`` behind ``if __name__ == "__main__"``, so
importing it runs only its imports and module-level definitions: an
example that still imports a deleted name fails here without running
its simulations.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parents[2] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
