"""CI's workflow and smoke scripts name only files that exist.

CI's test job does not install PyYAML, so ``ci.yml`` is read as text:
the ``smoke`` job's matrix is one ``smoke: [...]`` list plus one
``- smoke: <name>`` line per ``include`` entry.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CI = ROOT / ".github" / "workflows" / "ci.yml"
SMOKES = sorted((ROOT / ".github" / "smoke").glob("*.sh"))

#: A repository path under benchmarks/ or tests/, with an optional
#: pytest node id suffix (``file.py::Class::test``).
TREE_PATH = re.compile(r"(?<![\w./$-])((?:benchmarks|tests)/[\w./-]*\w)((?:::\w+)*)")
#: A JSON file named from the repository root; ``$out/…`` never matches.
JSON_PATH = re.compile(r"(?<![\w./$-])([\w./-]+\.json)\b")


def smoke_matrix() -> set[str]:
    """The names in the ``smoke`` job's matrix: its list plus ``include``."""
    job = CI.read_text().split("\n  smoke:\n", 1)[1]
    job = re.split(r"\n  [\w-]+:\n", job, maxsplit=1)[0]
    (listed,) = re.findall(r"^ +smoke: \[(.*)\]$", job, re.M)
    names = {name.strip() for name in listed.split(",")}
    return names | set(re.findall(r"^ +- smoke: (\S+)$", job, re.M))


def named_paths(text: str) -> set[tuple[str, tuple[str, ...]]]:
    """Each (path, node-id parts) the text names inside the repository."""
    found = {(m[1], tuple(m[2].split("::")[1:])) for m in TREE_PATH.finditer(text)}
    found |= {
        (m[1], ()) for m in JSON_PATH.finditer(text)
        if not m[1].startswith("smoke-out/")
    }
    return found


def defined_names(path: Path) -> set[str]:
    return {
        node.name for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def test_smoke_matrix_matches_scripts():
    assert smoke_matrix() == {path.stem for path in SMOKES}


@pytest.mark.parametrize("source", [CI, *SMOKES], ids=lambda p: p.name)
def test_named_paths_exist(source):
    for name, node in named_paths(source.read_text()):
        path = ROOT / name
        assert path.exists(), f"{source.name} names missing {name}"
        if node:
            missing = set(node) - defined_names(path)
            assert not missing, f"{source.name}: {name} defines no {missing}"
