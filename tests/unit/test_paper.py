"""The paper module's tables and claim table, checked without simulating.

``benchmarks/paper.py`` runs only under ``__main__``, so importing it
simulates nothing. Tables I and II need no simulation either, so they
are rendered here and compared byte for byte with the committed files.
"""

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).parents[2] / "benchmarks"
TABLES = ("table1_nomenclature", "table2_background_load")


@pytest.fixture(scope="module")
def paper():
    spec = importlib.util.spec_from_file_location("paper", BENCHMARKS / "paper.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", TABLES)
def test_table_matches_committed_file(paper, name):
    text = paper.document(name, paper.FIGURES[name](paper.Inputs()))
    assert text == (BENCHMARKS / "results" / f"{name}.txt").read_text()


#: Each ablation's machine: the switching, sensing and protocol cells run
#: the small preset at 32 ranks, the desync cells the medium one at 128.
ABLATION_MACHINES = {
    "ablation_switching": "preset=small ranks=32",
    "ablation_adaptive_sensing": "preset=small ranks=32",
    "ablation_protocol": "preset=small ranks=32",
    "ablation_desync": "preset=medium ranks=128",
}


@pytest.mark.parametrize("name", ABLATION_MACHINES)
def test_ablation_header_names_its_machine(paper, name):
    header = paper.document(name, "").splitlines()[0]
    assert header == f"# {name} — {ABLATION_MACHINES[name]} seed=1"
    committed = (BENCHMARKS / "results" / f"{name}.txt").read_text()
    assert committed.splitlines()[0] == header


def test_table2_claims_hold(paper):
    inputs = paper.Inputs()
    verdicts = [
        paper.evaluate(claim, inputs)
        for claim in paper.CLAIMS
        if claim.figure == "table2_background_load"
    ]
    assert len(verdicts) == 6
    assert [v.claim.id for v in verdicts if not v.ok] == []


def test_claim_ids_are_unique_and_every_figure_is_checked(paper):
    ids = [claim.id for claim in paper.CLAIMS]
    assert len(ids) == len(set(ids))
    assert {claim.figure for claim in paper.CLAIMS} == set(paper.FIGURES)
    assert all(claim.op in paper.OPS for claim in paper.CLAIMS)
