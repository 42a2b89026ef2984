"""Tests of the benchmark suite itself, on shrunk workloads.

Not part of the tier-1 run (pyproject collects ``tests/`` only); run with
``PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py``.
"""

from __future__ import annotations

import contextlib
import copy
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def small(name: str) -> dict:
    return workloads.WORKLOADS[name].small


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_emitted_metric_names_match_benchmark_json(name):
    plain = run.measure_workload(name, 1, 0.01, 2, False, SPEC, params=small(name))
    assert plain["correct"], plain
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert plain["metrics"]["setup_s"]["n"] == 2  # one set-up-only worker
    assert plain["metrics"]["run_s"]["n"] == 1  # one run overshoots 0.01 s
    traced = run.measure_workload(name, 1, 0.01, 1, True, SPEC, params=small(name))
    assert traced["correct"], traced
    assert set(traced["layers"]) == {m["name"] for m in SPEC["per_layer"]}
    busy = traced["layers"]["exec.worker_busy_frac"]["value"]
    if name in ("grid-packet", "grid-flow", "stream"):  # serial: one worker
        assert 0.5 < busy <= 1.0
    line = json.loads(run.contract_line(traced, trace=True))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def _snapshot() -> dict:
    """Every callable the tracer may replace, by where it is looked up."""
    seen = {}
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro"):
            for key, value in vars(mod).items():
                if callable(value):
                    seen[(mod.__name__, key)] = value
    for module_name, attr, *_ in tracing.LAYERS:
        if "." in attr:
            cls_name, member = attr.split(".")
            cls = getattr(importlib.import_module(module_name), cls_name)
            seen[(module_name, attr)] = vars(cls)[member]
    return seen


@pytest.mark.parametrize("name", ["stream", "advisor"])
def test_traced_run_matches_untraced_and_restores_wrappers(name, tmp_path):
    before = _snapshot()
    plain = worker.measure(name, 3, 0.01, small(name), workdir=tmp_path)
    spans_file = tmp_path / "spans.jsonl"
    traced = worker.measure(
        name, 3, 0.01, small(name), trace=True, workdir=tmp_path, spans=spans_file
    )
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert plain["fingerprint"] and traced["fingerprint"] == plain["fingerprint"]
    assert traced["runs"][0]["digest"] == plain["runs"][0]["digest"]

    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    by_id = {s[0]: s for s in spans}
    assert len(by_id) == len(spans)
    slack = 1e-6  # pool workers' spans come from another process's clock read
    for _id, layer, start, end, parent, _run, _counters in spans:
        assert end >= start
        if parent is not None:
            outer = by_id[parent]
            assert outer[2] - slack <= start and end <= outer[3] + slack, layer
    assert min(tracing.self_times(spans).values()) >= -slack
    if name == "advisor":  # pooled cells ship their spans to the parent
        names = {s[1] for s in spans}
        assert {"exec.worker_task", "mpi.replay", "advisor.tier_packet"} <= names


def test_warm_pass_with_a_job_more_than_the_cold_pass_fails(tmp_path):
    wl = workloads.WORKLOADS["stream"]
    params = {**wl.params, **wl.small}
    state = wl.setup(1, params, lambda _name: contextlib.nullcontext(), tmp_path)
    assert wl.summarize(state, wl.run(state)).violations == 0
    cold, warm, cache, warm_s = wl.run(state)
    for result in warm:
        result.jobs.append(result.jobs[-1])
    assert wl.summarize(state, (cold, warm, cache, warm_s)).violations == len(warm)


def test_perturbed_reference_fails_the_check():
    name = "grid-packet"
    record = run.measure_workload(name, 2, 0.01, 1, False, SPEC, params=small(name))
    good = {"rel_tol": 1e-6, "fingerprints": {name: {"2": record["fingerprint"]}}}
    bad = copy.deepcopy(good)
    bad["fingerprints"][name]["2"][3][2] *= 1 + 1e-4  # one cell's median comm time
    assert run.mismatches(record["fingerprint"], bad["fingerprints"][name]["2"], 1e-6) == 1
    ok = run.measure_workload(
        name, 2, 0.01, 1, False, SPEC, params=small(name), reference=good
    )
    assert ok["correct"] and ok["failed"] == 0
    broken = run.measure_workload(
        name, 2, 0.01, 1, False, SPEC, params=small(name), reference=bad
    )
    assert not broken["correct"] and broken["failed"] == 1


def test_compare_pools_records_and_needs_several_samples(tmp_path):
    def write(path, values):
        metrics = {m["name"]: run.summary(values, m["unit"]) for m in SPEC["end_to_end"]}
        path.write_text(json.dumps({"workloads": {"w": {"metrics": metrics}}}))

    def verdicts(parent, change):
        rows = compare.compare(
            compare.pooled(str(tmp_path / parent)), compare.pooled(str(tmp_path / change)),
            SPEC,
        )
        return {row[1]: row[-1] for row in rows}

    write(tmp_path / "a1.json", [1.0])
    write(tmp_path / "b1.json", [2.0])
    assert set(verdicts("a1.json", "b1.json").values()) == {"unresolved"}
    write(tmp_path / "a2.json", [1.0, 1.01])
    write(tmp_path / "b2.json", [2.0, 2.02])
    pooled = verdicts("a*.json", "b*.json")
    for m in SPEC["end_to_end"]:
        assert pooled[m["name"]] == ("worse" if m["better"] == "lower" else "better")


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "grid-packet"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
