#!/usr/bin/env bash
# DL training workload family smoke.
set -euo pipefail
out=smoke-out
mkdir -p "$out"

# The fixture is a param/commsTraceReplay-style JSON document; it must
# import, replay through the CLI at the requested message scale, and
# produce bit-identical grid results under serial and 2-worker parallel
# execution.
PYTHONPATH=src python -m repro.cli replay \
  tests/data/comms_trace_dp8.json \
  --preset tiny --seed 7 --msg-scale 0.05 | tee "$out/replay.txt"

PYTHONPATH=src python - <<'PY'
import repro
from repro.core.runner import run_single
from repro.mlcomms import load_comms_trace

trace = load_comms_trace("tests/data/comms_trace_dp8.json").scaled(0.05)
result = run_single(repro.tiny(), trace, "cont", "min", seed=7)
want = f"{result.metrics.summary()['max_comm_ms']:.4f}"
(line,) = [l for l in open("smoke-out/replay.txt") if "max_comm_ms" in l]
got = line.split(":")[1].strip()
assert got == want, (got, want)
print(f"replay max_comm_ms {got} matches the library at msg-scale 0.05")
PY

PYTHONPATH=src python - <<'PY'
import repro
from repro.mlcomms import load_comms_trace

trace = load_comms_trace("tests/data/comms_trace_dp8.json").scaled(0.05)
study = repro.TradeoffStudy(repro.tiny(), {trace.name: trace}, seed=7)
serial = study.run()
parallel = study.run(max_workers=2)
assert list(serial.runs) == list(parallel.runs)
for key in serial.runs:
    a, b = serial.runs[key], parallel.runs[key]
    assert a.metrics.summary() == b.metrics.summary(), key
    assert a.sim_time_ns == b.sim_time_ns, key
print(f"{len(serial.runs)} cells bit-identical at 1 and 2 workers")
PY

PYTHONPATH=src python -m repro.cli training-tradeoff \
  --preset tiny --ranks 8 --msg-scale 0.02 --seed 1 \
  --backend flow --apps DP,MOE --out "$out/training.json"

# A repro-mlcomms/v1 report with a non-empty placement winner per
# routing for (at least) the DP-ring and MoE all-to-all jobs.
PYTHONPATH=src python - <<'PY'
import json

doc = json.load(open("smoke-out/training.json"))
assert doc["schema"] == "repro-mlcomms/v1", doc["schema"]
assert set(doc["apps"]) >= {"DP", "MOE"}, doc["apps"]
assert len(doc["cells"]) == len(doc["apps"]) * 10, len(doc["cells"])
for app in doc["apps"]:
    for routing in ("min", "adp"):
        rec = doc["winners"][app][routing]
        assert rec["placement"] in doc["placements"], (app, routing)
        assert rec["median_ms"] > 0, (app, routing, rec)
    lean = doc["leaning"][app]
    assert lean in ("localize", "balance", "split"), lean
    print(f"{app}: {[doc['winners'][app][r]['placement'] for r in ('min', 'adp')]} -> {lean}")
print("training trade-off report validated")
PY
