#!/usr/bin/env bash
# Cluster stream smoke: a tiny 2-hour stream cold, then warm on the
# same cache.
set -euo pipefail
out=smoke-out
mkdir -p "$out"

for pass in cold warm; do
  PYTHONPATH=src python -m repro.cli cluster-stream \
    --preset tiny --duration 2.0 --load 0.6 --seed 7 \
    --cache-dir "$out/stream-cache" --out "$out/stream-$pass.json"
done

# The warm run must plan the identical cells and simulate NONE of
# them — any re-simulation means epoch-cell identity broke. Both
# documents must agree job-for-job (cache transparency).
PYTHONPATH=src python - <<'PY'
import json

cold = json.load(open("smoke-out/stream-cold.json"))
warm = json.load(open("smoke-out/stream-warm.json"))
for name, doc in (("cold", cold), ("warm", warm)):
    assert doc["schema"] == "repro-cluster-stream/v1", doc["schema"]
    inv = doc["invariants"]
    assert inv["conserved"], (name, inv)
    assert inv["no_double_allocation"], (name, inv)
    assert inv["warm_rerun_ready"], (name, inv)
    assert inv["completed"] >= 1, (name, inv)
c = warm["counters"]
assert c["cells_simulated"] == 0, c
assert c["cells_cached"] == c["cells_planned"] > 0, c
assert cold["jobs"] == warm["jobs"], "warm re-run changed job records"
# Epoch `status` records cache provenance (done vs cached), not
# physics — strip it before demanding bit-equality.
strip = lambda es: [{k: v for k, v in e.items() if k != "status"} for e in es]
assert strip(cold["epochs"]) == strip(warm["epochs"]), "warm re-run changed epochs"
print(
    f"{len(cold['jobs'])} jobs, {len(cold['epochs'])} epochs; "
    f"warm re-run simulated 0 of {c['cells_planned']} cells"
)
PY
rm -rf "$out/stream-cache"
