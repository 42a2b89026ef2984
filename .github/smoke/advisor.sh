#!/usr/bin/env bash
# Placement-advisor funnel smoke.
set -euo pipefail
out=smoke-out
mkdir -p "$out"
cache="$out/advisor-cache"

# The training cache is an ordinary study cache: three apps through the
# flow backend on the tiny preset (5 placements x 2 routings each = 30
# RunResults), exactly the data a user would already have after a sweep.
for app in FB CR AMG; do
  PYTHONPATH=src python -m repro.cli study $app \
    --preset tiny --ranks 8 --msg-scale 0.2 --seed 7 \
    --backend flow --cache-dir "$cache"
done

# Train once (saving the model), then advise for both routings.
# --exhaustive also flow-screens every candidate so each report records
# whether the funnel's pick IS the grid optimum.
PYTHONPATH=src python -m repro.cli advise FB --funnel \
  --preset tiny --ranks 8 --msg-scale 0.2 --seed 7 \
  --routing min --train-cache "$cache" \
  --save-model "$out/advisor-model.json" --cache-dir "$cache" \
  --screen-top 3 --validate-top 2 --exhaustive \
  --out "$out/recommendation-min.json"
PYTHONPATH=src python -m repro.cli advise FB --funnel \
  --preset tiny --ranks 8 --msg-scale 0.2 --seed 7 \
  --routing adp --model "$out/advisor-model.json" \
  --cache-dir "$cache" \
  --screen-top 3 --validate-top 2 --exhaustive \
  --out "$out/recommendation-adp.json"
rm -rf "$cache"

# The acceptance gate from DESIGN.md S20: on the tiny 5x2 grid the
# funnel's recommendation must equal the exhaustive flow-backend optimum
# for both routings, and the surrogate must have been trained on the
# full 30-cell study grid.
PYTHONPATH=src python - <<'PY'
import json

model = json.load(open("smoke-out/advisor-model.json"))
assert model["schema"] == "repro-advisor-model/v1", model["schema"]
assert model["n_samples"] == 30, model["n_samples"]
for routing in ("min", "adp"):
    doc = json.load(open(f"smoke-out/recommendation-{routing}.json"))
    assert doc["schema"] == "repro-advisor-funnel/v1", doc["schema"]
    ex = doc["exhaustive"]
    assert ex is not None, routing
    assert ex["agree_placement"], (routing, doc["chosen"], ex)
    tiers = [t["name"] for t in doc["tiers"]]
    assert tiers == [
        "surrogate", "flow-screen", "packet-val", "flow-exhaust",
    ], tiers
    print(
        f"{routing}: funnel chose {doc['chosen']['placement']}"
        f"#{doc['chosen']['draw']}, exhaustive optimum "
        f"{ex['best_placement']}#{ex['best_draw']} — agree"
    )
PY
