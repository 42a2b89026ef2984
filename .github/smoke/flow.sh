#!/usr/bin/env bash
# Flow backend smoke: cross-fidelity check through the CLI (top-1
# agreement and the flow-over-packet speedup gate) and the differential
# equivalence suite (object vs array fabric, oracle fills, the array
# fabric's fill check and spill emulation).
set -euo pipefail
out=smoke-out
mkdir -p "$out"

# msg-scale 0.2 keeps the packet reference runs short while staying out
# of the degenerate 1-3-packets-per-message regime where a fluid model
# cannot plausibly be 5x faster.
PYTHONPATH=src python -m repro.cli fidelity FB \
  --preset tiny --ranks 8 --msg-scale 0.2 --seed 7 \
  --out "$out/fidelity.json"

PYTHONPATH=src python - <<'PY'
import json

data = json.load(open("smoke-out/fidelity.json"))
assert data["schema"] == "repro-fidelity/v1", data["schema"]
assert len(data["cells"]) == 10, f"expected 10 cells, got {len(data['cells'])}"
for app, routings in data["rank"].items():
    for routing, rec in routings.items():
        assert rec["top1_agree"], (app, routing, rec)
        print(
            f"{app} {routing}: top-1 {rec['top1_flow']} agrees, "
            f"tau={rec['kendall_tau']:+.2f}"
        )
assert data["top1_agreement"] is True
assert data["speedup"] >= 5.0, f"flow only {data['speedup']:.1f}x faster"
print(f"fidelity validated, speedup {data['speedup']:.1f}x")
PY

# Includes the object-vs-array physics proof on the fidelity grid above
# (TestFabricEquivalence::test_fidelity_grid_object_vs_array).
PYTHONPATH=src python -m pytest -q \
  tests/integration/test_flow_equivalence.py \
  tests/integration/test_golden_metrics.py::test_flow_grid_fills_match_scalar \
  tests/unit/test_solver_properties.py \
  tests/unit/test_solver_oracle.py \
  tests/unit/test_fabric_array.py
