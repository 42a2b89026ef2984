#!/usr/bin/env bash
# Fault-injection resilience smoke through the CLI.
set -euo pipefail
out=smoke-out
mkdir -p "$out"

PYTHONPATH=src python -m repro.cli resilience FB \
  --preset tiny --ranks 8 --msg-scale 0.05 \
  --rates 0.1,0.2 --seed 7 --fault-seed 11 \
  --out "$out/resilience.json"

# Per-cell degradation can legitimately dip negative (a detour can
# relieve a hotspot for one placement), so the gate is the
# placement-averaged per-policy number, which must show faults
# actually hurting.
PYTHONPATH=src python - <<'PY'
import json

data = json.load(open("smoke-out/resilience.json"))
assert data["schema"] == "repro-resilience/v1", data["schema"]
assert data["rates"] == [0.0, 0.1, 0.2], data["rates"]
cells = data["cells"]
assert len(cells) == 30, f"expected 10 labels x 3 rates, got {len(cells)}"
for rate, digest in data["fault_plan_digests"].items():
    assert (digest is None) == (float(rate) == 0.0), (rate, digest)
for cell in cells:
    assert cell["median_comm_ns"] > 0, cell
    if cell["rate"] == 0.0:
        assert cell["degradation_pct"] == 0.0, cell
for routing in ("min", "adp"):
    for rate in (0.1, 0.2):
        vals = [
            c["degradation_pct"]
            for c in cells
            if c["rate"] == rate and c["label"].endswith(f"-{routing}")
        ]
        assert len(vals) == 5, (routing, rate, vals)
        mean = sum(vals) / len(vals)
        assert mean > 0.0, (routing, rate, mean)
        print(f"rate {rate} {routing}: +{mean:.2f}% (placement-averaged)")
print("resilience export validated")
PY
