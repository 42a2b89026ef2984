#!/usr/bin/env bash
# Observability smoke: a tiny study with --obs must export one
# non-empty telemetry file per grid cell.
set -euo pipefail
out=smoke-out
mkdir -p "$out"

PYTHONPATH=src python -m repro.cli study FB \
  --preset tiny --ranks 8 --msg-scale 0.05 \
  --obs --obs-window-ns 25000 --obs-out "$out/obs-export"

PYTHONPATH=src python - <<'PY'
from pathlib import Path
from repro.obs import read_jsonl

files = sorted(Path("smoke-out/obs-export").glob("*.jsonl"))
assert len(files) == 10, f"expected 10 grid cells, got {len(files)}"
for path in files:
    ts = read_jsonl(path)
    assert ts.num_windows >= 1, path
    assert ts.bytes_fwd.sum() > 0, path
    assert (ts.link_saturation_ns() >= 0).all(), path
print(f"validated {len(files)} telemetry exports")
PY
