#!/usr/bin/env bash
# Engine hot-path throughput gate. Quick mode (2 repeats) keeps the job
# short; the 20% regression budget absorbs runner jitter while still
# catching real hot-path slowdowns against the committed baseline.
set -euo pipefail
out=smoke-out
mkdir -p "$out"

PYTHONPATH=src python benchmarks/bench_engine_hotpath.py \
  --quick --out "$out/BENCH_engine.ci.json" \
  --compare BENCH_engine.json --max-regression 0.20
