#!/usr/bin/env bash
# Paper smoke: regenerate every table, figure and ablation of the paper
# at the medium preset, plus the claim table. It fails when a claim
# fails (the run exits non-zero) or when any committed result file
# changes by one byte.
set -euo pipefail
out=smoke-out
mkdir -p "$out"

PYTHONPATH=src python benchmarks/paper.py | tee "$out/paper.txt"

changed=$(git status --porcelain -- benchmarks/results)
if [ -n "$changed" ]; then
  echo "paper results differ from the committed files:" >&2
  echo "$changed" >&2
  git diff --stat -- benchmarks/results >&2
  # The moved rows themselves, bounded so a large change stays readable
  # (head closing the pipe early must not end the script before exit 1).
  git diff -- benchmarks/results | head -n 200 >&2 || true
  exit 1
fi
echo "every paper result file matches its committed copy"
