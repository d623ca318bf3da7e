#!/usr/bin/env bash
# Run every workload once, untraced, and print its metrics with their units.
# Usage: bash bench/all.sh [seed] [seconds]   (from the repository root)
# Exits non-zero as soon as a workload fails an output check or cannot run.
set -euo pipefail
seed="${1:-0}"
seconds="${2:-20}"
for workload in certify_random climb_chain closure_reducible ensemble_n3; do
  python3 bench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
done
