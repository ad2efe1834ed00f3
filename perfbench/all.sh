#!/usr/bin/env bash
# Runs every workload once untraced and once traced, printing each run's
# report. Run from the repository root:
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail

seed="${1:-1}"
seconds="${2:-10}"
for w in invoke-steady adapt-cycle trader-churn; do
	for trace in 0 1; do
		echo "=== $w trace=$trace"
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
	done
done
