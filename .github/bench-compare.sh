#!/usr/bin/env bash
# Runs the bench/ benchmark (every BENCHMARK.json workload) on a parent
# commit and on the working tree, in three pairs on the same host, then six
# more pairs of the serve workload alone, and judges the two sides with
# `bench/run.sh compare`, so serve is judged over nine pairs and every
# other workload over three. Serve's setup_s is the median of a few
# millisecond-scale daemon start-ups; over three pairs its spread alone can
# exceed the metric's bound.
#
#   bash .github/bench-compare.sh [parent-rev]     (default HEAD^)
#
# Run it from the repository root. It exits with compare's status: non-zero
# when an end-to-end metric regressed beyond its bound or cannot be
# resolved, or when the change failed an operation. When the parent
# revision does not exist (a repository's first commit, a new branch) it
# prints a message and exits 0.
set -euo pipefail

parent=${1:-HEAD^}
if ! sha=$(git rev-parse --verify --quiet "${parent}^{commit}"); then
  echo "bench-compare: no parent commit '${parent}'; nothing to compare against, skipping"
  exit 0
fi

work=$(mktemp -d)
trap 'chmod -R u+w "$work" 2>/dev/null; rm -rf "$work"' EXIT
mkdir -p "$work/src" "$work/parent" "$work/change"
git archive "$sha" | tar -x -C "$work/src"
echo "bench-compare: parent ${sha}"

parent_run() { (cd "$work/src" && bash bench/run.sh -workload "$2" -out "$work/parent/run$1.jsonl"); }
change_run() { bash bench/run.sh -workload "$2" -out "$work/change/run$1.jsonl"; }
# The side that runs first alternates, so a drift in the host's speed
# over the job does not favour one side. compare pairs the runs of each
# workload in start order.
for i in 1 2 3 4 5 6 7 8 9; do
  workload=all
  if (( i > 3 )); then workload=serve; fi
  if (( i % 2 )); then
    parent_run "$i" "$workload"; change_run "$i" "$workload"
  else
    change_run "$i" "$workload"; parent_run "$i" "$workload"
  fi
done
bash bench/run.sh compare "$work/parent" "$work/change"
