#!/usr/bin/env bash
# Runs the bench/ benchmark (every BENCHMARK.json workload) on a parent
# commit and on the working tree, in three pairs on the same host, then
# judges the two sides with `bench/run.sh compare`:
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

parent_run() { (cd "$work/src" && bash bench/run.sh -workload all -out "$work/parent/run$1.jsonl"); }
change_run() { bash bench/run.sh -workload all -out "$work/change/run$1.jsonl"; }
# The side that runs first alternates, so a drift in the host's speed
# over the job does not favour one side.
for i in 1 2 3; do
  if (( i % 2 )); then
    parent_run "$i"; change_run "$i"
  else
    change_run "$i"; parent_run "$i"
  fi
done
bash bench/run.sh compare "$work/parent" "$work/change"
