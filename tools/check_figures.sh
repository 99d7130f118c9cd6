#!/bin/sh
# Exact gate for the virtual-clock figure benchmarks: rerun each one and
# diff its stdout (and, for fig3-fig6, its schedule JSON dump) byte-for-byte
# against the snapshots in bench/baselines/figures/. Virtual clocks are
# deterministic, so any difference is a real change in rounds, volume or
# cost model; a change that moves a figure on purpose reruns this with
# --update and says why in CHANGES.md.
#
# Usage: tools/check_figures.sh [BUILD_DIR] [--update]
set -eu

build=build
update=0
for arg in "$@"; do
  case "$arg" in
    --update) update=1 ;;
    -*) echo "usage: $0 [BUILD_DIR] [--update]" >&2; exit 2 ;;
    *) build=$arg ;;
  esac
done

root=$(cd "$(dirname "$0")/.." && pwd)
baselines=$root/bench/baselines/figures
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

benches="table1 fig3_alltoall_hydra_openmpi fig4_alltoall_hydra_intelmpi
fig5_alltoall_titan fig6_allgather fig6_alltoallv ablate_combined
ablate_cutoff ablate_dimorder ablate_scaling"

fail=0
for b in $benches; do
  case "$b" in
    fig*) json="--schedule-json=$out/$b.schedule.json" ;;
    *) json="--no-schedule-json" ;;
  esac
  "$build/bench/bench_$b" "$json" > "$out/$b.txt"
  for f in "$out/$b".*; do
    name=$(basename "$f")
    if [ "$update" = 1 ]; then
      cp "$f" "$baselines/$name"
    elif ! diff -u "$baselines/$name" "$f"; then
      echo "FAIL: $name differs from bench/baselines/figures/$name" >&2
      fail=1
    fi
  done
done
[ "$fail" = 0 ] && echo "all figure outputs match bench/baselines/figures/"
exit "$fail"
