#!/bin/sh
# Exact gate for perfbench's deterministic metrics: run each workload once
# with --trace 1 (the per-op work counts) and once with --trace 0 (the
# virtual-clock cost model_vus), and compare those values for equality
# against bench/baselines/perfbench_counts.json. Wall-clock metrics are
# never compared. The counts are a function of the schedules alone, so a
# short run suffices; a change that moves a count on purpose reruns this
# with --update and says why in CHANGES.md.
#
# Usage: tools/check_perfbench_counts.sh [--update]
set -eu

update=0
for arg in "$@"; do
  case "$arg" in
    --update) update=1 ;;
    *) echo "usage: $0 [--update]" >&2; exit 2 ;;
  esac
done

root=$(cd "$(dirname "$0")/.." && pwd)
baseline=$root/bench/baselines/perfbench_counts.json
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for w in stencil2d oneshot5d bulk3d; do
  for trace in 0 1; do
    if ! python3 "$root/perfbench/run.py" --workload "$w" --seed 1 \
        --seconds 1 --trace "$trace" > "$out/run.txt" 2> "$out/build.log"; then
      cat "$out/build.log" "$out/run.txt" >&2
      exit 1
    fi
    tail -n 1 "$out/run.txt" > "$out/$w.$trace.json"
  done
done

python3 - "$out" "$baseline" "$update" <<'EOF'
import json
import sys

out, baseline, update = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
EXACT = {
    0: ["model_vus"],
    1: ["cartcomm.schedule.rounds", "cartcomm.schedule.send_blocks",
        "cartcomm.schedule.send_bytes", "cartcomm.schedule.temp_bytes",
        "cartcomm.schedule.copies", "mpl.transport.msgs",
        "mpl.transport.bytes", "cartcomm.reduce.folds",
        "cartcomm.reduce.fold_bytes", "cartcomm.plan.hits",
        "cartcomm.plan.misses", "mpl.datatype.packed_bytes",
        "mpl.datatype.copy_bytes_per_byte"],
}

got, fail = {}, False
for w in ["stencil2d", "oneshot5d", "bulk3d"]:
    got[w] = {}
    for trace, keys in EXACT.items():
        with open(f"{out}/{w}.{trace}.json") as f:
            res = json.load(f)
        if not res["correct"]:
            print(f"FAIL: {w} --trace {trace} reported an incorrect run",
                  file=sys.stderr)
            fail = True
        for k in keys:
            got[w][k] = res["metrics"][k]["value"]

if update and not fail:
    with open(baseline, "w") as f:
        json.dump(got, f, indent=2, sort_keys=True)
        f.write("\n")
    sys.exit(0)

with open(baseline) as f:
    want = json.load(f)
for w, metrics in got.items():
    for k, v in metrics.items():
        if want.get(w, {}).get(k) != v:
            print(f"FAIL: {w} {k} = {v!r}, baseline {want.get(w, {}).get(k)!r}",
                  file=sys.stderr)
            fail = True
if fail:
    sys.exit(1)
print("all perfbench exact counts match bench/baselines/perfbench_counts.json")
EOF
