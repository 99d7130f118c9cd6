#!/usr/bin/env python3
"""Convert benchmark suite output into tidy CSV files.

Usage:
    for b in build/bench/*; do $b; done | tee bench_output.txt
    python3 tools/bench_to_csv.py bench_output.txt out_dir/
    python3 tools/bench_to_csv.py metrics.json out_dir/
    python3 tools/bench_to_csv.py BENCH_schedule.json out_dir/

The input format is sniffed. Plain text produces one CSV per recognized
experiment:
    alltoall_figures.csv  - Figures 3/4/5 rows (figure, d, n, t, m, variant,
                            milliseconds, relative-to-baseline)
    fig6.csv              - Figure 6 rows (operation, m, variant, ms, rel)
    table1.csv            - Table 1 rows
A metrics dump (--metrics / MPL_METRICS, "kind": "mpl-metrics") produces:
    metrics.csv           - per-rank totals, one counter per column
    metrics_per_comm.csv  - the same counters split by communicator context
    metrics_per_phase.csv - per-rank, per-schedule-phase message/byte columns
    metrics_msg_sizes.csv - per-rank message size histogram
A schedule summary (BENCH_schedule.json, "kind": "bench-schedule") produces:
    bench_schedule.csv    - bench, d, n, m, variant, seconds, min, median,
                            stddev
A transport summary (BENCH_transport.json, "kind": "bench-transport")
produces:
    bench_transport.csv   - workload, p, messages, bytes, seconds, min,
                            median, stddev, msgs_per_sec, mb_per_sec,
                            telemetry
Unrecognized text sections are ignored, so the script keeps working when new
benchmarks are added.
"""

import csv
import json
import os
import re
import sys


def parse_alltoall_figures(text):
    """Rows of the shared Figures 3/4/5 driver."""
    rows = []
    figure = None
    for line in text.splitlines():
        m = re.match(r"Figure (\d+): Cart_alltoall", line)
        if m:
            figure = int(m.group(1))
            continue
        m = re.match(
            r"d=(\d+) n=(\d+) \(t=\s*(\d+)\) m=\s*(\d+) \| (.*)", line)
        if not m or figure is None:
            continue
        d, n, t, blk = (int(m.group(i)) for i in range(1, 5))
        for part in m.group(5).split("|"):
            vm = re.match(
                r"\s*([\w-]+)\s+([\d.]+) ms \(\s*([\d.]+)", part)
            if vm:
                rows.append([figure, d, n, t, blk, vm.group(1),
                             float(vm.group(2)), float(vm.group(3))])
    return rows


def parse_fig6(text):
    rows = []
    op = None
    for line in text.splitlines():
        m = re.match(r"Figure 6 \((\w+)\): (Cart_\w+)", line)
        if m:
            op = m.group(2)
            continue
        m = re.match(r"m=\s*(\d+) \| (.*)", line)
        if not m or op is None:
            continue
        blk = int(m.group(1))
        for part in m.group(2).split("|"):
            vm = re.match(r"\s*([\w_]+)\s+([\d.]+) ms \(\s*([\d.]+)", part)
            if vm:
                rows.append([op, blk, vm.group(1), float(vm.group(2)),
                             float(vm.group(3))])
    return rows


def parse_ablate_reduce(text):
    """Rows of the trivial-vs-combining reduction ablation."""
    rows = []
    in_bench = False
    for line in text.splitlines():
        if line.startswith("Ablation: Cart_neighbor_reduce"):
            in_bench = True
            continue
        if line.startswith(("Figure ", "Ablation:", "Table ")):
            in_bench = False  # another experiment's section begins
            continue
        m = re.match(
            r"d=(\d+) n=(\d+) \(t=\s*(\d+)\) m=\s*(\d+) \| (.*)", line)
        if not m or not in_bench:
            continue
        d, n, t, blk = (int(m.group(i)) for i in range(1, 5))
        for part in m.group(5).split("|"):
            vm = re.match(r"\s*(\w+)\s+([\d.]+) ms", part)
            if vm:
                rows.append([d, n, t, blk, vm.group(1), float(vm.group(2))])
    return rows


def parse_table1(text):
    rows = []
    in_table = False
    for line in text.splitlines():
        if line.startswith("Table 1:"):
            in_table = True
            continue
        if not in_table:
            continue
        m = re.match(
            r"(\d+)\s+(\d+)\s+\|\s+(\d+)\s+(\d+)\s+\|\s+(\d+)\s+(\d+)\s+\|"
            r"\s+([\d.]+|inf)", line)
        if m:
            rows.append([int(m.group(i)) for i in range(1, 7)] +
                        [float(m.group(7))])
        elif line.startswith("(") and rows:
            break
    return rows


TOTALS_COLUMNS = [
    "msgs_sent", "bytes_sent", "msgs_recv", "bytes_recv", "packed_msgs",
    "packed_bytes", "zero_copy_msgs", "zero_copy_bytes", "self_msgs",
    "self_copies", "self_copy_bytes", "rounds", "phases",
    "schedule_executions", "wait_stall_v", "wait_stall_wall",
    "fault_retries", "fault_delays", "fault_backoff_v", "fault_delay_v",
    "fault_straggler_v", "staged_bytes",
]


def convert_metrics(doc, out):
    """CSVs from a "mpl-metrics" dump (--metrics / MPL_METRICS)."""
    ranks = doc.get("ranks", [])
    totals, per_comm, per_phase, sizes = [], [], [], []
    for r in ranks:
        rank = r.get("rank")
        t = r.get("totals", {})
        totals.append([rank, r.get("dropped_events", 0)] +
                      [t.get(c, 0) for c in TOTALS_COLUMNS])
        for pc in r.get("per_comm", []):
            c = pc.get("counters", {})
            per_comm.append([rank, pc.get("ctx")] +
                            [c.get(col, 0) for col in TOTALS_COLUMNS])
        for ph in r.get("per_phase", []):
            per_phase.append([rank, ph.get("phase"), ph.get("msgs", 0),
                              ph.get("bytes", 0)])
        for b in r.get("msg_size_hist", []):
            sizes.append([rank, b.get("le_bytes"), b.get("count", 0)])
    write_csv(os.path.join(out, "metrics.csv"),
              ["rank", "dropped_events"] + TOTALS_COLUMNS, totals)
    write_csv(os.path.join(out, "metrics_per_comm.csv"),
              ["rank", "ctx"] + TOTALS_COLUMNS, per_comm)
    write_csv(os.path.join(out, "metrics_per_phase.csv"),
              ["rank", "phase", "msgs", "bytes"], per_phase)
    write_csv(os.path.join(out, "metrics_msg_sizes.csv"),
              ["rank", "le_bytes", "count"], sizes)


def convert_bench_schedule(doc, out):
    """CSV from a "bench-schedule" summary (BENCH_schedule.json)."""
    # Dispersion columns (min/median/stddev) appeared with the perf-gate
    # work; old dumps lack them and default to the headline seconds / 0.
    rows = [[r.get("bench"), r.get("d"), r.get("n"), r.get("m"),
             r.get("variant"), r.get("seconds"),
             r.get("min", r.get("seconds")),
             r.get("median", r.get("seconds")), r.get("stddev", 0.0)]
            for r in doc.get("results", [])]
    write_csv(os.path.join(out, "bench_schedule.csv"),
              ["bench", "d", "n", "m", "variant", "seconds", "min", "median",
               "stddev"], rows)


def convert_bench_transport(doc, out):
    """CSV from a "bench-transport" summary (BENCH_transport.json)."""
    telemetry = 1 if doc.get("telemetry") else 0
    rows = [[r.get("workload"), r.get("p"), r.get("messages"), r.get("bytes"),
             r.get("seconds"), r.get("min", r.get("seconds")),
             r.get("median", r.get("seconds")), r.get("stddev", 0.0),
             r.get("msgs_per_sec"), r.get("mb_per_sec"), telemetry]
            for r in doc.get("results", [])]
    write_csv(os.path.join(out, "bench_transport.csv"),
              ["workload", "p", "messages", "bytes", "seconds", "min",
               "median", "stddev", "msgs_per_sec", "mb_per_sec",
               "telemetry"], rows)


def try_json(text):
    """Return the parsed document when the input is a known JSON dump."""
    if not text.lstrip().startswith("{"):
        return None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return None
    if isinstance(doc, dict) and doc.get("kind") in ("mpl-metrics",
                                                     "bench-schedule",
                                                     "bench-transport"):
        return doc
    return None


def write_csv(path, header, rows):
    if not rows:
        return
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    text = open(sys.argv[1]).read()
    out = sys.argv[2]
    os.makedirs(out, exist_ok=True)
    doc = try_json(text)
    if doc is not None:
        if doc["kind"] == "mpl-metrics":
            convert_metrics(doc, out)
        elif doc["kind"] == "bench-transport":
            convert_bench_transport(doc, out)
        else:
            convert_bench_schedule(doc, out)
        return
    write_csv(os.path.join(out, "alltoall_figures.csv"),
              ["figure", "d", "n", "t", "m", "variant", "ms", "relative"],
              parse_alltoall_figures(text))
    write_csv(os.path.join(out, "fig6.csv"),
              ["operation", "m", "variant", "ms", "relative"],
              parse_fig6(text))
    write_csv(os.path.join(out, "ablate_reduce.csv"),
              ["d", "n", "t", "m", "variant", "ms"],
              parse_ablate_reduce(text))
    write_csv(os.path.join(out, "table1.csv"),
              ["d", "n", "t_trivial", "C", "allgather_V", "alltoall_V",
               "cutoff"],
              parse_table1(text))


if __name__ == "__main__":
    main()
