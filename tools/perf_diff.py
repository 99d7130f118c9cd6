#!/usr/bin/env python3
"""Noise-aware perf comparison of benchmark JSON dumps (CI perf gate).

Accepts BENCH_transport.json ("bench-transport") and BENCH_schedule.json
("bench-schedule") dumps; the two sides of a comparison must be the same
kind. Transport dumps are keyed by (workload, p); schedule dumps by
(bench/variant, d·n·m configuration). Schedule dumps measure virtual
clocks, which are deterministic — gate them with a tight --max-regression
(any slowdown is a genuine schedule-quality change, not machine noise).

Two modes:

Baseline diff (the default) — compare a fresh run against the checked-in
baseline and fail on regression:

    python3 tools/perf_diff.py --baseline bench/baselines/BENCH_transport.json \
        --current BENCH_transport.json [--max-regression 0.35]

  Per configuration the gate compares the current best-of-reps
  seconds against the baseline's. A config regresses when

      current.seconds > baseline.seconds * (1 + max_regression) + noise

  where noise = 2 * max(baseline.stddev, current.stddev) absorbs
  run-to-run jitter on loaded CI runners (old dumps without dispersion
  columns get noise = 0). Improvements and new configs never fail; a config
  present in the baseline but missing from the current run does.

Overhead check — assert that a telemetry-armed run of one workload stays
within a fractional budget of the telemetry-off run (the ISSUE's <5%
criterion for fanin p=64):

    python3 tools/perf_diff.py --overhead BENCH_off.json BENCH_telem.json \
        --workload fanin --p 64 --max-overhead 0.05

  The check uses each side's per-config *median*, not the best-of-reps
  minimum: minima race to the same floor and hide steady overhead. The
  same 2*stddev noise allowance applies on top of the budget.

Trend — print every metric of checked-in perfbench campaigns
("perfbench-campaign" BENCH_pr<N>.json, one per change) across changes:

    python3 tools/perf_diff.py --trend BENCH_pr*.json

  Points are ordered by the change number in the file name. Per workload,
  each end-to-end metric shows the parent and change medians of its
  campaign ("parent -> change"), each trace1 metric the parent and change
  values of its single traced run; "-" marks a metric a point lacks.

Exit status: 0 = within bounds, 1 = regression/overhead exceeded,
2 = usage or malformed input. Stdlib only.
"""

import argparse
import json
import os
import re
import sys


def fail(msg, code=2):
    print(f"perf_diff: {msg}", file=sys.stderr)
    sys.exit(code)


def load(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in ("bench-transport", "bench-schedule"):
        fail(f"{path}: not a bench-transport or bench-schedule dump")
    out = {}
    for r in doc.get("results", []):
        if kind == "bench-transport":
            key = (r.get("workload"), r.get("p"))
        else:
            key = (f"{r.get('bench')}/{r.get('variant')}",
                   f"d{r.get('d')}n{r.get('n')}m{r.get('m')}")
        if None in key or "None" in str(key) or \
                not isinstance(r.get("seconds"), (int, float)):
            fail(f"{path}: malformed result {r!r}")
        r.setdefault("min", r["seconds"])
        r.setdefault("median", r["seconds"])
        r.setdefault("stddev", 0.0)
        out[key] = r
    if not out:
        fail(f"{path}: no results")
    return out


def config_label(key):
    """Human label for a result key of either dump kind."""
    group, cfg = key
    return f"{group} p={cfg}" if isinstance(cfg, int) else f"{group} {cfg}"


def diff_mode(args):
    base = load(args.baseline)
    cur = load(args.current)
    failures = []
    for key in sorted(base, key=str):
        label = config_label(key)
        b = base[key]
        c = cur.get(key)
        if c is None:
            failures.append(f"{label}: missing from current run")
            continue
        noise = 2.0 * max(b["stddev"], c["stddev"])
        limit = b["seconds"] * (1.0 + args.max_regression) + noise
        delta = (c["seconds"] / b["seconds"] - 1.0) if b["seconds"] > 0 else 0.0
        verdict = "FAIL" if c["seconds"] > limit else "ok"
        print(f"{verdict:4s} {label:32s} "
              f"base={b['seconds']:.4g}s cur={c['seconds']:.4g}s "
              f"({delta:+.1%} vs base, limit={limit:.4g}s)")
        if verdict == "FAIL":
            failures.append(
                f"{label}: {c['seconds']:.4g}s exceeds "
                f"{limit:.4g}s ({delta:+.1%} vs baseline)")
    for key in sorted(set(cur) - set(base), key=str):
        print(f"new  {config_label(key):32s} (not in baseline, ignored)")
    if failures:
        print("perf_diff: regression detected:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"perf_diff: {len(base)} configs within "
          f"{args.max_regression:.0%} + noise")


def overhead_mode(args):
    off = load(args.overhead[0])
    on = load(args.overhead[1])
    key = (args.workload, args.p)
    for name, side in (("off", off), ("telemetry", on)):
        if key not in side:
            fail(f"{args.workload} p={args.p} missing from {name} run")
    b, c = off[key], on[key]
    if b["median"] <= 0:
        fail(f"non-positive baseline median for {args.workload} p={args.p}")
    noise = 2.0 * max(b["stddev"], c["stddev"])
    limit = b["median"] * (1.0 + args.max_overhead) + noise
    overhead = c["median"] / b["median"] - 1.0
    print(f"{args.workload} p={args.p}: off={b['median']:.4g}s "
          f"telemetry={c['median']:.4g}s overhead={overhead:+.1%} "
          f"(budget {args.max_overhead:.0%} + noise {noise:.4g}s)")
    if c["median"] > limit:
        print(f"perf_diff: telemetry overhead {overhead:.1%} exceeds "
              f"{args.max_overhead:.0%} budget", file=sys.stderr)
        sys.exit(1)
    print("perf_diff: telemetry overhead within budget")


def load_campaign(path):
    """(order, label, doc) of one perfbench campaign dump."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(doc, dict) or doc.get("kind") != "perfbench-campaign":
        fail(f"{path}: not a perfbench-campaign dump")
    if not isinstance(doc.get("workloads"), dict):
        fail(f"{path}: no workloads")
    name = os.path.basename(path)
    m = re.search(r"pr(\d+)", name)
    if m is None:
        fail(f"{path}: no change number (BENCH_pr<N>.json) in the file name")
    return int(m.group(1)), f"pr{m.group(1)}", doc


def trend_cell(parent, change):
    def num(v):
        return f"{v:.6g}" if isinstance(v, (int, float)) else "?"
    if parent is None and change is None:
        return "-"
    return f"{num(parent)} -> {num(change)}"


def trend_mode(paths):
    points = sorted((load_campaign(p) for p in paths), key=lambda x: x[0])
    workloads = []
    for _, _, doc in points:
        for w in doc["workloads"]:
            if w not in workloads:
                workloads.append(w)
    for w in workloads:
        rows = []  # (metric label, one cell per point)
        for section in ("metrics", "trace1"):
            names = []
            for _, _, doc in points:
                part = doc["workloads"].get(w, {}).get(section, {})
                keys = part.get("parent", {}) if section == "trace1" else part
                names += [n for n in keys if n not in names]
            for n in names:
                cells = []
                for _, _, doc in points:
                    part = doc["workloads"].get(w, {}).get(section, {})
                    if section == "metrics":
                        m = part.get(n, {})
                        cells.append(trend_cell(
                            m.get("parent", {}).get("median"),
                            m.get("change", {}).get("median")))
                    else:
                        cells.append(trend_cell(
                            part.get("parent", {}).get(n),
                            part.get("change", {}).get(n)))
                label = n if section == "metrics" else f"{n} (trace1)"
                rows.append((label, cells))
        header = ("metric", [label for _, label, _ in points])
        width0 = max(len(r[0]) for r in rows + [(header[0], [])])
        widths = [max(len(c[i]) for c in [header[1]] + [r[1] for r in rows])
                  for i in range(len(points))]
        print(w)
        for label, cells in [header] + rows:
            print("  " + label.ljust(width0) + "  " +
                  "  ".join(c.ljust(widths[i])
                            for i, c in enumerate(cells)).rstrip())


def main():
    ap = argparse.ArgumentParser(
        description="noise-aware BENCH_transport.json comparison")
    ap.add_argument("--baseline", help="checked-in baseline dump")
    ap.add_argument("--current", help="fresh dump to compare")
    ap.add_argument("--max-regression", type=float, default=0.35,
                    help="allowed fractional slowdown per config "
                         "(default 0.35)")
    ap.add_argument("--overhead", nargs=2, metavar=("OFF", "TELEM"),
                    help="compare a telemetry-off and a telemetry-on dump")
    ap.add_argument("--workload", default="fanin",
                    help="workload for --overhead (default fanin)")
    ap.add_argument("--p", type=int, default=64,
                    help="rank count for --overhead (default 64)")
    ap.add_argument("--max-overhead", type=float, default=0.05,
                    help="allowed fractional telemetry overhead "
                         "(default 0.05)")
    ap.add_argument("--trend", nargs="+", metavar="BENCH_prN.json",
                    help="print every metric of perfbench campaign dumps "
                         "across changes")
    args = ap.parse_args()
    if args.trend:
        trend_mode(args.trend)
    elif args.overhead:
        overhead_mode(args)
    elif args.baseline and args.current:
        diff_mode(args)
    else:
        ap.error("need --baseline + --current, --overhead or --trend")


if __name__ == "__main__":
    main()
