#!/usr/bin/env python3
"""Validate an OpenMetrics text file written by MPL_OPENMETRICS (CI check).

    python3 tools/check_openmetrics.py metrics.om

Checks, against the subset of the OpenMetrics text format the exporter in
src/telemetry/openmetrics.cpp emits:

  - every line is a `# TYPE`/`# HELP` declaration, a sample, or `# EOF`;
  - `# EOF` is present, exactly once, as the last line;
  - every sample belongs to a family declared by a preceding `# TYPE`;
  - counter samples use the `_total` suffix and are non-negative;
  - histogram families carry `_bucket{le="..."}` series with
    non-decreasing `le` thresholds and non-decreasing cumulative counts,
    a final `le="+Inf"` bucket, and `_sum`/`_count` samples with
    `_count` == the `+Inf` bucket count;
  - the required families for the telemetry tentpole are present: the
    message counters, at least one pool gauge, the lock-contention
    counters, and at least one histogram with observations recorded.

Exit status: 0 = valid, 1 = malformed or missing required families.
Stdlib only.
"""

import re
import sys

TYPE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (\w+)$")
HELP_RE = re.compile(r"^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$")
SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"      # metric name
    r"(?:\{([^{}]*)\})?"                 # optional labels
    r" (-?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|\d*\.\d+(?:[eE][+-]?\d+)?))$"
)
LABEL_RE = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')

REQUIRED_COUNTERS = (
    "mpl_msgs_sent", "mpl_bytes_sent", "mpl_staged_bytes", "mpl_msgs_recv",
    "mpl_bytes_recv",
    "mpl_pool_hits", "mpl_pool_misses",
    "mpl_fault_retries", "mpl_fault_delays",
    "mpl_lock_acquisitions", "mpl_lock_contended",
)
REQUIRED_GAUGES = ("mpl_ranks", "mpl_pool_free_buffers")
REQUIRED_HISTOGRAMS = (
    "mpl_collective_latency_seconds", "mpl_wait_block_seconds",
    "mpl_message_size_bytes",
)


def fail(msg):
    print(f"check_openmetrics: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_labels(raw, lineno):
    labels = {}
    if not raw:
        return labels
    for part in raw.split(","):
        m = LABEL_RE.match(part)
        if not m:
            fail(f"line {lineno}: malformed label {part!r}")
        labels[m.group(1)] = m.group(2)
    return labels


def family_of(name, types):
    """Map a sample name to its declared family (handles histogram and
    counter suffixes)."""
    for suffix in ("_total", "_bucket", "_sum", "_count", ""):
        if suffix and not name.endswith(suffix):
            continue
        base = name[: len(name) - len(suffix)] if suffix else name
        if base in types:
            return base, suffix
    return None, None


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    try:
        text = open(sys.argv[1]).read()
    except OSError as e:
        fail(str(e))
    if not text.endswith("\n"):
        fail("file does not end with a newline")
    lines = text.splitlines()
    if not lines:
        fail("empty file")
    if lines[-1] != "# EOF":
        fail(f"last line is {lines[-1]!r}, expected '# EOF'")
    if lines.count("# EOF") != 1:
        fail("multiple '# EOF' lines")

    types = {}            # family -> counter|gauge|histogram
    samples = {}          # family -> list of (suffix, labels, value, lineno)
    for i, line in enumerate(lines[:-1], start=1):
        if m := TYPE_RE.match(line):
            name, mtype = m.groups()
            if name in types:
                fail(f"line {i}: duplicate TYPE for {name}")
            if mtype not in ("counter", "gauge", "histogram"):
                fail(f"line {i}: unknown metric type {mtype!r}")
            types[name] = mtype
            continue
        if HELP_RE.match(line):
            continue
        if line.startswith("#"):
            fail(f"line {i}: unrecognized comment/directive {line!r}")
        m = SAMPLE_RE.match(line)
        if not m:
            fail(f"line {i}: malformed sample line {line!r}")
        name, raw_labels, value = m.groups()
        family, suffix = family_of(name, types)
        if family is None:
            fail(f"line {i}: sample {name!r} without a preceding # TYPE")
        labels = parse_labels(raw_labels, i)
        samples.setdefault(family, []).append(
            (suffix, labels, float(value), i))

    for family, mtype in types.items():
        # A declared family with zero samples is legal (a labeled counter
        # whose every label combination is elided, e.g. lock levels never
        # touched); per-sample rules apply to whatever was emitted.
        fam_samples = samples.get(family, [])
        if mtype == "counter":
            for suffix, _labels, value, lineno in fam_samples:
                if suffix != "_total":
                    fail(f"line {lineno}: counter sample for {family} "
                         f"must use the _total suffix")
                if value < 0:
                    fail(f"line {lineno}: negative counter {family}")
        elif mtype == "gauge":
            for suffix, _labels, _value, lineno in fam_samples:
                if suffix != "":
                    fail(f"line {lineno}: gauge sample for {family} "
                         f"has unexpected suffix {suffix!r}")
        else:  # histogram
            check_histogram(family, fam_samples)

    missing = [f for f in REQUIRED_COUNTERS
               if types.get(f) != "counter"]
    missing += [f for f in REQUIRED_GAUGES if types.get(f) != "gauge"]
    missing += [f for f in REQUIRED_HISTOGRAMS
                if types.get(f) != "histogram"]
    if missing:
        fail(f"required families missing or mistyped: {', '.join(missing)}")
    populated = [f for f in REQUIRED_HISTOGRAMS
                 if any(s == "_count" and v > 0
                        for s, _l, v, _i in samples.get(f, []))]
    if not populated:
        fail("no histogram family has any observations")

    nfam = len(types)
    print(f"check_openmetrics: OK ({nfam} families, histograms with data: "
          f"{', '.join(populated)})")


def check_histogram(family, fam_samples):
    buckets, total_count, total_sum = [], None, None
    for suffix, labels, value, lineno in fam_samples:
        if suffix == "_bucket":
            if "le" not in labels:
                fail(f"line {lineno}: {family}_bucket without an le label")
            le = labels["le"]
            buckets.append((le, value, lineno))
        elif suffix == "_count":
            total_count = (value, lineno)
        elif suffix == "_sum":
            total_sum = (value, lineno)
        else:
            fail(f"line {lineno}: unexpected histogram sample "
                 f"{family}{suffix}")
    if not buckets:
        fail(f"histogram {family} has no _bucket samples")
    if buckets[-1][0] != "+Inf":
        fail(f"histogram {family}: last bucket is le=\"{buckets[-1][0]}\", "
             f"expected +Inf")
    prev_le, prev_count = None, None
    for le, count, lineno in buckets:
        le_val = float("inf") if le == "+Inf" else float(le)
        if prev_le is not None and le_val <= prev_le:
            fail(f"line {lineno}: {family} bucket thresholds not "
                 f"increasing ({le})")
        if prev_count is not None and count < prev_count:
            fail(f"line {lineno}: {family} cumulative bucket counts "
                 f"decrease at le=\"{le}\"")
        prev_le, prev_count = le_val, count
    if total_count is None or total_sum is None:
        fail(f"histogram {family} missing _count or _sum")
    if total_count[0] != buckets[-1][1]:
        fail(f"histogram {family}: _count {total_count[0]} != +Inf bucket "
             f"{buckets[-1][1]}")


if __name__ == "__main__":
    main()
