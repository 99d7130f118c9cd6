#!/usr/bin/env python3
"""Unit tests for tools/perf_diff.py --trend.

Writes synthetic perfbench campaign dumps (the BENCH_pr<N>.json format)
and asserts that --trend orders the points by change number, prints each
end-to-end metric's parent and change medians and each trace1 metric's
parent and change values, marks what a point lacks with "-", and rejects
malformed input.

Run directly (CI + ctest):  python3 tools/test_perf_diff.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(TOOLS, "perf_diff.py")


def campaign(p50, vus, rounds=None):
    """One workload's campaign entry: two medians and, optionally, a
    traced run on each side."""
    def side(median):
        return {"q1": median - 1, "median": median, "q3": median + 1}
    w = {"pairs": 10, "metrics": {
        "op_us_p50": {"parent": side(p50[0]), "change": side(p50[1])},
        "model_vus": {"parent": side(vus[0]), "change": side(vus[1])},
    }}
    if rounds is not None:
        w["trace1"] = {"parent": {"cartcomm.schedule.rounds": rounds[0]},
                       "change": {"cartcomm.schedule.rounds": rounds[1]}}
    return w


def trend(files):
    """Run --trend on {file name: document}; return (code, out, err)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in files.items():
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                json.dump(doc, fh)
            paths.append(path)
        res = subprocess.run([sys.executable, SCRIPT, "--trend"] + paths,
                             capture_output=True, text=True)
        return res.returncode, res.stdout, res.stderr


def row(out, label):
    """The cells of the row whose metric is `label`."""
    for line in out.splitlines():
        if line.startswith("  " + label + " "):
            return line[len(label) + 2:].split("  ")
    raise AssertionError(f"no row {label!r} in:\n{out}")


class Trend(unittest.TestCase):
    def test_orders_points_and_prints_both_sides(self):
        code, out, err = trend({
            # Given out of order: pr10 must come after pr9.
            "BENCH_pr10.json": {"kind": "perfbench-campaign", "workloads": {
                "w": campaign((90.0, 80.0), (44.5, 44.5), (14, 14))}},
            "BENCH_pr9.json": {"kind": "perfbench-campaign", "workloads": {
                "w": campaign((100.0, 90.0), (68.9, 44.5))}},
        })
        self.assertEqual(code, 0, err)
        lines = out.splitlines()
        self.assertEqual(lines[0], "w")
        self.assertEqual(lines[1].split(), ["metric", "pr9", "pr10"])
        cells = [c.strip() for c in row(out, "op_us_p50") if c.strip()]
        self.assertEqual(cells, ["100 -> 90", "90 -> 80"])
        cells = [c.strip() for c in row(out, "model_vus") if c.strip()]
        self.assertEqual(cells, ["68.9 -> 44.5", "44.5 -> 44.5"])
        # pr9 has no traced run: its cell is "-".
        cells = [c.strip() for c in
                 row(out, "cartcomm.schedule.rounds (trace1)") if c.strip()]
        self.assertEqual(cells, ["-", "14 -> 14"])

    def test_workloads_of_every_point_are_listed(self):
        code, out, err = trend({
            "BENCH_pr1.json": {"kind": "perfbench-campaign", "workloads": {
                "a": campaign((1.0, 2.0), (3.0, 3.0))}},
            "BENCH_pr2.json": {"kind": "perfbench-campaign", "workloads": {
                "b": campaign((4.0, 5.0), (6.0, 6.0))}},
        })
        self.assertEqual(code, 0, err)
        heads = [l for l in out.splitlines() if not l.startswith(" ")]
        self.assertEqual(heads, ["a", "b"])

    def test_rejects_other_dumps_and_unnumbered_names(self):
        code, _, err = trend({"BENCH_pr3.json": {"kind": "bench-transport",
                                                 "results": []}})
        self.assertEqual(code, 2)
        self.assertIn("not a perfbench-campaign dump", err)
        code, _, err = trend({"campaign.json": {
            "kind": "perfbench-campaign", "workloads": {}}})
        self.assertEqual(code, 2)
        self.assertIn("no change number", err)


if __name__ == "__main__":
    unittest.main()
