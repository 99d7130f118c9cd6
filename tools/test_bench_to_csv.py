#!/usr/bin/env python3
"""Unit tests for tools/bench_to_csv.py column pass-through.

Feeds synthetic JSON dumps through the converter and asserts the CSV
columns — in particular that the dispersion columns (min/median/stddev)
and the fault counters survive the conversion, and that old dumps
without the new fields still convert with sane defaults.

Run directly (CI + ctest):  python3 tools/test_bench_to_csv.py
"""

import csv
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(TOOLS, "bench_to_csv.py")


def convert(doc):
    """Run bench_to_csv.py on a JSON document, return {csv_name: rows}."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "input.json")
        out = os.path.join(tmp, "out")
        with open(src, "w") as fh:
            json.dump(doc, fh)
        res = subprocess.run(
            [sys.executable, SCRIPT, src, out],
            capture_output=True, text=True)
        if res.returncode != 0:
            raise AssertionError(
                f"bench_to_csv failed: {res.stdout}{res.stderr}")
        tables = {}
        for name in os.listdir(out):
            with open(os.path.join(out, name), newline="") as fh:
                tables[name] = list(csv.reader(fh))
        return tables


class TransportConversion(unittest.TestCase):
    def test_dispersion_and_telemetry_columns_pass_through(self):
        doc = {
            "kind": "bench-transport",
            "telemetry": True,
            "results": [{
                "workload": "fanin", "p": 64, "messages": 1000,
                "bytes": 64000, "seconds": 0.5, "min": 0.5,
                "median": 0.52, "stddev": 0.01,
                "msgs_per_sec": 2000.0, "mb_per_sec": 0.128,
            }],
        }
        tables = convert(doc)
        header, row = tables["bench_transport.csv"][:2]
        self.assertEqual(
            header,
            ["workload", "p", "messages", "bytes", "seconds", "min",
             "median", "stddev", "msgs_per_sec", "mb_per_sec", "telemetry"])
        named = dict(zip(header, row))
        self.assertEqual(named["min"], "0.5")
        self.assertEqual(named["median"], "0.52")
        self.assertEqual(named["stddev"], "0.01")
        self.assertEqual(named["telemetry"], "1")

    def test_old_dump_without_dispersion_gets_defaults(self):
        doc = {
            "kind": "bench-transport",
            "results": [{
                "workload": "pingpong", "p": 16, "messages": 10,
                "bytes": 640, "seconds": 0.25,
                "msgs_per_sec": 40.0, "mb_per_sec": 0.00256,
            }],
        }
        tables = convert(doc)
        header, row = tables["bench_transport.csv"][:2]
        named = dict(zip(header, row))
        self.assertEqual(named["min"], "0.25")
        self.assertEqual(named["median"], "0.25")
        self.assertEqual(named["stddev"], "0.0")
        self.assertEqual(named["telemetry"], "0")


class ScheduleConversion(unittest.TestCase):
    def test_dispersion_columns_pass_through(self):
        doc = {
            "kind": "bench-schedule",
            "bench": "fig3",
            "results": [{
                "bench": "fig3", "d": 2, "n": 1, "m": 64,
                "variant": "combining", "seconds": 1.5e-3,
                "min": 1.4e-3, "median": 1.6e-3, "stddev": 5e-5,
            }],
        }
        tables = convert(doc)
        header, row = tables["bench_schedule.csv"][:2]
        self.assertEqual(
            header,
            ["bench", "d", "n", "m", "variant", "seconds", "min", "median",
             "stddev"])
        named = dict(zip(header, row))
        self.assertEqual(float(named["min"]), 1.4e-3)
        self.assertEqual(float(named["median"]), 1.6e-3)
        self.assertEqual(float(named["stddev"]), 5e-5)


class AblateReduceTextConversion(unittest.TestCase):
    def test_rows_parsed_with_variant_column(self):
        text = (
            "Ablation: Cart_neighbor_reduce trivial vs combining "
            "(Hydra/OmniPath model, virtual clocks)\n\n"
            "d=2 n=3 (t=   9) m=  10 | trivial    0.0081 ms | "
            "combining    0.0058 ms ( 1.39x) | automatic    0.0058 ms\n")
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "bench_output.txt")
            out = os.path.join(tmp, "out")
            with open(src, "w") as fh:
                fh.write(text)
            res = subprocess.run(
                [sys.executable, SCRIPT, src, out],
                capture_output=True, text=True)
            self.assertEqual(res.returncode, 0, res.stdout + res.stderr)
            with open(os.path.join(out, "ablate_reduce.csv"),
                      newline="") as fh:
                rows = list(csv.reader(fh))
        self.assertEqual(rows[0], ["d", "n", "t", "m", "variant", "ms"])
        self.assertEqual(rows[1], ["2", "3", "9", "10", "trivial", "0.0081"])
        self.assertEqual(
            [r[4] for r in rows[1:]], ["trivial", "combining", "automatic"])


class MetricsConversion(unittest.TestCase):
    def test_fault_counters_pass_through(self):
        counters = {
            "msgs_sent": 7, "bytes_sent": 448, "msgs_recv": 7,
            "bytes_recv": 448, "fault_retries": 3, "fault_delays": 2,
            "fault_backoff_v": 0.25, "fault_delay_v": 0.5,
            "fault_straggler_v": 0.0, "staged_bytes": 192,
        }
        doc = {
            "kind": "mpl-metrics",
            "ranks": [{
                "rank": 0,
                "dropped_events": 0,
                "totals": counters,
                "per_comm": [{"ctx": 0, "counters": counters}],
                "per_phase": [],
                "msg_size_hist": [{"le_bytes": 64, "count": 7}],
            }],
        }
        tables = convert(doc)
        header, row = tables["metrics.csv"][:2]
        named = dict(zip(header, row))
        self.assertEqual(named["fault_retries"], "3")
        self.assertEqual(named["fault_delays"], "2")
        self.assertEqual(float(named["fault_backoff_v"]), 0.25)
        self.assertEqual(named["staged_bytes"], "192")
        per_comm_header, per_comm_row = tables["metrics_per_comm.csv"][:2]
        named_pc = dict(zip(per_comm_header, per_comm_row))
        self.assertEqual(named_pc["fault_retries"], "3")
        self.assertEqual(named_pc["staged_bytes"], "192")


if __name__ == "__main__":
    unittest.main(verbosity=2)
