#!/usr/bin/env python3
"""Smoke test of the benchmark binary.

    python3 perfbench/tests/test_smoke.py [path/to/youtiao_perfbench]

Runs the 'smoke' workload (the Table-2 square chip plus a 2x2-tile
hierarchical chip) for one untraced and one traced pass and checks that
the result line carries every metric BENCHMARK.json names, with its
unit, and that every correctness check passed; then checks that the
outputs are identical at 1 and 4 threads. Registered with ctest by
perfbench/CMakeLists.txt.
"""

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BINARY = Path(sys.argv[1]) if len(sys.argv) > 1 else (
    ROOT / ".bench_build" / "youtiao_perfbench")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_smoke(trace, *extra):
    proc = subprocess.run(
        [str(BINARY), "--workload", "smoke", "--seed", "1", "--seconds",
         "0", "--trace", str(trace), "--work-dir",
         str(BINARY.parent / "smoke-work"), *extra],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_result(self, result, declared, nonzero):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if nonzero:
                self.assertNotEqual(got["value"], 0, m["name"])

    def test_untraced_run_prints_end_to_end_metrics(self):
        stdout, result = run_smoke(0)
        self.check_result(result, SPEC["end_to_end"], nonzero=True)
        self.assertIn('"digest_check"', stdout)

    def test_traced_run_reconciles_layers_to_wall_time(self):
        _, result = run_smoke(1)
        self.check_result(result, SPEC["per_layer"], nonzero=False)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self_times = sum(v for k, v in metrics.items()
                         if k.endswith("_s") and not k.startswith("bench.")
                         and k != "hier.route_cpu_s")
        self.assertAlmostEqual(
            self_times + metrics["bench.unattributed_s"],
            metrics["bench.traced_e2e_s"], places=9)
        # Both pipelines ran: flat routing and the tiled router.
        self.assertGreater(metrics["routing.route_s"], 0)
        self.assertGreater(metrics["hier.route_s"], 0)
        self.assertEqual(metrics["hier.tiles"], 4)

    def test_output_does_not_depend_on_thread_count(self):
        outputs = []
        for threads in ("1", "4"):
            stdout, result = run_smoke(0, "--threads", threads)
            digest = re.search(r'"design_digest": "([0-9a-f]+)"', stdout)
            chips = [line for line in stdout.splitlines()
                     if line.startswith("chip ")]
            quality = {k: result["metrics"][k]["value"]
                       for k in ("cost_usd", "interfaces", "fidelity")}
            # Drop the per-chip wall time; keep every quality figure.
            chips = [re.sub(r"wall [0-9.]+ s", "", c) for c in chips]
            outputs.append((digest.group(1), chips, quality))
        self.assertEqual(outputs[0], outputs[1])


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1])
