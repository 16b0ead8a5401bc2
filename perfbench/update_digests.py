#!/usr/bin/env python3
"""Regenerate perfbench/expected_digests.json.

    python3 perfbench/update_digests.py [--seeds N]

Runs one pass of every workload (and 'smoke') for seeds 0..N-1 and
records the design-artifact digest each prints. Run it only when a
change is meant to alter the designer's output, and say so in that
change. Also prints the quality metrics per seed, which shows how much
they vary across seeds.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] + ["smoke"]
    # Start from an empty table so stale digests cannot fail the runs.
    out_path = BENCH_DIR / "expected_digests.json"
    out_path.write_text("{}\n")
    table = {}
    failures = 0
    for name in names:
        table[name] = {}
        for seed in range(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds", "0", "--trace",
                 "0"], capture_output=True, text=True, check=True)
            digest = re.search(r'"design_digest": "([0-9a-f]+)"',
                               proc.stdout).group(1)
            result = json.loads(proc.stdout.splitlines()[-1])
            metrics = result["metrics"]
            table[name][str(seed)] = digest
            if not result["correct"]:
                failures += 1
                print(proc.stderr, file=sys.stderr)
            print(name, seed, digest, "correct" if result["correct"]
                  else "INCORRECT", *(f"{k}={metrics[k]['value']}"
                                      for k in ("cost_usd", "interfaces",
                                                "fidelity")))
    out_path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
