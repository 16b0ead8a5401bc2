#!/usr/bin/env python3
"""Build and run the end-to-end wiring-design benchmark.

    python3 perfbench/run.py --workload flat_route --seed 1 --seconds 30 \
        --trace 0

Configures perfbench/CMakeLists.txt (which builds the library from
../src) into $CARGO_TARGET_DIR, default .bench_build, builds the
youtiao_perfbench binary there and runs it with the given arguments.
Build output goes to stderr, so the benchmark's JSON result stays the
last line of stdout. Exits non-zero without a result when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def git_sha():
    """Short HEAD sha when ROOT is itself a git checkout, else 'unknown'."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True).stdout.strip()
        if Path(top).resolve() != ROOT:
            return "unknown"
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(build_dir):
    """Configure on first use, then build the benchmark incrementally."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "youtiao_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        built = build(build_dir)
    except OSError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(build_dir / "youtiao_perfbench"), *sys.argv[1:],
           "--work-dir", str(build_dir / "work"),
           "--expected", str(BENCH_DIR / "expected_digests.json"),
           "--git-sha", git_sha()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
