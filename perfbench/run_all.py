"""Run every workload, one process each, and print all of their metrics.

    python3 perfbench/run_all.py --seed 1 --seconds 10 [--trace 1] [--size tiny]

Each workload's table comes from its own ``run.py`` process; the exit code is
1 when any workload reports a failed command.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Run one workload; echo its report and return its result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--size", size],
        capture_output=True, text=True, timeout=900, check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    bad = 0
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, args.trace, args.size)
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}\n")
        bad += result["failed"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
