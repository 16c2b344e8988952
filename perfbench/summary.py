"""Run every workload of the liepair benchmark and print its metrics.

    python3 perfbench/summary.py --seed 0 --seconds 35 [--trace 1]

Run from the root of a checkout.  Each workload runs through `run.py` in
its own process.  For each one the script prints every metric by name with
its value and unit, then the questions attempted and failed.  It exits
with 1 if any workload's outputs were wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    all_correct = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{workload}: run.py exited with {proc.returncode}")
            all_correct = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"== {workload} (seed {args.seed})")
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
        print(f"  attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
