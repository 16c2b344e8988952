"""Benchmark of liepair: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fixtures --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  Every measurement happens in a child process (`worker.py`) whose
environment pins the BLAS thread pools to one thread, so the workload's
peak memory is its own and numpy's eigenvalue hints run single-threaded.

--trace 0 prints the end-to-end metrics: the median `setup_s` of several
fresh processes, and the medians over the passes of one process of
`wall_s`, `verify_s` and `slowest_job_s`, with `decided` and `peak_rss_mb`.
--trace 1 prints the per-layer metrics of one traced pass instead.  The
last line of standard output is the result object; problems go to stderr.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROCESSES = 3  # fresh processes whose set-up time gives setup_s
DEADLINE_S = 170  # a run, all of its child processes included, ends by then
UNITS = {"setup_s": "s", "wall_s": "s", "verify_s": "s", "slowest_job_s": "s",
         "decided": "count", "peak_rss_mb": "MB"}
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def run_worker(src, args, budget, deadline):
    """Run one worker process to completion, killing it at `deadline` (a
    `time.monotonic()` value); returns its result object."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--budget", str(budget)]
    proc = subprocess.run(cmd, env=child_env(src), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = Path.cwd() / "src"
    if not (src / "liepair" / "__init__.py").is_file():
        print(f"error: no liepair sources under {src}; run from the root of "
              "a liepair checkout", file=sys.stderr)
        return 2
    # compile once up front, so no timed import pays for bytecode compilation
    if not compileall.compile_dir(src / "liepair", quiet=1):
        print("error: liepair sources do not compile", file=sys.stderr)
        return 2

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        res = run_worker(src, base + ["--mode", "trace"], 0, deadline)
        units = metric_units()
    else:
        setups = [run_worker(src, base + ["--mode", "setup"], 0,
                             deadline)["setup_s"]
                  for _ in range(SETUP_PROCESSES - 1)]
        res = run_worker(src, base + ["--mode", "measure"], args.seconds,
                         deadline)
        res["metrics"]["setup_s"] = statistics.median(setups + [res["setup_s"]])
        print(f"{args.workload} passes: {json.dumps(res['passes'])}",
              file=sys.stderr)
        units = UNITS
    metrics = {k: {"value": res["metrics"][k], "unit": u}
               for k, u in units.items()}
    print(json.dumps({"correct": res["problems"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
