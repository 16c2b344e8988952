"""One measured process of the liepair benchmark.

Started by `run.py` with `src` on PYTHONPATH and the BLAS thread variables
set to 1.  It imports liepair and builds the workload's pairs, then acts by
`--mode`: `setup` stops there, `measure` runs passes of the workload until
the time budget is spent, and `trace` runs the traced pass.  A pass calls,
for every job, the library entry points that `liepair check --format
machine` calls, then re-checks each report from its machine text as
`liepair verify` does.  The last line of standard output is a JSON object
for `run.py`.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

_T_START = time.perf_counter()

from liepair import report  # noqa: E402  (the import is part of set-up)
from liepair.checks import derive_seed  # noqa: E402

from workloads import setup  # noqa: E402

DECIDED = ("yes_certified", "no_certified")


def check_pass(jobs, seed):
    """Run every job once, as `liepair check --format machine` does.
    Returns (machine texts, job seconds, errors); a job that raises leaves
    None in place of its text."""
    texts, times, errors = [], [], []
    for job, pair in jobs:
        t0 = time.perf_counter()
        try:
            rep = report.report_for_pair(pair, job.questions, seed=seed,
                                         strict=False)
            texts.append(report.render_machine(rep))
        except Exception as e:  # a failed job is counted, not fatal
            texts.append(None)
            errors.append(f"{job.spec}: {type(e).__name__}: {e}")
        times.append(time.perf_counter() - t0)
    return texts, times, errors


def verify_pass(texts):
    """Re-check every report from its machine text, as `liepair verify`
    does.  Returns one {question: ok} dict per text (None for a job that
    failed to run)."""
    out = []
    for text in texts:
        if text is None:
            out.append(None)
            continue
        try:
            out.append({q: ok for q, ok, _ in
                        report.verify_report(json.loads(text))})
        except Exception as e:  # a verifier crash fails the job's questions
            out.append({"error": f"{type(e).__name__}: {e}"})
    return out


def grade(jobs, texts, verified):
    """Compare every verdict with its known answer.  Returns (attempted,
    failed, decided, problems), counted per question."""
    attempted = failed = decided = 0
    problems = []
    for (job, _), text, checks in zip(jobs, texts, verified):
        verdicts = {}
        if text is not None:
            verdicts = {v["question"]: v for v in json.loads(text)["verdicts"]}
        for ans in job.answers:
            attempted += 1
            why = _wrong(ans, verdicts.get(ans.question), checks)
            if why:
                failed += 1
                problems.append(f"{job.spec} [{ans.question}]: {why}")
            elif verdicts[ans.question]["outcome"] in DECIDED:
                decided += 1
    return attempted, failed, decided, problems


def _wrong(ans, verdict, checks):
    if verdict is None:
        return "no verdict (the job raised)"
    if checks is None or "error" in checks:
        return f"verify crashed: {checks and checks['error']}"
    outcome = verdict["outcome"]
    if outcome not in ans.outcomes | ans.misses:
        return f"outcome {outcome} not in {sorted(ans.outcomes | ans.misses)}"
    ok = checks.get(ans.question)
    if ok is False or (ok is None and outcome in DECIDED):
        return f"certificate does not verify ({ok})"
    if outcome not in ans.outcomes:
        return None  # a sampling miss: allowed, and not decided
    cert = verdict.get("certificate") or {}
    if ans.margin is not None and outcome == "yes_certified" \
            and cert.get("margin") != str(ans.margin):
        return f"margin {cert.get('margin')} != {ans.margin}"
    if ans.dimension is not None and cert.get("dimension") != ans.dimension:
        return f"dimension {cert.get('dimension')} != {ans.dimension}"
    return None


def pass_seed(seed, index):
    """Seed of the `index`-th pass of a run.  Pass 0 uses the run's seed, so
    it computes what `liepair check --seed <seed>` computes; later passes
    sample other words, so a run averages over several seeds."""
    return seed if index == 0 else derive_seed(seed, f"perfbench-pass-{index}")


def measure(jobs, seed, budget):
    """Passes until the next one would overrun `budget` seconds (at least
    one), pass i at `pass_seed(seed, i)`.  Returns the per-pass samples of
    each time metric, the questions attempted and failed over all passes,
    the questions decided in each pass, and the problems found."""
    samples = {"wall_s": [], "verify_s": [], "slowest_job_s": []}
    attempted = failed = 0
    decided = []
    problems = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        texts, times, errors = check_pass(jobs, pass_seed(seed, len(decided)))
        t1 = time.perf_counter()
        verified = verify_pass(texts)
        t2 = time.perf_counter()
        samples["wall_s"].append(t1 - t0)
        samples["verify_s"].append(t2 - t1)
        samples["slowest_job_s"].append(max(times))
        a, f, d, why = grade(jobs, texts, verified)
        attempted, failed = attempted + a, failed + f
        decided.append(d)
        problems += errors + why
        if t2 - start + (t2 - t0) > budget:
            return samples, attempted, failed, decided, problems


def traced(workload, seed):
    """The per-layer run: set-up, one check pass and one verify pass under
    the tracer, between two untraced check passes that give the tracing
    overhead and must produce byte-identical machine reports."""
    from tracing import Tracer, layer_metrics, self_time_table

    def timed_pass():
        t0 = time.perf_counter()
        texts, _, errors = check_pass(jobs, seed)
        return texts, errors, time.perf_counter() - t0

    tracer = Tracer()
    with tracer:
        jobs = setup(workload)
    before, _, plain_s = timed_pass()
    with tracer:
        texts, errors, traced_s = timed_pass()
        verified = verify_pass(texts)
    after, _, plain2_s = timed_pass()
    attempted, failed, _, problems = grade(jobs, texts, verified)
    problems = errors + problems
    if not texts == before == after:
        problems.append("traced machine reports differ from untraced ones")
    print("\n".join(self_time_table(tracer)), file=sys.stderr)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = traced_s - (plain_s + plain2_s) / 2
    return metrics, attempted, failed, problems


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    args = ap.parse_args(argv)

    if args.mode == "trace":
        metrics, attempted, failed, problems = traced(args.workload, args.seed)
        out = {"metrics": metrics}
    else:
        jobs = setup(args.workload)
        out = {"setup_s": time.perf_counter() - _T_START}
        if args.mode == "setup":
            print(json.dumps(out))
            return 0
        samples, attempted, failed, decided, problems = measure(
            jobs, args.seed, args.budget)
        out["passes"] = samples
        out["metrics"] = {k: statistics.median(v) for k, v in samples.items()}
        out["metrics"]["decided"] = statistics.mean(decided)
        out["metrics"]["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    out.update(attempted=attempted, failed=failed, problems=len(problems))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
