"""Tests of the liepair benchmark itself.

    python3 -m pytest perfbench -q

Run from the root of a checkout.  The known-answer and repeatability tests
run whole workload passes, so this file takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from worker import check_pass, grade, verify_pass  # noqa: E402
from workloads import WORKLOADS, setup  # noqa: E402

# verdicts decided at the commit that added the benchmark; lifting a gate
# such as COMPLEXIFY_DIM_CAP may only raise them
DECIDED_TODAY = {"fixtures": 29, "tempered-ladder": 6, "search-ladder": 3}
MACHINE_INDEPENDENT = (
    "linalg.rref.calls", "linalg.rref.cells", "linalg.exp_nilpotent.calls",
    "checks.words_tried", "polyhedral.enumerate_cones.cones",
    "polyhedral.enumerate_cones.rays", "weights.weight_decomposition.calls")


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == tracing.metric_units()


def test_tracer_rebinds_every_name_and_restores_it():
    from liepair import algebra, checks, linalg, polyhedral, weights

    importers = (algebra, checks, polyhedral, weights)
    original = linalg.rank
    assert all(m.rank is original for m in importers)
    with Tracer() as tr:
        wrapped = linalg.rank
        assert wrapped is not original
        assert all(m.rank is wrapped for m in importers)
        linalg.rank([[1, 0], [0, 1]])
    assert linalg.rank is original
    assert all(m.rank is original for m in importers)
    assert tr.counts["linalg.rank"]["calls"] == 1
    # rank calls rref through linalg's own binding: a child span
    rank_span = tr.names.index("linalg.rank")
    child = [i for i, p in enumerate(tr.parents) if p == 0]
    assert tr.name_ids[0] == rank_span and child
    assert tr.names[tr.name_ids[child[0]]] == "linalg.rref"


def traced_counts(workload, seed):
    tracer = Tracer()
    with tracer:
        jobs = setup(workload)
        texts, _, _ = check_pass(jobs, seed)
        verify_pass(texts)
    metrics = layer_metrics(tracer)
    return {k: metrics[k] for k in MACHINE_INDEPENDENT}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_machine_independent_counts_repeat(workload):
    first = traced_counts(workload, 0)
    assert first == traced_counts(workload, 0)
    assert first["linalg.rref.calls"] > 0


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reaches_known_answers(workload, seed):
    jobs = setup(workload)
    texts, _, errors = check_pass(jobs, seed)
    attempted, failed, decided, problems = grade(jobs, texts,
                                                 verify_pass(texts))
    assert not errors and not problems
    assert failed == 0 and attempted == sum(len(j.answers) for j, _ in jobs)
    assert decided >= DECIDED_TODAY[workload]


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fixtures",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
