"""Self-test of the benchmark harness at a tiny corpus size.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

import run
from workloads import FORALL_FORALL, ROOT, WORKLOADS, import_hypermon, write_inputs

import_hypermon()

from hypermon.semantics import eval_body  # noqa: E402

TINY_N = 40
TINY = {name: dataclasses.replace(w, n=TINY_N) for name, w in WORKLOADS.items()}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNIVERSAL = [name for name, w in WORKLOADS.items() if w.prefix == FORALL_FORALL]
CLEAN = [name for name, w in WORKLOADS.items() if not w.expect_violation]


@pytest.fixture(scope="module")
def outcomes():
    """{(workload, traced): (metrics, Runner)} for every tiny workload."""
    return {
        (name, traced): run.run(workload, seed=1, seconds=0, traced=traced)
        for name, workload in TINY.items()
        for traced in (False, True)
    }


def metric(outcomes, name, traced, key):
    return outcomes[name, traced][0][key][0]


def test_declared_workloads_are_the_ones_run():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("traced", (False, True))
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_workload_runs_and_passes_the_reference(outcomes, name, traced):
    metrics, runner = outcomes[name, traced]
    assert runner.attempted >= TINY_N and runner.failed == 0
    declared = DECLARED["per_layer" if traced else "end_to_end"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]][1] == m["unit"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_fit_in_the_traced_verdict(outcomes, name):
    total = sum(metric(outcomes, name, True, f"{layer}.s") for layer, _ in run.SPAN_LAYERS)
    assert 0 < total <= metric(outcomes, name, True, "trace.verdict_s")


def test_bypass_readings(outcomes):
    for name in ("xor4-tuples", "xor4-forall-exists"):
        assert metric(outcomes, name, True, "trace_analysis.dominates.calls") == 0
    for name in UNIVERSAL:
        assert metric(outcomes, name, True, "semantics.eval_quantified.calls") == 0
    for name in CLEAN:
        assert metric(outcomes, name, True, "template.rejecting_position.calls") == 0
    # and each bypassed layer is exercised somewhere
    assert metric(outcomes, "counter3-stream", True, "trace_analysis.dominates.calls") > 0
    assert metric(outcomes, "xor4-forall-exists", True, "semantics.eval_quantified.calls") > 0
    assert metric(outcomes, "counter3-stream", True, "template.rejecting_position.calls") > 0


def test_peak_rss_is_the_monitors_own():
    # the parent's peak must not leak into the child's figure
    ballast = b"\x01" * (64 << 20)
    metrics, _ = run.run(TINY["xor4-tuples"], seed=2, seconds=0, traced=False)
    assert len(ballast) and metrics["peak_rss_mb"][0] < 64


def _pairs(traces, body, accepted: bool):
    for (n1, t1), (n2, t2) in itertools.product(traces.items(), repeat=2):
        if eval_body({"p": t1, "q": t2}, body) == accepted:
            yield {"p": n1, "q": n2}


def test_planted_wrong_verdicts_are_counted(tmp_path):
    stream = TINY["counter3-stream"]
    _, _, traces = write_inputs(stream, 1, tmp_path)
    body = stream.formula().body
    real = next(_pairs(traces, body, accepted=False))
    forged = next(_pairs(traces, body, accepted=True))
    result = {
        "exit_code": 1,
        "latencies": [0.0] * TINY_N,
        "violations": [("t00001", real), ("t00002", forged)],
    }
    report = {"verdict": "violation", "counterexample": real}
    assert run.reference_failures(stream, traces, result, report) == 1
    # a forged report counterexample fails the whole run
    assert run.reference_failures(
        stream, traces, result, {**report, "counterexample": forged}
    ) == TINY_N
    # a clean workload must report no violation at all
    clean = TINY["xor4-tuples"]
    ok = {"exit_code": 0, "latencies": [0.0] * TINY_N, "violations": []}
    assert run.reference_failures(clean, traces, ok, {"verdict": "clean"}) == 0
    planted = {**ok, "violations": [("t00001", real)]}
    assert run.reference_failures(clean, traces, planted, {"verdict": "clean"}) == 1
    assert run.reference_failures(clean, traces, {**ok, "exit_code": 1},
                                  {"verdict": "clean"}) == TINY_N
    assert run.reference_failures(clean, traces, None, None) == TINY_N


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    begin = perf_counter()
    proc = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "xor4-tuples",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert perf_counter() - begin < 180
