"""End-to-end smoke tests: the command line run as a child process, with
``sys.executable -m hypermon.cli``, so that exit codes and streams are the
real ones.  Each test is named after the workflow step it replaces and keeps
that step's corpus, seeds and assertions."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import hypermon
from hypermon import template
from hypermon.engine import MonitorOptions, Session
from hypermon.parser import parse_formula
from hypermon.semantics import Trace, eval_body
from hypermon.traceio import load_trace, save_trace

SRC = str(Path(hypermon.__file__).parent.parent)


def hypermon_cli(*args, stdout=None) -> int:
    """Run ``hypermon ARGS``; its standard output goes to the file ``stdout``
    when given.  Returns the exit code."""
    with open(stdout, "w") if stdout else open(os.devnull, "w") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "hypermon.cli", *map(str, args)],
            env={**os.environ, "PYTHONPATH": SRC}, stdout=out,
            stderr=subprocess.PIPE, text=True, timeout=300,
        )
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
    return proc.returncode


def test_transition_diagram_smoke_test(tmp_path, monkeypatch):
    """Transition-diagram smoke test."""
    smoke = tmp_path
    body = ("(out0@p <-> out0@q) W (!(lhs0@p <-> lhs0@q) | !(lhs2@p <-> lhs2@q) | "
            "!(lhs3@p <-> lhs3@q) | !(rhs0@p <-> rhs0@q) | !(rhs1@p <-> rhs1@q) | "
            "!(rhs2@p <-> rhs2@q) | !(rhs3@p <-> rhs3@q))")
    (smoke / "spec.hm").write_text(f"forall p. forall q. {body}\n")
    assert hypermon_cli("gen", "--kind", "xor4", "--n", 400, "--length", 5,
                        "--seed", 1, "--out", smoke / "corpus") == 0
    code = hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus",
                        "--no-trace-analysis", "--stats-format", "json",
                        stdout=smoke / "report.json")
    assert code == 0
    report = json.load(open(smoke / "report.json"))
    assert report["verdict"] == "clean", report["verdict"]
    assert report["stats"]["instances_run"] == 79800, report["stats"]
    # the same corpus in process: progression runs once per distinct
    # pending residual of a transition diagram, not once per read path
    qf = parse_formula((smoke / "spec.hm").read_text())
    session = Session(qf, MonitorOptions(trace_analysis=False))
    calls = []
    canonical_state = template.canonical_state
    monkeypatch.setattr(template, "canonical_state",
                        lambda f: calls.append(f) or canonical_state(f))
    steps = []
    step = template.TemplateAutomaton.step
    monkeypatch.setattr(template.TemplateAutomaton, "step",
                        lambda *args: steps.append(1) or step(*args))
    for path in sorted((smoke / "corpus").glob("*.trace")):
        assert not session.process_trace(load_trace(path)).is_violation, path
    assert 0 < len(calls) <= 10, len(calls)
    # the trie walks step only the children their live sets leave
    # open: about 700 steps, where stepping every child makes 35,871
    assert len(steps) < 2000, len(steps)


def test_three_quantifier_symmetry_smoke_test(tmp_path):
    """Three-quantifier symmetry smoke test."""
    smoke = tmp_path
    pq = "(overflow@p <-> overflow@q) W !(decr@p <-> decr@q)"
    qr = pq.replace("@q", "@r").replace("@p", "@q")
    pr = pq.replace("@q", "@r")
    (smoke / "spec.hm").write_text(f"forall p. forall q. forall r. ({pq}) & ({qr}) & ({pr})\n")
    assert hypermon_cli("gen", "--kind", "counter3", "--n", 60, "--length", 8, "--seed", 1,
                        "--bias", "incr=0.85", "--bias", "decr=0.05",
                        "--out", smoke / "corpus") == 0
    # symmetry holds at three quantifiers: one tuple per permutation class
    on = hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus",
                      "--stats-format", "json", stdout=smoke / "on.json")
    off = hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus", "--no-spec-analysis",
                       "--stats-format", "json", stdout=smoke / "off.json")
    assert on == off
    on, off = (json.load(open(smoke / name)) for name in ("on.json", "off.json"))
    assert on["verdict"] == off["verdict"] == "violation", (on["verdict"], off["verdict"])
    assert on["optimizations"]["symmetric"] is True, on["optimizations"]
    assert on["stats"]["instances_run"] < off["stats"]["instances_run"], (on["stats"], off["stats"])
    body = parse_formula((smoke / "spec.hm").read_text()).body
    assignment = {
        var: load_trace(smoke / "corpus" / (name + ".trace"))
        for var, name in on["counterexample"].items()
    }
    assert len(assignment) == 3, on["counterexample"]
    assert not eval_body(assignment, body), on["counterexample"]


SPEC = "forall p. forall q. (overflow@p <-> overflow@q) W !(decr@p <-> decr@q)\n"
BIAS = ("--bias", "incr=0.85", "--bias", "decr=0.05")


def test_drop_heavy_smoke_test(tmp_path):
    """Drop-heavy smoke test."""
    smoke = tmp_path
    (smoke / "spec.hm").write_text(SPEC)
    assert hypermon_cli("gen", "--kind", "counter3", "--n", 300, "--length", 8,
                        "--seed", 1, "--out", smoke / "corpus") == 0
    assert hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus",
                        "--continue-after-violation", "--stats-format", "json",
                        stdout=smoke / "report.json") == 0
    report = json.load(open(smoke / "report.json"))
    assert report["verdict"] == "clean" and report["dropped_traces"], report["verdict"]
    # trace analysis is the copy index alone: every drop is a copy hit
    assert report["trace_analysis"] == {"copy_hits": len(report["dropped_traces"])}, \
        report["trace_analysis"]


def test_repeated_violator_smoke_test(tmp_path):
    """Repeated-violator smoke test."""
    smoke = tmp_path
    (smoke / "spec.hm").write_text(SPEC)
    assert hypermon_cli("gen", "--kind", "counter3", "--n", 600, "--length", 20,
                        "--seed", 3, *BIAS, "--out", smoke / "corpus") == 0
    # a renamed copy of every trace, read after the corpus
    (smoke / "copies").mkdir()
    for path in sorted((smoke / "corpus").glob("t*.trace")):
        (smoke / "copies" / ("c" + path.name[1:])).write_bytes(path.read_bytes())
    for run, dirs in (("once", ["corpus"]), ("twice", ["corpus", "copies"])):
        code = hypermon_cli("monitor", smoke / "spec.hm", *(smoke / d for d in dirs),
                            "--continue-after-violation", "--stats-format", "json",
                            stdout=smoke / f"{run}.json")
        assert code == 1, run
    once, twice = (json.load(open(smoke / name)) for name in ("once.json", "twice.json"))
    # the report names the last violator: the copy of the corpus's last
    # one, with its original's partner and rejecting position
    ce = once["counterexample"]
    assert twice["counterexample"] == {**ce, "q": "c" + ce["q"][1:]}, twice["counterexample"]
    assert twice["rejecting_position"] == once["rejecting_position"]
    # the copies store nothing
    assert twice["stats"]["traces_stored"] == once["stats"]["traces_stored"]
    assert twice["stats"]["instances_run"] > once["stats"]["instances_run"]
    # a copy of a clean trace is dropped for that trace's own partner
    kept = dict(once["dropped_traces"])
    copies = twice["dropped_traces"][len(kept):]
    assert twice["dropped_traces"][:len(kept)] == once["dropped_traces"]
    assert len(copies) == once["stats"]["traces_stored"] + len(kept), len(copies)
    for copy, partner in copies:
        original = "t" + copy[1:]
        assert partner == kept.get(original, original), (copy, partner)


def test_cut_length_smoke_test(tmp_path):
    """Cut-length smoke test."""
    smoke = tmp_path
    (smoke / "spec.hm").write_text(SPEC)
    assert hypermon_cli("gen", "--kind", "counter3", "--n", 300, "--length", 12,
                        "--seed", 1, *BIAS, "--out", smoke / "corpus") == 0
    # cut each trace to a seeded length in 0..12, empty traces included
    rng = random.Random(1)
    for path in sorted((smoke / "corpus").glob("*.trace")):
        trace = load_trace(path)
        save_trace(Trace(trace.steps[:rng.randint(0, 12)], trace.name), path)
    on = hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus",
                      "--continue-after-violation", "--stats-format", "json",
                      stdout=smoke / "on.json")
    off = hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus",
                       "--continue-after-violation", "--no-trace-analysis",
                       "--no-spec-analysis", "--stats-format", "json",
                       stdout=smoke / "off.json")
    assert on == off
    on, off = (json.load(open(smoke / name)) for name in ("on.json", "off.json"))
    assert on["verdict"] == off["verdict"] == "violation", (on["verdict"], off["verdict"])
    body = parse_formula((smoke / "spec.hm").read_text()).body
    for report in (on, off):
        assignment = {
            var: load_trace(smoke / "corpus" / (name + ".trace"))
            for var, name in report["counterexample"].items()
        }
        assert len(assignment) == 2, report["counterexample"]
        assert not eval_body(assignment, body), report["counterexample"]
    assert on["stats"]["instances_run"] <= off["stats"]["instances_run"], (on["stats"], off["stats"])
    # the store never evicts: each drop names a trace that arrived
    # earlier, and corpus names follow arrival order
    assert on["dropped_traces"], on["stats"]
    assert set(on["trace_analysis"]) == {"copy_hits"}, on["trace_analysis"]
    for dropped, dominator in on["dropped_traces"]:
        assert dominator < dropped, (dropped, dominator)
