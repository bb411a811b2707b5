"""End-to-end smoke tests: the command line run as a child process, with
``sys.executable -m hypermon.cli``, so that exit codes and streams are the
real ones.  Each test is named after the workflow step it replaces and keeps
that step's corpus, seeds and assertions."""

import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import hypermon
from hypermon import template
from hypermon.engine import MonitorOptions, Session
from hypermon.formula import desugar
from hypermon.parser import parse_formula
from hypermon.semantics import Trace, eval_body, eval_quantified
from hypermon.traceio import load_trace, save_trace

SRC = str(Path(hypermon.__file__).parent.parent)


def hypermon_cli(*args, stdout=None, stderr=None, timeout=300, preexec_fn=None) -> int:
    """Run ``hypermon ARGS``; its standard output goes to the file ``stdout``
    and its standard error to the file ``stderr`` when given, and
    ``preexec_fn`` runs in the child before the command.  Returns the exit
    code."""
    with open(stdout, "w") if stdout else open(os.devnull, "w") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "hypermon.cli", *map(str, args)],
            env={**os.environ, "PYTHONPATH": SRC}, stdout=out,
            stderr=subprocess.PIPE, text=True, timeout=timeout, preexec_fn=preexec_fn,
        )
    if stderr:
        Path(stderr).write_text(proc.stderr)
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
    return proc.returncode


def reports(smoke, *names) -> list:
    """The JSON reports in the files ``names`` under ``smoke``, each less
    its wall time, so that equal runs give equal reports."""
    loaded = [json.load(open(smoke / name)) for name in names]
    for report in loaded:
        del report["stats"]["wall_time"]
    return loaded


XOR4 = ("(out0@p <-> out0@q) W (!(lhs0@p <-> lhs0@q) | !(lhs2@p <-> lhs2@q) | "
        "!(lhs3@p <-> lhs3@q) | !(rhs0@p <-> rhs0@q) | !(rhs1@p <-> rhs1@q) | "
        "!(rhs2@p <-> rhs2@q) | !(rhs3@p <-> rhs3@q))")


def test_transition_diagram_smoke_test(tmp_path, monkeypatch):
    """Transition-diagram smoke test."""
    smoke = tmp_path
    (smoke / "spec.hm").write_text(f"forall p. forall q. {XOR4}\n")
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


def cut(corpus):
    """Cut each trace of ``corpus`` to a seeded length in 0..12, empty
    traces included."""
    rng = random.Random(1)
    for path in sorted(corpus.glob("*.trace")):
        trace = load_trace(path)
        save_trace(Trace(trace.steps[:rng.randint(0, 12)], trace.name), path)


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
    cut(smoke / "corpus")
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


def test_console_script_smoke_test(tmp_path):
    """Console-script smoke test.  The workflow step keeps the install and
    one ``hypermon monitor`` run, to check the entry point."""
    smoke = tmp_path
    (smoke / "spec.hm").write_text(SPEC)
    assert hypermon_cli("gen", "--kind", "counter3", "--n", 200, "--length", 20,
                        "--seed", 1, *BIAS, "--out", smoke / "corpus") == 0
    code = hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus",
                        "--continue-after-violation", "--stats-format", "json",
                        stdout=smoke / "report.json")
    assert code == 1
    assert '"verdict": "violation"' in (smoke / "report.json").read_text()
    report = json.load(open(smoke / "report.json"))
    qf = parse_formula((smoke / "spec.hm").read_text())
    assignment = {
        var: load_trace(smoke / "corpus" / (name + ".trace"))
        for var, name in report["counterexample"].items()
    }
    assert len(assignment) == 2, report["counterexample"]
    assert not eval_body(assignment, qf.body), report["counterexample"]
    # the report reads the rejecting position once, after the run: it
    # must equal the one worked out from the two trace files alone
    auto = template.build_template(desugar(qf.body), qf.variables).automaton
    letters = list(template.joint_word(
        template.trace_masks(auto, var, trace) for var, trace in assignment.items()
    ))
    expected = template.rejecting_position(auto, letters)
    assert report["rejecting_position"] == expected, (report["rejecting_position"], expected)
    assert hypermon_cli("template", smoke / "spec.hm", "--dot", smoke / "monitor.dot") == 0
    dot = (smoke / "monitor.dot").read_text().splitlines()
    assert any(line.startswith("digraph monitor {") for line in dot), dot[:3]
    assert hypermon_cli("analyze", smoke / "spec.hm") == 0
    # two files of the same name in two directories
    (smoke / "d1").mkdir()
    (smoke / "d2").mkdir()
    shutil.copy(smoke / "corpus" / "t00000.trace", smoke / "d1")
    shutil.copy(smoke / "corpus" / "t00001.trace", smoke / "d2" / "t00000.trace")
    assert hypermon_cli("monitor", smoke / "spec.hm", smoke / "d1", smoke / "d2") == 2
    assert hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus",
                        "--state-limit", 0) == 2
    # an unwritable output path is bad usage, not a violation
    assert hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus",
                        "--continue-after-violation",
                        "--out", smoke / "missing" / "report.json") == 2
    assert hypermon_cli("gen", "--kind", "counter3", "--n", 2, "--length", 2, "--seed", 1,
                        "--bias", "incr=1.5", "--out", smoke / "biased") == 2


def test_deep_spec_smoke_test(tmp_path):
    """Deep-spec smoke test."""
    smoke = tmp_path
    traces = (smoke / "t1.trace", smoke / "t2.trace")
    for path in traces:
        path.write_text("a\n")
    bodies = {
        "parentheses": "(" * 150 + "a@p" + ")" * 150,
        "not": "!" * 1000 + "a@p",
        "globally": "G " * 300 + "a@p",
        "next": "X " * 900 + "a@p",
    }
    # each spec nests past the parser's depth limit: bad input, not a crash
    for name, body in bodies.items():
        (smoke / f"{name}.hm").write_text(f"forall p. {body}\n")
        code = hypermon_cli("monitor", smoke / f"{name}.hm", *traces,
                            "--no-spec-analysis", "--no-trace-analysis",
                            stderr=smoke / f"{name}.err")
        assert code == 2, name
        lines = (smoke / f"{name}.err").read_text().splitlines()
        assert len(lines) == 1 and re.match(r"error: .*levels deep", lines[0]), (name, lines)
    # a chain of 41 <-> is shallow, but its residuals double per operand:
    # the term cap must stop it within 1 GB of address space
    chain = " <-> ".join(f"a{k}@p" for k in range(41))
    (smoke / "chain.hm").write_text(f"forall p. {chain}\n")

    def limit_memory():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1_000_000 << 10, 1_000_000 << 10))

    code = hypermon_cli("monitor", smoke / "chain.hm", *traces,
                        "--no-spec-analysis", "--no-trace-analysis",
                        stderr=smoke / "chain.err", timeout=60, preexec_fn=limit_memory)
    assert code == 3
    lines = (smoke / "chain.err").read_text().splitlines()
    assert sum(line.startswith("resource limit: ") for line in lines) == 1, lines


def test_forall_exists_smoke_test(tmp_path):
    """Forall-exists smoke test."""
    smoke = tmp_path
    (smoke / "spec.hm").write_text(
        "forall p. exists q. (overflow@p <-> overflow@q) W !(decr@p <-> decr@q)\n")
    assert hypermon_cli("gen", "--kind", "counter3", "--n", 300, "--length", 12,
                        "--seed", 1, *BIAS, "--out", smoke / "corpus") == 0
    cut(smoke / "corpus")
    # provisional path: each fresh trace decides its own pairs, and
    # default options give the --no-trace-analysis report
    on = hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus",
                      "--stats-format", "json", stdout=smoke / "on.json")
    off = hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus", "--no-trace-analysis",
                       "--stats-format", "json", stdout=smoke / "off.json")
    assert on == off
    on, off = reports(smoke, "on.json", "off.json")
    # no tuple loop pairs traces here, so trace analysis does not run
    assert on == off, (on["stats"], off["stats"])
    assert on["provisional"] is True, on["provisional"]
    assert on["optimizations"]["trace_analysis"] is False, on["optimizations"]
    # every trace is its own witness, so the set is clean
    assert on["verdict"] == "clean", on["verdict"]
    assert on["stats"]["instances_run"] == 0, on["stats"]
    body = parse_formula((smoke / "spec.hm").read_text()).body
    corpus = [load_trace(path) for path in sorted((smoke / "corpus").glob("*.trace"))]
    for var, name in (on["counterexample"] or {}).items():
        trace = load_trace(smoke / "corpus" / (name + ".trace"))
        assert not any(eval_body({var: trace, "q": s}, body) for s in corpus), name


def test_default_options_xor4_smoke_test(tmp_path):
    """Default-options xor4 smoke test."""
    smoke = tmp_path
    (smoke / "spec.hm").write_text(f"forall p. forall q. {XOR4}\n")
    assert hypermon_cli("gen", "--kind", "xor4", "--n", 60, "--length", 5,
                        "--seed", 1, "--out", smoke / "corpus") == 0
    # trace analysis is the copy index: it runs no inclusion check, even
    # where instance automata would have 256 letters
    assert hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus",
                        "--stats-format", "json", stdout=smoke / "on.json") == 0
    assert hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus", "--no-trace-analysis",
                        "--stats-format", "json", stdout=smoke / "off.json") == 0
    on, off = (json.load(open(smoke / name)) for name in ("on.json", "off.json"))
    assert on["optimizations"]["trace_analysis"] is True, on["optimizations"]
    assert on["stats"]["inclusion_checks"] == 0, on["stats"]
    assert on["stats"]["instances_run"] == off["stats"]["instances_run"], (on["stats"], off["stats"])
    assert on["verdict"] == off["verdict"], (on["verdict"], off["verdict"])
    assert on["counterexample"] == off["counterexample"], (on["counterexample"], off["counterexample"])
    # the store never evicts: each drop names a trace that arrived
    # earlier, and corpus names follow arrival order
    for dropped, dominator in on["dropped_traces"]:
        assert dominator < dropped, (dropped, dominator)


def test_wide_alphabet_smoke_test(tmp_path):
    """Wide-alphabet smoke test."""
    smoke = tmp_path
    shifted = XOR4.replace("@q", "@r").replace("@p", "@q")
    (smoke / "spec.hm").write_text(f"forall p. forall q. forall r. ({XOR4}) & ({shifted})\n")
    assert hypermon_cli("gen", "--kind", "xor4", "--n", 30, "--length", 5,
                        "--seed", 1, "--out", smoke / "corpus") == 0
    # each instance alphabet has 16 atoms, past the explicit-alphabet
    # guard; the copy index builds no automaton, so trace analysis runs
    # and the exit code is still 0
    code = hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus",
                        "--stats-format", "json", stdout=smoke / "report.json")
    assert code == 0
    report = json.load(open(smoke / "report.json"))
    assert report["optimizations"]["trace_analysis"] is True, report["optimizations"]
    assert hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus",
                        "--no-trace-analysis") == 0


def test_mixed_prefix_smoke_test(tmp_path):
    """Mixed-prefix smoke test."""
    smoke = tmp_path
    pq = "(overflow@p <-> overflow@q) W !(decr@p <-> decr@q)"
    qr = pq.replace("@q", "@r").replace("@p", "@q")
    (smoke / "spec.hm").write_text(f"forall p. forall q. exists r. ({pq}) & ({qr})\n")
    assert hypermon_cli("gen", "--kind", "counter3", "--n", 40, "--length", 8,
                        "--seed", 1, "--out", smoke / "corpus") == 0
    corpus = [load_trace(path) for path in sorted((smoke / "corpus").glob("*.trace"))]

    def expected(spec):
        qf = parse_formula((smoke / spec).read_text())
        return "clean" if eval_quantified(corpus, qf) else "violation"

    # a mixed three-quantifier prefix: each fresh trace decides its own
    # tuples and the open rows, and trace analysis does not run
    on = hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus",
                      "--stats-format", "json", stdout=smoke / "on.json")
    off = hypermon_cli("monitor", smoke / "spec.hm", smoke / "corpus", "--no-trace-analysis",
                       "--stats-format", "json", stdout=smoke / "off.json")
    assert on == off
    on, off = reports(smoke, "on.json", "off.json")
    assert on == off, (on["stats"], off["stats"])
    assert on["provisional"] is True, on["provisional"]
    assert on["verdict"] == expected("spec.hm"), on["verdict"]
    # a body that does not split into conjuncts, so the mixed rows keep
    # their coverage once conjunct splitting runs
    (smoke / "or.hm").write_text(f"forall p. forall q. exists r. ({pq}) | ({qr})\n")
    code = hypermon_cli("monitor", smoke / "or.hm", smoke / "corpus",
                        "--stats-format", "json", stdout=smoke / "or.json")
    assert code <= 1
    report = json.load(open(smoke / "or.json"))
    assert report["provisional"] is True, report["provisional"]
    assert report["verdict"] == expected("or.hm"), report["verdict"]


def test_intake_smoke_test(tmp_path):
    """Intake smoke test."""
    smoke = tmp_path
    (smoke / "spec.hm").write_text(SPEC)
    assert hypermon_cli("gen", "--kind", "counter3", "--n", 200, "--length", 12,
                        "--seed", 3, *BIAS, "--out", smoke / "canonical") == 0
    # the same traces written non-canonically: comments, blank lines,
    # spaces after commas, a duplicated proposition and one outside the
    # spec on every non-empty step
    (smoke / "noisy").mkdir()
    for path in sorted((smoke / "canonical").glob("*.trace")):
        lines = ["# rewritten from " + path.name, ""]
        for line in path.read_text().splitlines():
            if line != "{}":
                props = line.split(",")
                line = ",  ".join(props + props[:1] + ["zz_extra"])
            lines += ["  " + line + "  # one step", ""]
        (smoke / "noisy" / path.name).write_text("\n".join(lines))
    for corpus in ("canonical", "noisy"):
        code = hypermon_cli("monitor", smoke / "spec.hm", smoke / corpus,
                            "--continue-after-violation", "--stats-format", "json",
                            stdout=smoke / f"{corpus}.json")
        assert code == 1, corpus
    # a bad line in a file in the middle of the corpus: exit 2, and the
    # message names the file and the line
    shutil.copytree(smoke / "noisy", smoke / "bad")
    bad = smoke / "bad" / "t00100.trace"
    lines = bad.read_text().split("\n")
    lines[4] = "overflow, 1bad"
    bad.write_text("\n".join(lines))
    code = hypermon_cli("monitor", smoke / "spec.hm", smoke / "bad",
                        "--continue-after-violation", stderr=smoke / "bad.err")
    assert code == 2
    # both corpora again, spelled with "./" and a trailing slash: the same
    # report, and the error spells the file as pathlib does
    code = hypermon_cli("monitor", smoke / "spec.hm", f"{smoke}/./canonical/",
                        "--continue-after-violation", "--stats-format", "json",
                        stdout=smoke / "dotted.json")
    assert code == 1
    code = hypermon_cli("monitor", smoke / "spec.hm", f"{smoke}/./bad/",
                        "--continue-after-violation", stderr=smoke / "dotted-bad.err")
    assert code == 2
    canonical, noisy, dotted = reports(smoke, "canonical.json", "noisy.json", "dotted.json")
    assert canonical == noisy, (canonical["stats"], noisy["stats"])
    assert canonical == dotted, (canonical["stats"], dotted["stats"])
    assert canonical["verdict"] == "violation", canonical["verdict"]
    expected = f"error: {bad}: line 5: invalid proposition '1bad'\n"
    for name in ("bad.err", "dotted-bad.err"):
        err = (smoke / name).read_text()
        assert err.endswith(expected), (name, err, expected)
    # the spec and every other noisy trace again, each behind a UTF-8
    # byte-order mark: the same report as the canonical run
    bom = b"\xef\xbb\xbf"
    (smoke / "spec-bom.hm").write_bytes(bom + (smoke / "spec.hm").read_bytes())
    shutil.copytree(smoke / "noisy", smoke / "bom")
    for path in sorted((smoke / "bom").glob("*.trace"))[::2]:
        path.write_bytes(bom + path.read_bytes())
    code = hypermon_cli("monitor", smoke / "spec-bom.hm", smoke / "bom",
                        "--continue-after-violation", "--stats-format", "json",
                        stdout=smoke / "bom.json")
    assert code == 1
    canonical, bom = reports(smoke, "canonical.json", "bom.json")
    assert canonical == bom, (canonical["stats"], bom["stats"])
