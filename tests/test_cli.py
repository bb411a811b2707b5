import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hypermon
from hypermon.cli import SessionReport, main
from hypermon.parser import MAX_DEPTH
from hypermon.semantics import Trace
from hypermon.traceio import load_trace, save_trace


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def spec_file(tmp_path, text, name="spec.hm"):
    return write(tmp_path / name, text)


EQ = "forall p. forall q. G (a@p <-> a@q)\n"
OBSDET = "forall p. forall q. (o@p <-> o@q) W !(i@p <-> i@q)\n"
XOR4_BODY = (
    "(out0@p <-> out0@q) W (!(lhs0@p <-> lhs0@q) | !(lhs2@p <-> lhs2@q) | "
    "!(lhs3@p <-> lhs3@q) | !(rhs0@p <-> rhs0@q) | !(rhs1@p <-> rhs1@q) | "
    "!(rhs2@p <-> rhs2@q) | !(rhs3@p <-> rhs3@q))"
)
XOR4_THREE_QUANTIFIERS = (
    f"forall p. forall q. forall r. ({XOR4_BODY}) & "
    f"({XOR4_BODY.replace('@q', '@r').replace('@p', '@q')})\n"
)

COUNTER3_BODY = "(overflow@p <-> overflow@q) W !(decr@p <-> decr@q)"
COUNTER3 = f"forall p. forall q. {COUNTER3_BODY}\n"
COUNTER3_THREE_QUANTIFIERS = (
    f"forall p. forall q. forall r. ({COUNTER3_BODY}) & "
    f"({COUNTER3_BODY.replace('@q', '@r').replace('@p', '@q')}) & "
    f"({COUNTER3_BODY.replace('@q', '@r')})\n"
)
GOLDEN = Path(__file__).parent / "golden"
# a body nested n levels deep, per construct that nests
DEEP = {
    "parentheses": lambda n: "(" * n + "a@p" + ")" * n,
    "not": lambda n: "!" * n + "a@p",
    "next": lambda n: "X " * n + "a@p",
    "globally": lambda n: "G " * n + "a@p",
    "weak-until": lambda n: " W ".join(["a@p"] * (n + 1)),
}


def assert_write_error(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert path in err and "Traceback" not in err


class TestMonitor:
    def test_violation_exit_and_names(self, tmp_path, capsys):
        spec = spec_file(tmp_path, EQ)
        t1 = write(tmp_path / "t1.trace", "a\n")
        t2 = write(tmp_path / "t2.trace", "{}\n")
        code = main(["monitor", spec, t1, t2])
        out = capsys.readouterr().out
        assert code == 1
        assert "violation" in out
        assert "t1" in out and "t2" in out

    def test_clean_single_trace_zero_instances(self, tmp_path, capsys):
        spec = spec_file(tmp_path, OBSDET)
        t1 = write(tmp_path / "t1.trace", "i,o\no\n")
        code = main(["monitor", spec, t1])
        out = capsys.readouterr().out
        assert code == 0
        assert "instances_run: 0" in out

    def test_directory_input_lexicographic(self, tmp_path, capsys):
        spec = spec_file(tmp_path, EQ)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write(corpus / "b.trace", "{}\n")
        write(corpus / "a.trace", "a\n")
        code = main(["monitor", spec, str(corpus)])
        out = capsys.readouterr().out
        assert code == 1
        assert "a -> " in out or '"a"' in out or "a" in out

    def test_json_report_roundtrips(self, tmp_path, capsys):
        spec = spec_file(tmp_path, EQ)
        t1 = write(tmp_path / "t1.trace", "a\n")
        code = main(["monitor", spec, t1, "--stats-format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        report = SessionReport.from_json(out)
        assert report.verdict == "clean"
        assert report.to_json() == out.rstrip("\n")

    def test_trace_analysis_counts_reported(self, tmp_path, capsys):
        # t2 copies t1 (copy index); t3 passes its tuples and is no copy, so
        # it is checked against t1, and with no word kept yet the check is
        # refuted by a search; t4 violates and makes no check
        spec = spec_file(tmp_path, OBSDET)
        paths = [
            write(tmp_path / f"t{i}.trace", text)
            for i, text in enumerate(("i,o\n", "i,o\n", "{}\n", "i\n"), start=1)
        ]
        args = ["monitor", spec, *paths, "--continue-after-violation"]
        assert main([*args, "--stats-format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "formula", "verdict", "provisional", "counterexample",
            "rejecting_position", "stats", "optimizations", "trace_analysis",
            "dropped_traces",
        }
        assert report["trace_analysis"] == {"copy_hits": 1, "witness_refutations": 0}
        assert report["stats"]["inclusion_checks"] == 1
        assert report["dropped_traces"] == [["t2", "t1"]]
        assert report["counterexample"] == {"p": "t1", "q": "t4"}
        assert main(args) == 1
        text = capsys.readouterr().out
        for line in ("copy_hits: 1", "witness_refutations: 0"):
            assert line + "\n" in text
        assert "memo_hits" not in text and "probe_refutations" not in text
        assert main([*args, "--no-trace-analysis", "--stats-format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert set(report["trace_analysis"].values()) == {0}

    def test_out_file(self, tmp_path, capsys):
        spec = spec_file(tmp_path, EQ)
        t1 = write(tmp_path / "t1.trace", "a\n")
        target = tmp_path / "report.json"
        code = main(
            ["monitor", spec, t1, "--stats-format", "json", "--out", str(target)]
        )
        assert code == 0
        assert json.loads(target.read_text())["verdict"] == "clean"

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, monkeypatch, target):
        spec = spec_file(tmp_path, EQ)
        t1 = write(tmp_path / "t1.trace", "a\n")
        out = str(tmp_path / target)
        from hypermon import cli

        read = []
        monkeypatch.setattr(cli, "load_trace", read.append)
        assert main(["monitor", spec, t1, "--out", out]) == 2
        assert_write_error(capsys, out)
        assert read == []  # the path was checked before any trace was read

    def test_flags_disable_optimizations(self, tmp_path, capsys):
        spec = spec_file(tmp_path, OBSDET)
        t1 = write(tmp_path / "t1.trace", "i,o\n")
        t2 = write(tmp_path / "t2.trace", "i\no\n")
        code = main(
            [
                "monitor", spec, t1, t2,
                "--no-spec-analysis", "--no-trace-analysis",
                "--stats-format", "json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert not report["optimizations"]["spec_analysis"]
        assert not report["optimizations"]["trace_analysis"]
        assert code in (0, 1)

    def test_parse_error_exit_2(self, tmp_path, capsys):
        spec = spec_file(tmp_path, "forall p. a@\n")
        t1 = write(tmp_path / "t1.trace", "a\n")
        assert main(["monitor", spec, t1]) == 2

    @pytest.mark.parametrize("construct", DEEP)
    def test_depth_limit(self, tmp_path, capsys, construct):
        traces = [write(tmp_path / f"t{i}.trace", "a\n") for i in (1, 2)]
        off = ["--no-spec-analysis", "--no-trace-analysis"]
        # at the limit every pass stays inside the recursion limit
        spec = spec_file(tmp_path, f"forall p. {DEEP[construct](MAX_DEPTH)}\n")
        assert main(["monitor", spec, *traces, *off]) in (0, 1)
        assert capsys.readouterr().err == ""
        # one level deeper is bad input: one error line, no traceback
        spec = spec_file(tmp_path, f"forall p. {DEEP[construct](MAX_DEPTH + 1)}\n")
        assert main(["monitor", spec, *traces, *off]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"nested {MAX_DEPTH + 1} levels deep; the limit is {MAX_DEPTH}" in err

    def test_bad_trace_exit_2(self, tmp_path, capsys):
        spec = spec_file(tmp_path, EQ)
        t1 = write(tmp_path / "t1.trace", "a,,b\n")
        assert main(["monitor", spec, t1]) == 2

    def test_bad_trace_in_directory_named(self, tmp_path, capsys):
        spec = spec_file(tmp_path, EQ)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write(corpus / "ok.trace", "a\n")
        write(corpus / "bad.trace", "a,,b\n")
        assert main(["monitor", spec, str(corpus)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {corpus / 'bad.trace'}: line 1: invalid proposition ''\n"

    def test_non_utf8_trace_exit_2(self, tmp_path, capsys):
        spec = spec_file(tmp_path, EQ)
        t1 = tmp_path / "t1.trace"
        t1.write_bytes(b"\xff\xfe\n")
        assert main(["monitor", spec, str(t1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "t1.trace" in err

    def test_non_utf8_spec_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.hm"
        spec.write_bytes(b"\xff\xfe\n")
        t1 = write(tmp_path / "t1.trace", "a\n")
        assert main(["monitor", str(spec), t1]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "spec.hm" in err

    def test_byte_order_marks_give_the_same_report(self, tmp_path, capsys):
        traces = {"t1": "a\n", "t2": "{}\na\n", "t3": "a\n{}\n", "t4": "{}\n"}
        reports = []
        for encoding in ("utf-8", "utf-8-sig"):
            run = tmp_path / encoding
            (run / "corpus").mkdir(parents=True)
            spec = run / "spec.hm"
            spec.write_text(EQ, encoding=encoding)
            for i, (name, text) in enumerate(sorted(traces.items())):
                # a marked run marks every other trace
                mark = encoding if i % 2 else "utf-8"
                (run / "corpus" / f"{name}.trace").write_text(text, encoding=mark)
            code = main(["monitor", str(spec), str(run / "corpus"),
                         "--continue-after-violation", "--stats-format", "json"])
            assert code == 1
            report = json.loads(capsys.readouterr().out)
            del report["stats"]["wall_time"]
            reports.append(report)
        assert reports[0] == reports[1]

    def test_duplicate_trace_stems_exit_2(self, tmp_path, capsys):
        spec = spec_file(tmp_path, EQ)
        for sub in ("d1", "d2"):
            (tmp_path / sub).mkdir()
            write(tmp_path / sub / "t.trace", "a\n")
        code = main(["monitor", spec, str(tmp_path / "d1"), str(tmp_path / "d2")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(tmp_path / "d1" / "t.trace") in err
        assert str(tmp_path / "d2" / "t.trace") in err

    def test_traces_streamed_one_at_a_time(self, tmp_path, capsys, monkeypatch):
        from hypermon import cli
        from hypermon.engine import Session

        events = []
        load, process = cli.load_trace, Session.process_trace

        def logged_load(path):
            events.append("load")
            return load(path)

        def logged_process(session, trace):
            events.append("process")
            return process(session, trace)

        monkeypatch.setattr(cli, "load_trace", logged_load)
        monkeypatch.setattr(Session, "process_trace", logged_process)
        spec = spec_file(tmp_path, EQ)
        paths = [write(tmp_path / f"t{i}.trace", "a\n") for i in range(3)]
        assert main(["monitor", spec, *paths]) == 0
        assert events == ["load", "process"] * 3

    def test_bad_trace_after_violation_exit_2(self, tmp_path, capsys):
        spec = spec_file(tmp_path, EQ)
        t1 = write(tmp_path / "t1.trace", "a\n")
        t2 = write(tmp_path / "t2.trace", "{}\n")
        t3 = write(tmp_path / "t3.trace", "a,,b\n")
        assert main(["monitor", spec, t1, t2, t3]) == 2
        assert "t3.trace: line 1" in capsys.readouterr().err

    def test_resource_limit_before_bad_trace_exit_3(self, tmp_path, capsys):
        spec = spec_file(tmp_path, "forall p. (a@p U b@p) & (b@p U a@p) & F (a@p & X b@p)\n")
        t1 = write(tmp_path / "t1.trace", "a\nb\n")
        t2 = write(tmp_path / "t2.trace", "a,,b\n")
        # set-up passes this limit: alone, the bad file is reached and exits 2
        assert main(["monitor", spec, t2, "--state-limit", "1"]) == 2
        capsys.readouterr()
        # monitoring t1 trips the guard before t2 is read
        assert main(["monitor", spec, t1, t2, "--state-limit", "1"]) == 3
        assert capsys.readouterr().err.startswith("resource limit:")

    def test_resource_limit_exit_3(self, tmp_path, capsys):
        spec = spec_file(tmp_path, "forall p. (a@p U b@p) & (b@p U a@p) & F (a@p & X b@p)\n")
        t1 = write(tmp_path / "t1.trace", "a\nb\n")
        assert main(["monitor", spec, t1, "--state-limit", "1"]) == 3

    def test_wide_instance_alphabet_turns_trace_analysis_off(
            self, tmp_path, capsys, caplog):
        # each instance alphabet has 16 atoms, past the explicit-alphabet
        # guard: the run goes on without trace analysis instead of exiting 3
        spec = spec_file(tmp_path, XOR4_THREE_QUANTIFIERS)
        corpus = tmp_path / "corpus"
        main(["gen", "--kind", "xor4", "--n", "30", "--length", "5",
              "--seed", "1", "--out", str(corpus)])
        capsys.readouterr()
        reports = []
        for flags in ([], ["--no-trace-analysis"]):
            out = tmp_path / "report.json"
            code = main(["monitor", spec, str(corpus), "--stats-format", "json",
                         "--out", str(out), *flags])
            assert code == 0
            report = json.loads(out.read_text())
            del report["stats"]["wall_time"]
            reports.append(report)
        warnings = [r.getMessage() for r in caplog.records]
        assert sum(w.startswith("trace analysis off:") for w in warnings) == 1
        on, off = reports
        assert on["stats"] == off["stats"]
        assert on["stats"]["instances_run"] == 26_970
        assert on["verdict"] == off["verdict"] == "clean"
        assert on["counterexample"] == off["counterexample"]

    @pytest.mark.parametrize("prefix", ("forall p. exists q.", "exists p. exists q."))
    def test_provisional_report_is_the_trace_analysis_off_report(
            self, tmp_path, capsys, prefix):
        # a cut-length corpus, on which dominance would drop most traces
        spec = spec_file(
            tmp_path,
            f"{prefix} (overflow@p <-> overflow@q) W !(decr@p <-> decr@q)\n",
        )
        corpus = tmp_path / "corpus"
        main(["gen", "--kind", "counter3", "--n", "300", "--length", "12",
              "--seed", "1", "--bias", "incr=0.85", "--bias", "decr=0.05",
              "--out", str(corpus)])
        rng = random.Random(1)
        for path in sorted(corpus.glob("*.trace")):
            trace = load_trace(path)
            save_trace(Trace(trace.steps[:rng.randint(0, 12)], trace.name), path)
        capsys.readouterr()
        reports = []
        for flags in ([], ["--no-trace-analysis"]):
            assert main(["monitor", spec, str(corpus), "--stats-format", "json",
                         *flags]) in (0, 1)
            report = json.loads(capsys.readouterr().out)
            del report["stats"]["wall_time"]
            reports.append(report)
        on, off = reports
        assert on == off
        assert on["optimizations"]["trace_analysis"] is False
        assert on["stats"]["traces_stored"] == 300 and not on["dropped_traces"]

    @pytest.mark.parametrize("text, shown, assignment", [
        ("forall p. exists q. a@p -> b@q\n", "p -> t1", {"p": "t1"}),
        ("exists p. forall q. a@p -> b@q\n",
         "none (no single tuple refutes this prefix)", {}),
        ("forall p. forall q. exists r. a@p -> b@r\n",
         "none (no single tuple refutes this prefix)", {}),
    ], ids=("forall-exists", "exists-forall", "forall-forall-exists"))
    def test_provisional_counterexample_line(self, tmp_path, capsys, text, shown,
                                             assignment):
        spec = spec_file(tmp_path, text)
        t1 = write(tmp_path / "t1.trace", "a\n")
        assert main(["monitor", spec, t1]) == 1
        assert f"\ncounterexample: {shown}\n" in capsys.readouterr().out
        # the JSON report keeps the assignment as it is, {} when empty
        assert main(["monitor", spec, t1, "--stats-format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["counterexample"] == assignment

    @pytest.mark.parametrize("text, traces, ran", [
        (EQ, ["a\n", "a\n"], True),
        (XOR4_THREE_QUANTIFIERS, ["lhs0\nout0\n", "rhs1\n"], False),
        ("exists p. forall q. G (a@p <-> a@q)\n", ["a\n", "{}\n"], False),
        ("forall p. exists q. G (a@p <-> a@q)\n", ["a\n", "{}\n"], False),
        ("exists p. exists q. G (a@p <-> a@q)\n", ["a\n", "{}\n"], False),
        ("forall p. G (a@p -> X a@p)\n", ["a\na\n", "{}\n"], False),
    ], ids=("both-ran", "wide-instance-alphabet", "no-dominance-rule",
            "forall-exists", "exists-exists", "one-variable"))
    def test_optimizations_report_what_ran(self, tmp_path, capsys, caplog,
                                           text, traces, ran):
        # default options ask for both analyses; the report says which ran.
        # Both shrink the tuple loop, which pairs traces only on
        # all-universal prefixes of two or more quantifiers.
        spec = spec_file(tmp_path, text)
        paths = [write(tmp_path / f"t{i}.trace", t) for i, t in enumerate(traces)]
        assert main(["monitor", spec, *paths, "--stats-format", "json"]) in (0, 1)
        report = json.loads(capsys.readouterr().out)
        tupled = text.startswith("forall p. forall q.")
        assert report["optimizations"]["trace_analysis"] is ran
        assert report["optimizations"]["spec_analysis"] is tupled
        # only a tupled spec whose instance alphabets are too wide says so
        warned = any(r.getMessage().startswith("trace analysis off:")
                     for r in caplog.records)
        assert warned is (tupled and not ran)

    @pytest.mark.parametrize("command", ("monitor", "template"))
    @pytest.mark.parametrize("limit", ("0", "-5", "many"))
    def test_state_limit_below_one_is_bad_usage(self, tmp_path, capsys, command, limit):
        spec = spec_file(tmp_path, EQ)
        t1 = write(tmp_path / "t1.trace", "a\n")
        args = [command, spec, *([t1] if command == "monitor" else [])]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--state-limit", limit])
        assert exc.value.code == 2
        assert "--state-limit" in capsys.readouterr().err
        assert main([*args, "--state-limit", "1"]) in (0, 3)


class TestAnalyze:
    def test_eq_text(self, tmp_path, capsys):
        spec = spec_file(tmp_path, EQ)
        assert main(["analyze", spec]) == 0
        out = capsys.readouterr().out
        assert "symmetric: yes" in out
        assert "transitive: yes" in out
        assert "reflexive: yes" in out

    def test_obsdet_json(self, tmp_path, capsys):
        spec = spec_file(tmp_path, OBSDET)
        assert main(["analyze", spec, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["symmetric"] is True
        assert payload["transitive"] is False
        assert payload["reflexive"] is True
        assert payload["witnesses"]["transitive"]

    @pytest.mark.parametrize("text, golden", [
        (COUNTER3, "counter3_analyze.json"),
        (f"forall p. forall q. {XOR4_BODY}\n", "xor4_analyze.json"),
    ], ids=("counter3", "xor4"))
    def test_json_matches_golden(self, tmp_path, capsys, text, golden):
        spec = spec_file(tmp_path, text)
        assert main(["analyze", spec, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload.pop("check_seconds")) == {"symmetric", "transitive", "reflexive"}
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert rendered == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_non_utf8_spec_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.hm"
        spec.write_bytes(b"\xff\xfe\n")
        assert main(["analyze", str(spec)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_asymmetric_prints_witness(self, tmp_path, capsys):
        spec = spec_file(tmp_path, "forall p. forall q. G (a@p -> a@q)\n")
        assert main(["analyze", spec]) == 0
        out = capsys.readouterr().out
        assert "symmetric: no" in out
        assert "witness against symmetric" in out


class TestGen:
    def test_deterministic_and_manifest(self, tmp_path, capsys):
        out1 = tmp_path / "c1"
        out2 = tmp_path / "c2"
        for out in (out1, out2):
            code = main(
                [
                    "gen", "--kind", "xor4", "--n", "18", "--length", "5",
                    "--seed", "1", "--out", str(out),
                ]
            )
            assert code == 0
        files1 = sorted(p.name for p in out1.iterdir())
        assert "manifest.json" in files1
        assert sum(name.endswith(".trace") for name in files1) == 18
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_gen_then_monitor_clean(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(
            [
                "gen", "--kind", "xor4", "--n", "10", "--length", "5",
                "--seed", "2", "--out", str(corpus),
            ]
        )
        capsys.readouterr()
        spec = spec_file(
            tmp_path,
            "forall p. forall q. (out0@p <-> out0@q) W "
            "(!(lhs0@p <-> lhs0@q) | !(rhs0@p <-> rhs0@q))\n",
        )
        assert main(["monitor", spec, str(corpus)]) == 0

    def test_bias_recorded(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(
            [
                "gen", "--kind", "counter3", "--n", "2", "--length", "3",
                "--seed", "1", "--out", str(corpus), "--bias", "incr=0.9",
            ]
        )
        manifest = json.loads((corpus / "manifest.json").read_text())
        assert manifest["bias"] == {"incr": 0.9}

    @pytest.mark.parametrize("bias", ["incr=1.5", "incr=-0.2", "incr=nan"])
    def test_bias_outside_unit_interval_exit_2(self, tmp_path, capsys, bias):
        corpus = tmp_path / "corpus"
        code = main(
            [
                "gen", "--kind", "counter3", "--n", "2", "--length", "3",
                "--seed", "1", "--out", str(corpus), "--bias", bias,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not corpus.exists()

    @pytest.mark.parametrize("bias", ["incr=0", "incr=1"])
    def test_bias_bounds_accepted(self, tmp_path, capsys, bias):
        corpus = tmp_path / "corpus"
        code = main(
            [
                "gen", "--kind", "counter3", "--n", "2", "--length", "3",
                "--seed", "1", "--out", str(corpus), "--bias", bias,
            ]
        )
        assert code == 0
        assert json.loads((corpus / "manifest.json").read_text())["bias"] == {
            "incr": float(bias[-1])
        }

    def test_out_is_a_file_exit_2(self, tmp_path, capsys):
        out = write(tmp_path / "taken", "")
        code = main(
            [
                "gen", "--kind", "xor4", "--n", "2", "--length", "2",
                "--seed", "1", "--out", out,
            ]
        )
        assert code == 2
        assert_write_error(capsys, out)


class TestTemplate:
    def test_eq_dot(self, tmp_path, capsys):
        spec = spec_file(tmp_path, EQ)
        assert main(["template", spec]) == 0
        dot = capsys.readouterr().out
        assert dot.count("shape=circle") + dot.count("shape=doublecircle") >= 2
        assert "a@p" in dot

    def test_two_state_dot_matches_golden(self, tmp_path):
        spec = spec_file(tmp_path, EQ)
        out = tmp_path / "eq.dot"
        assert main(["template", spec, "--dot", str(out)]) == 0
        golden = Path(__file__).parent / "golden" / "eq_template.dot"
        assert out.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("text, golden", [
        (COUNTER3, "counter3_template.dot"),
        (COUNTER3_THREE_QUANTIFIERS, "counter3_three_template.dot"),
    ], ids=("two-quantifiers", "three-quantifiers"))
    def test_counter3_dot_matches_golden(self, tmp_path, text, golden):
        spec = spec_file(tmp_path, text)
        out = tmp_path / "counter3.dot"
        assert main(["template", spec, "--dot", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("target", ["missing/eq.dot", "."])
    def test_unwritable_dot_exit_2(self, tmp_path, capsys, target):
        spec = spec_file(tmp_path, EQ)
        out = str(tmp_path / target)
        assert main(["template", spec, "--dot", out]) == 2
        assert_write_error(capsys, out)

    def test_universal_single_state(self, tmp_path, capsys):
        spec = spec_file(tmp_path, "forall p. true\n")
        assert main(["template", spec]) == 0
        dot = capsys.readouterr().out
        assert dot.count("[shape=") == 1 + dot.count("shape=point")

    def test_wide_alphabet_exit_3(self, tmp_path, capsys):
        # the two-variable xor4 body has 16 atoms: too wide to enumerate
        spec = spec_file(tmp_path, f"forall p. forall q. {XOR4_BODY}\n")
        assert main(["template", spec]) == 3
        assert capsys.readouterr().err.startswith("resource limit:")

    def test_empty_language_template(self, tmp_path, capsys):
        spec = spec_file(tmp_path, "forall p. G a@p\n")
        assert main(["template", spec]) == 0
        dot = capsys.readouterr().out
        assert "doublecircle" not in dot


# Runs (command, spec, output) triples through the CLI in one interpreter.
FRESH_RUN = """
import contextlib, sys
from hypermon.cli import main
args = sys.argv[1:]
for command, spec, out in zip(args[::3], args[1::3], args[2::3]):
    if command == "template":
        assert main(["template", spec, "--dot", out]) == 0
    else:
        with open(out, "w", encoding="utf-8") as f, contextlib.redirect_stdout(f):
            assert main(["analyze", spec, "--format", "json"]) == 0
"""


class TestFreshProcess:
    @pytest.mark.parametrize("seed", ["0", "4242"])
    def test_golden_outputs_under_any_hash_seed(self, tmp_path, seed):
        """Formula nodes hash by identity, so a set of them iterates in
        address order; no output may follow that order or the hash seed."""
        jobs = [
            ("analyze", COUNTER3, "counter3_analyze.json"),
            ("analyze", f"forall p. forall q. {XOR4_BODY}\n", "xor4_analyze.json"),
            ("template", EQ, "eq_template.dot"),
            ("template", COUNTER3, "counter3_template.dot"),
            ("template", COUNTER3_THREE_QUANTIFIERS, "counter3_three_template.dot"),
        ]
        argv = []
        for i, (command, text, golden) in enumerate(jobs):
            argv += [command, spec_file(tmp_path, text, f"spec{i}.hm"), str(tmp_path / golden)]
        src = str(Path(hypermon.__file__).parent.parent)
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", FRESH_RUN, *argv], env=env, check=True)
        for command, _, golden in jobs:
            out = (tmp_path / golden).read_bytes()
            if command == "analyze":
                # the golden file leaves out the timings, as the in-process test does
                payload = json.loads(out)
                del payload["check_seconds"]
                out = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
            assert out == (GOLDEN / golden).read_bytes(), golden
