"""One repeat of a workload: a single ``hypermon monitor`` call in this process.

Usage: child.py WORKLOAD SPEC CORPUS OUTDIR TRACED

Wrappers from this file sit at the names the monitor's callers look up; the
monitor's own code is not changed.  The untraced path only captures the
Session, times its set-up and each ``process_trace`` call, and records the
violating verdicts.  The traced path adds spans around the calls into each
layer.  The result goes to OUTDIR/result.json, spans to OUTDIR/spans.bin.
"""

import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS, import_hypermon


class Probe:
    """Captures the Session, times set-up and each trace, keeps violations."""

    def __init__(self):
        self.session = None
        self.setup_s = None
        self.latencies = []
        self.violations = []  # (fresh trace name, {variable: trace name})

    def install(self, session_cls) -> None:
        init = session_cls.__init__
        process = session_cls.process_trace
        probe = self

        def timed_init(session, *args, **kwargs):
            begin = perf_counter()
            init(session, *args, **kwargs)
            probe.setup_s = perf_counter() - begin
            probe.session = session

        def timed_process(session, trace):
            begin = perf_counter()
            verdict = process(session, trace)
            probe.latencies.append(perf_counter() - begin)
            if verdict.is_violation:
                probe.violations.append(
                    (trace.name, dict(verdict.counterexample.assignment))
                )
            return verdict

        session_cls.__init__ = timed_init
        session_cls.process_trace = timed_process


class LayerCounts:
    """Counts kept by wrappers where no span is recorded."""

    def __init__(self):
        self.step_calls = 0
        self.dominates_true = 0


def install_spans(tracer: Tracer, counts: LayerCounts) -> None:
    from hypermon import cli, engine, template, trace_analysis

    for owner, attr, name in (
        (cli, "load_trace", "traceio.load_trace"),
        (engine.Session, "__init__", "engine.setup"),
        (engine, "build_template", "template.build"),
        (engine, "analyze", "spec_analysis.analyze"),
        (engine.Session, "process_trace", "engine.process_trace"),
        (engine, "rejecting_position", "template.rejecting_position"),
        (engine, "eval_quantified", "semantics.eval_quantified"),
        (trace_analysis, "materialize", "template.materialize"),
        (trace_analysis, "minimize", "automata.minimize"),
        (trace_analysis, "language_included", "automata.language_included"),
    ):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    dominates = tracer.wrap("trace_analysis.dominates", trace_analysis.DominanceChecker.dominates)

    def counted_dominates(checker, t1, t2):
        hit = dominates(checker, t1, t2)
        if hit:
            counts.dominates_true += 1
        return hit

    trace_analysis.DominanceChecker.dominates = counted_dominates

    # step is the hot path: counted on every call, spanned only when it adds
    # a cache entry (a miss runs prog + canonical_state)
    step = template.TemplateAutomaton.step
    miss = tracer.name_id("template.miss")
    now = perf_counter

    def counted_step(auto, state, letter):
        counts.step_calls += 1
        cached = len(auto.delta)
        begin = now()
        sid = step(auto, state, letter)
        if len(auto.delta) != cached:
            tracer.leaf(miss, begin, now())
        return sid

    template.TemplateAutomaton.step = counted_step


def peak_rss_mb() -> float:
    """This process's peak resident set, in MB.

    ``ru_maxrss`` is not used: after exec it still holds the parent's peak at
    the time of the spawn, so it would count the benchmark's own memory.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def session_counts(session, counts: LayerCounts) -> dict:
    """Counters read from the Session's public objects after the run."""
    stats = session.stats.as_dict()
    auto = session.template.automaton
    notes = session.analysis.notes if session.analysis is not None else {}
    return {
        "template.step.calls": counts.step_calls,
        "template.states": len(auto.formulas),
        "template.transitions": len(auto.delta),
        "trace_analysis.dominates.true": counts.dominates_true,
        "spec_analysis.not_detected": sum(
            1 for note in notes.values() if note.startswith("not detected")
        ),
        "engine.instances_run": stats["instances_run"],
        "engine.inclusion_checks": stats["inclusion_checks"],
        "engine.traces_stored": len(session.store.traces),
        "engine.traces_dropped": len(session.store.dropped),
    }


def main(argv) -> int:
    name, spec, corpus, outdir, traced = argv
    workload = WORKLOADS[name]
    outdir = Path(outdir)
    import_hypermon()
    from hypermon import cli, engine

    probe = Probe()
    probe.install(engine.Session)
    counts = LayerCounts()
    tracer = None
    monitor = cli.main
    if traced == "1":
        tracer = Tracer()
        install_spans(tracer, counts)
        monitor = tracer.wrap("cli.main", cli.main)
    args = ["monitor", spec, corpus, "--stats-format", "json",
            "--out", str(outdir / "report.json"), *workload.flags]

    begin = perf_counter()
    try:
        exit_code = monitor(args)
    except Exception:  # a crash counts every trace as failed
        traceback.print_exc()
        exit_code = None
    verdict_s = perf_counter() - begin
    peak_mb = peak_rss_mb()

    result = {
        "exit_code": exit_code,
        "verdict_s": verdict_s,
        "setup_s": probe.setup_s,
        "peak_rss_mb": peak_mb,
        "latencies": probe.latencies,
        "violations": probe.violations,
    }
    if tracer is not None and probe.session is not None:
        result["counts"] = session_counts(probe.session, counts)
        tracer.dump(outdir / "spans.bin")
    (outdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
