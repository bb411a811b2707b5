"""Command-line interface.

Commands:

* ``monitor SPEC TRACE...``: check traces (files or directories of ``*.trace``
  files) against a specification.  Exit 0 clean, 1 violation.
* ``analyze SPEC``: report symmetry/transitivity/reflexivity with witnesses.
* ``gen``: simulate a circuit into a directory of trace files plus manifest.
* ``template SPEC``: export the compiled monitor automaton as GraphViz.

Every command exits 2 on bad input and 3 on a resource limit, with one line
on stderr.  The commands raise; :func:`main` alone maps the error to the
exit code.
"""

import argparse
import errno
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .automata import to_dot
from .circuits import KINDS, input_bits, output_bits, random_traces
from .engine import MonitorOptions, Session
from .errors import MonitorError, ResourceLimitError
from .formula import pretty_quantified
from .parser import parse_formula
from .spec_analysis import analyze, decode_word
from .template import DEFAULT_STATE_LIMIT
from .traceio import collect_trace_paths, load_trace, save_trace, write_manifest

EXIT_CLEAN = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


NO_TUPLE = "none (no single tuple refutes this prefix)"


@dataclass
class SessionReport:
    """Machine- and human-readable summary of one monitoring run."""

    formula: str
    verdict: str  # "clean" | "violation"
    provisional: bool = False
    counterexample: dict = None
    rejecting_position: int = None
    stats: dict = field(default_factory=dict)
    optimizations: dict = field(default_factory=dict)
    trace_analysis: dict = field(default_factory=dict)
    dropped_traces: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SessionReport":
        return cls(**json.loads(text))

    def to_text(self) -> str:
        lines = [f"formula: {self.formula}"]
        verdict = self.verdict
        if self.provisional:
            verdict += " (current trace set; may change)"
        lines.append(f"verdict: {verdict}")
        if self.counterexample is not None:
            # a provisional violation of ∃∀, ∀∀∃ and the like has no tuple
            pairs = ", ".join(f"{v} -> {n}" for v, n in self.counterexample.items())
            lines.append(f"counterexample: {pairs or NO_TUPLE}")
            if self.rejecting_position is not None:
                lines.append(f"rejecting prefix length: {self.rejecting_position}")
        active = [k for k, v in self.optimizations.items() if v]
        lines.append("optimizations: " + (", ".join(active) if active else "none"))
        for key, value in self.stats.items():
            if key == "wall_time":
                value = f"{value:.3f}s"
            lines.append(f"{key}: {value}")
        for key, value in self.trace_analysis.items():
            lines.append(f"{key}: {value}")
        if self.dropped_traces:
            lines.append(
                "dropped traces: "
                + ", ".join(f"{name} (covered by {dom})" for name, dom in self.dropped_traces)
            )
        return "\n".join(lines) + "\n"


def build_report(session: Session) -> SessionReport:
    verdict = session.verdict()
    ce = verdict.counterexample
    return SessionReport(
        formula=pretty_quantified(session.qf),
        verdict="violation" if verdict.is_violation else "clean",
        provisional=session.provisional,
        counterexample=dict(ce.assignment) if ce is not None else None,
        rejecting_position=ce.rejecting_position if ce is not None else None,
        stats=session.stats.as_dict(),
        optimizations={
            # what ran: both analyses run only where tuples pair traces
            "spec_analysis": session.analysis is not None,
            "trace_analysis": session.trace_analysis,
            "symmetric": session.symmetric,
            "transitive": session.transitive,
            "reflexive": session.reflexive,
        },
        trace_analysis=session.trace_analysis_counts(),
        dropped_traces=list(session.store.dropped),
    )


@contextmanager
def _writing(path):
    """Turn an ``OSError`` in the block into a ``MonitorError`` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise MonitorError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(path: str) -> None:
    """Raise the error a later write of ``path`` would meet when its parent is
    missing or not a directory, or when ``path`` is a directory."""
    target = Path(path)
    if not target.parent.exists():
        code = errno.ENOENT
    elif not target.parent.is_dir():
        code = errno.ENOTDIR
    elif target.is_dir():
        code = errno.EISDIR
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _load_spec(path: str):
    try:
        # a leading byte-order mark is not part of the spec
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise MonitorError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
    return parse_formula(text)


def cmd_monitor(args) -> int:
    options = MonitorOptions(
        trace_analysis=not args.no_trace_analysis,
        spec_analysis=not args.no_spec_analysis,
        continue_after_violation=args.continue_after_violation,
        state_limit=args.state_limit,
    )
    if args.out:
        # before the run, so a long run is not thrown away for a bad path
        with _writing(args.out):
            _check_writable(args.out)
    qf = _load_spec(args.spec)
    paths = collect_trace_paths(args.traces)
    if not paths:
        raise MonitorError("no trace files found")
    session = Session(qf, options)
    # one trace in memory at a time; files after a violation are still
    # read, so a bad one exits 2
    for path in paths:
        session.process_trace(load_trace(path))
    report = build_report(session)
    rendered = report.to_json() + "\n" if args.stats_format == "json" else report.to_text()
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    return EXIT_VIOLATION if report.verdict == "violation" else EXIT_CLEAN


def cmd_analyze(args) -> int:
    qf = _load_spec(args.spec)
    result = analyze(qf)
    payload = {
        "formula": pretty_quantified(qf),
        "symmetric": result.symmetric,
        "transitive": result.transitive,
        "reflexive": result.reflexive,
        "check_seconds": {k: round(v, 6) for k, v in result.durations.items()},
        "notes": result.notes,
        "witnesses": {},
    }
    witness_traces = {}
    for label, word in (
        ("symmetric", result.symmetry_witness),
        ("transitive", result.transitivity_witness),
        ("reflexive", result.reflexivity_witness),
    ):
        if word is None:
            continue
        variables = sorted({ref.variable for letter in word for ref in letter})
        decoded = decode_word(word, variables)
        witness_traces[label] = decoded
        payload["witnesses"][label] = {
            v: [sorted(step) for step in t.steps] for v, t in decoded.items()
        }
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"formula: {payload['formula']}")
        for key in ("symmetric", "transitive", "reflexive"):
            mark = "yes" if payload[key] else "no"
            extra = ""
            if key in result.notes:
                extra = f"  [{result.notes[key]}]"
            seconds = payload["check_seconds"].get(key)
            timing = f" ({seconds:.3f}s)" if seconds is not None else ""
            print(f"{key}: {mark}{timing}{extra}")
        for label, decoded in witness_traces.items():
            print(f"witness against {label}:")
            for v, t in decoded.items():
                steps = "; ".join(",".join(sorted(s)) or "{}" for s in t.steps)
                print(f"  {v}: {steps or '(empty trace)'}")
    return EXIT_CLEAN


def cmd_gen(args) -> int:
    bias = {}
    for item in args.bias or []:
        name, _, prob = item.partition("=")
        try:
            bias[name] = float(prob)
        except ValueError:
            raise MonitorError(f"bad bias {item!r}, expected name=probability") from None
    traces = random_traces(args.kind, args.n, args.length, args.seed, bias)
    out = Path(args.out)
    width = max(5, len(str(args.n - 1)))
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        for idx, circuit_trace in enumerate(traces):
            name = f"t{idx:0{width}d}"
            save_trace(circuit_trace.to_trace(name), out / f"{name}.trace")
        write_manifest(
            out / "manifest.json",
            kind=args.kind,
            n=args.n,
            length=args.length,
            seed=args.seed,
            bias=bias,
            input_bits=list(input_bits(args.kind)),
            output_bits=list(output_bits(args.kind)),
        )
    print(f"wrote {args.n} traces to {out}")
    return EXIT_CLEAN


def cmd_template(args) -> int:
    qf = _load_spec(args.spec)
    session = Session(qf, MonitorOptions(spec_analysis=False, trace_analysis=False,
                                         state_limit=args.state_limit))
    dot = to_dot(session.template.dfa)
    if args.dot:
        with _writing(args.dot):
            Path(args.dot).write_text(dot, encoding="utf-8")
    else:
        sys.stdout.write(dot)
    return EXIT_CLEAN


def state_limit(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermon",
        description="Monitor finite execution traces against multi-trace specifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mon = sub.add_parser("monitor", help="check traces against a specification")
    mon.add_argument("spec", help="specification file")
    mon.add_argument("traces", nargs="+", help="trace files or directories")
    mon.add_argument("--no-trace-analysis", action="store_true")
    mon.add_argument("--no-spec-analysis", action="store_true")
    mon.add_argument("--continue-after-violation", action="store_true")
    mon.add_argument("--state-limit", type=state_limit, default=DEFAULT_STATE_LIMIT)
    mon.add_argument("--stats-format", choices=("text", "json"), default="text")
    mon.add_argument("--out", help="write the report to this file")
    mon.set_defaults(func=cmd_monitor)

    ana = sub.add_parser("analyze", help="specification analysis")
    ana.add_argument("spec")
    ana.add_argument("--format", choices=("text", "json"), default="text")
    ana.set_defaults(func=cmd_analyze)

    gen = sub.add_parser("gen", help="generate circuit traces")
    gen.add_argument("--kind", choices=KINDS, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--length", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument(
        "--bias", action="append", metavar="BIT=PROB",
        help="per-bit probability of 1 (default 0.5), may repeat",
    )
    gen.set_defaults(func=cmd_gen)

    tpl = sub.add_parser("template", help="export the monitor automaton as DOT")
    tpl.add_argument("spec")
    tpl.add_argument("--dot", help="output file (default stdout)")
    tpl.add_argument("--state-limit", type=state_limit, default=DEFAULT_STATE_LIMIT)
    tpl.set_defaults(func=cmd_template)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    # the one place that maps errors to exit codes; the commands just raise
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MonitorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
