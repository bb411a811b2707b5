"""Workload table, corpus generation and the latency percentile rule.

Every workload is one ``hypermon monitor`` invocation over a seeded circuit
corpus.  The corpus depends only on the seed; the monitor receives nothing
but the generated ``.trace`` files and a spec file.
"""

import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Tail percentiles tried from the highest down; the first one with at least
# ten samples beyond it is reported (p99 at >= 1000 traces, p97.5 at 400).
TAIL_LADDER = (99.9, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def import_hypermon():
    """Import hypermon from this checkout's ``src/``; exit non-zero without it."""
    package = SRC / "hypermon"
    if not (package / "cli.py").is_file():
        sys.exit(f"perfbench: no hypermon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypermon

    if Path(hypermon.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported hypermon from {hypermon.__file__}, not {package}")
    return hypermon


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # circuit kind, see hypermon.circuits.KINDS
    sources: tuple  # input bits the targets must not depend on
    targets: tuple  # output bits
    prefix: tuple  # quantifier prefix over p and q
    n: int  # traces in the corpus
    length: int  # steps per trace
    bias: tuple  # (input bit, probability of 1) pairs
    flags: tuple  # extra `hypermon monitor` options
    expect_violation: bool  # known from the circuit, not from the monitor

    def formula(self):
        from hypermon.circuits import independence_property
        from hypermon.formula import QuantifiedFormula

        qf = independence_property(self.kind, self.sources, self.targets)
        return QuantifiedFormula(self.prefix, qf.body)

    def tail_percentile(self) -> float:
        return tail_percentile(self.n)


FORALL_FORALL = (("forall", "p"), ("forall", "q"))
FORALL_EXISTS = (("forall", "p"), ("exists", "q"))

# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="xor4-tuples",
            kind="xor4",
            sources=("lhs1",),
            targets=("out0",),
            prefix=FORALL_FORALL,
            n=400,
            length=5,
            bias=(),
            flags=("--no-trace-analysis",),
            expect_violation=False,
        ),
        Workload(
            name="counter3-stream",
            kind="counter3",
            sources=("incr",),
            targets=("overflow",),
            prefix=FORALL_FORALL,
            n=1000,
            length=20,
            bias=(("incr", 0.85), ("decr", 0.05)),
            flags=("--continue-after-violation",),
            expect_violation=True,
        ),
        Workload(
            name="xor4-forall-exists",
            kind="xor4",
            sources=("lhs1",),
            targets=("out0",),
            prefix=FORALL_EXISTS,
            n=200,
            length=5,
            bias=(),
            flags=("--no-trace-analysis",),
            expect_violation=False,
        ),
    )
}


def tail_percentile(samples: int) -> float:
    for pct in TAIL_LADDER:
        if samples * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct
    raise ValueError(f"{samples} samples are too few for a tail percentile")


def percentile(values, pct: float) -> float:
    """Inclusive quantile at ``pct`` per cent (a multiple of 0.1)."""
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(pct * 10) - 1]


def write_inputs(workload: Workload, seed: int, directory: Path):
    """Write the spec file and the seeded corpus.

    Returns (spec path, corpus dir, {name: generated trace}).
    """
    from hypermon.circuits import random_traces
    from hypermon.formula import pretty_quantified
    from hypermon.parser import parse_formula
    from hypermon.traceio import save_trace

    qf = workload.formula()
    text = pretty_quantified(qf)
    if parse_formula(text) != qf:
        raise RuntimeError(f"spec text of {workload.name} does not round-trip")
    spec = directory / "spec.hm"
    spec.write_text(text + "\n", encoding="utf-8")
    corpus = directory / "corpus"
    corpus.mkdir()
    width = max(5, len(str(workload.n - 1)))
    traces = random_traces(
        workload.kind, workload.n, workload.length, seed, dict(workload.bias)
    )
    generated = {}
    for idx, circuit_trace in enumerate(traces):
        trace = circuit_trace.to_trace(f"t{idx:0{width}d}")
        save_trace(trace, corpus / f"{trace.name}.trace")
        generated[trace.name] = trace
    return spec, corpus, generated
