"""Reference circuits and seeded random simulation for trace generation.

Four models:

* ``xor4``: four-bit bitwise xor, out_j = lhs_j ^ rhs_j (combinational).
* ``mux_comb``: a multiplexer selects one of two 4-bit inputs, feeds a
  combinational xor of its low and high half through an inverse multiplexer
  to out1 (sel=1) or out2 (sel=0).
* ``mux_seq``: same datapath, but the shared function xors in a 2-bit
  internal register that accumulates previous inputs.  Outputs are sampled
  before the register updates.
* ``counter3``: 3-bit saturating-at-zero up/down counter; ``overflow`` pulses
  when the counter sits at 7 and increments.

One ``step`` is one clock cycle.  Simulation draws each input bit
independently per step from :class:`random.Random` seeded with
``seed * 2**32 + trace_index``, so corpora are reproducible bit for bit and
traces are independent of each other.
"""

import random
from dataclasses import dataclass

from .errors import CircuitInputError
from .formula import (
    FALSE,
    And,
    Atom,
    AtomRef,
    Iff,
    Not,
    Or,
    QuantifiedFormula,
    WeakUntil,
)
from .semantics import Trace

KINDS = ("xor4", "mux_comb", "mux_seq", "counter3")

_INPUTS = {
    "xor4": tuple(f"lhs{i}" for i in range(4)) + tuple(f"rhs{i}" for i in range(4)),
    "mux_comb": tuple(f"in1_{i}" for i in range(4))
    + tuple(f"in2_{i}" for i in range(4))
    + ("sel",),
    "mux_seq": tuple(f"in1_{i}" for i in range(4))
    + tuple(f"in2_{i}" for i in range(4))
    + ("sel",),
    "counter3": ("incr", "decr"),
}

_OUTPUTS = {
    "xor4": tuple(f"out{i}" for i in range(4)),
    "mux_comb": ("out1_0", "out1_1", "out2_0", "out2_1"),
    "mux_seq": ("out1_0", "out1_1", "out2_0", "out2_1"),
    "counter3": ("overflow",),
}


def input_bits(kind: str) -> tuple:
    _check_kind(kind)
    return _INPUTS[kind]


def output_bits(kind: str) -> tuple:
    _check_kind(kind)
    return _OUTPUTS[kind]


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise CircuitInputError(f"unknown circuit kind {kind!r}")


@dataclass(frozen=True)
class CircuitModel:
    """A circuit kind plus its register contents (0 for combinational kinds)."""

    kind: str
    state: int = 0

    @classmethod
    def new(cls, kind: str) -> "CircuitModel":
        _check_kind(kind)
        return cls(kind, 0)


def step(model: CircuitModel, inputs: dict):
    """One clock cycle: returns (outputs, successor model)."""
    needed = _INPUTS[model.kind]
    missing = [b for b in needed if b not in inputs]
    if missing:
        raise CircuitInputError(f"missing input bits {missing} for {model.kind}")
    bits = {b: bool(inputs[b]) for b in needed}
    if model.kind == "xor4":
        outs = {f"out{i}": bits[f"lhs{i}"] ^ bits[f"rhs{i}"] for i in range(4)}
        return outs, model
    if model.kind in ("mux_comb", "mux_seq"):
        sel = bits["sel"]
        src = "in1" if sel else "in2"
        combined = [bits[f"{src}_{i}"] for i in range(4)]
        f = [combined[0] ^ combined[2], combined[1] ^ combined[3]]
        if model.kind == "mux_seq":
            out_bits = [f[0] ^ bool(model.state & 1), f[1] ^ bool(model.state >> 1 & 1)]
            new_state = model.state ^ (f[0] | f[1] << 1)
            model = CircuitModel(model.kind, new_state)
        else:
            out_bits = f
        if sel:
            outs = {"out1_0": out_bits[0], "out1_1": out_bits[1],
                    "out2_0": False, "out2_1": False}
        else:
            outs = {"out1_0": False, "out1_1": False,
                    "out2_0": out_bits[0], "out2_1": out_bits[1]}
        return outs, model
    # counter3
    counter = model.state
    overflow = counter == 7 and bits["incr"] and not bits["decr"]
    if bits["incr"] and not bits["decr"]:
        counter = (counter + 1) % 8
    elif bits["decr"] and not bits["incr"] and counter > 0:
        counter = counter - 1
    return {"overflow": overflow}, CircuitModel(model.kind, counter)


@dataclass
class CircuitTrace:
    """Per-step valuations of all named input and output bits."""

    kind: str
    steps: list  # list[dict[str, bool]]

    def to_trace(self, name: str) -> Trace:
        return Trace(
            tuple(frozenset(b for b, v in s.items() if v) for s in self.steps),
            name,
        )


def simulate(kind: str, input_steps) -> CircuitTrace:
    """Drive a fresh model with explicit per-step input assignments."""
    model = CircuitModel.new(kind)
    steps = []
    for inputs in input_steps:
        outputs, model = step(model, inputs)
        row = {b: bool(inputs[b]) for b in _INPUTS[kind]}
        row.update(outputs)
        steps.append(row)
    return CircuitTrace(kind, steps)


def random_traces(kind: str, n: int, length: int, seed: int, bias: dict = None):
    """n i.i.d.-input simulations of the given length; deterministic per seed.

    ``bias`` maps input-bit names to the probability of that bit being 1
    (default 0.5 for every bit); a probability outside [0, 1], or NaN, raises
    CircuitInputError.
    """
    _check_kind(kind)
    if n < 1 or length < 1:
        raise CircuitInputError("need n >= 1 and length >= 1")
    bias = dict(bias or {})
    unknown = set(bias) - set(_INPUTS[kind])
    if unknown:
        raise CircuitInputError(f"bias names unknown bits {sorted(unknown)}")
    # written so that NaN fails too
    bad = {b: p for b, p in bias.items() if not 0 <= p <= 1}
    if bad:
        raise CircuitInputError(f"bias outside [0, 1]: {bad}")
    probs = [(b, bias.get(b, 0.5)) for b in _INPUTS[kind]]
    traces = []
    for idx in range(n):
        rng = random.Random((seed << 32) + idx)
        input_steps = [
            {b: rng.random() < p for b, p in probs} for _ in range(length)
        ]
        traces.append(simulate(kind, input_steps))
    return traces


def independence_property(kind: str, sources, targets) -> QuantifiedFormula:
    """The claim that the source input bits never influence the target outputs.

    Reads: the target outputs agree on two runs at least until the runs
    differ in some input the targets are allowed to depend on (every input
    except the sources).
    """
    _check_kind(kind)
    sources = list(sources)
    targets = list(targets)
    bad_src = set(sources) - set(_INPUTS[kind])
    if bad_src:
        raise CircuitInputError(f"unknown input bits {sorted(bad_src)}")
    bad_tgt = set(targets) - set(_OUTPUTS[kind])
    if bad_tgt:
        raise CircuitInputError(f"unknown output bits {sorted(bad_tgt)}")
    if not targets:
        raise CircuitInputError("need at least one target output bit")
    complement = [b for b in _INPUTS[kind] if b not in sources]
    p, q = "p", "q"

    def eq(bit):
        return Iff(Atom(AtomRef(bit, p)), Atom(AtomRef(bit, q)))

    agree = [eq(b) for b in _OUTPUTS[kind] if b in targets]
    lhs = agree[0] if len(agree) == 1 else And(tuple(agree))
    diffs = [Not(eq(b)) for b in complement]
    if not diffs:
        rhs = FALSE
    elif len(diffs) == 1:
        rhs = diffs[0]
    else:
        rhs = Or(tuple(diffs))
    body = WeakUntil(lhs, rhs)
    return QuantifiedFormula((("forall", p), ("forall", q)), body)
