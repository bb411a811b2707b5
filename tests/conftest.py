"""Shared generators for randomized tests (seeded, deterministic)."""

import random

import pytest

from hypermon.formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    AtomRef,
    Eventually,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    Until,
    WeakUntil,
    Xor,
)
from hypermon.semantics import Trace

PROPS = ("a", "b")
VARS = ("p", "q")


def random_body(rng: random.Random, depth: int, props=PROPS, variables=VARS,
                allow_constants=True):
    """A random body over the given propositions and variables."""
    if depth == 0 or rng.random() < 0.3:
        if allow_constants and rng.random() < 0.15:
            return TRUE if rng.random() < 0.5 else FALSE
        return Atom(AtomRef(rng.choice(props), rng.choice(variables)))

    def sub():
        return random_body(rng, depth - 1, props, variables, allow_constants)

    k = rng.randrange(12)
    if k == 0:
        return Not(sub())
    if k == 1:
        return Or(tuple(sub() for _ in range(rng.randrange(2, 4))))
    if k == 2:
        return And(tuple(sub() for _ in range(rng.randrange(2, 4))))
    if k == 3:
        return Implies(sub(), sub())
    if k == 4:
        return Iff(sub(), sub())
    if k == 5:
        return Xor(sub(), sub())
    if k == 6:
        return Next(sub())
    if k == 7:
        return Until(sub(), sub())
    if k == 8:
        return WeakUntil(sub(), sub())
    if k == 9:
        return Release(sub(), sub())
    if k == 10:
        return Globally(sub())
    return Eventually(sub())


def random_trace(rng: random.Random, name: str, max_len=5, props=PROPS) -> Trace:
    steps = [
        {p for p in props if rng.random() < 0.5}
        for _ in range(rng.randrange(max_len + 1))
    ]
    return Trace.of(steps, name)


def all_traces(max_len: int, props=PROPS):
    """Every trace up to max_len over the given propositions."""
    letters = []
    n = len(props)
    for bits in range(1 << n):
        letters.append(frozenset(p for i, p in enumerate(props) if bits >> i & 1))
    out = [Trace((), "e")]
    level = [()]
    for _ in range(max_len):
        level = [steps + (l,) for steps in level for l in letters]
        out.extend(Trace(steps, f"t{len(out)}") for steps in level)
    return out


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def trie_serials(node, top=True):
    """Serials of the leaves below a prefix-tree node; checks on the way that
    every node's serial bounds are exact and that no node below the root is
    empty."""
    below = list(node.ends)
    for child in node.children:
        below.extend(trie_serials(child, top=False))
    assert top or below, "empty node left in the trie"
    assert (node.first, node.last) == (min(below, default=None), max(below, default=None))
    return below
