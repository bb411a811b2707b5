"""The printer's output on seeded random bodies, byte for byte.

``pretty_bodies.txt`` holds ``pretty`` of ``random_body(Random(i), 5)`` for
each seed i, one line each.  A change to the operator table, the binding
levels or the parenthesisation that moves any printed text fails here, and
every line must parse back to the body it came from.

Regenerate the golden file with ``PYTHONPATH=src python
tests/test_pretty_golden.py``, only when the printed text is meant to change.
"""

import random
from pathlib import Path

from conftest import random_body

from hypermon.formula import pretty, subformulas
from hypermon.parser import parse_formula

GOLDEN = Path(__file__).parent / "golden" / "pretty_bodies.txt"
BODIES = 600
PREFIX = "forall p. forall q. "


def bodies():
    return [random_body(random.Random(seed), 5) for seed in range(BODIES)]


def test_pretty_matches_golden():
    printed = "".join(pretty(body) + "\n" for body in bodies())
    assert printed == GOLDEN.read_text(encoding="utf-8")


def test_golden_bodies_round_trip():
    for body, line in zip(bodies(), GOLDEN.read_text(encoding="utf-8").splitlines()):
        assert parse_formula(PREFIX + line).body is body, line


def test_golden_bodies_cover_every_node_class():
    classes = {type(node) for body in bodies() for node in subformulas(body)}
    assert len(classes) == 15, sorted(c.__name__ for c in classes)


if __name__ == "__main__":
    GOLDEN.write_text("".join(pretty(body) + "\n" for body in bodies()), encoding="utf-8")
