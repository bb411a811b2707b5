"""Whole-session outputs on the CI drop-heavy and cut-length corpora.

Each corpus is rebuilt from ``random_traces`` exactly as the CI smoke tests
build it with ``hypermon gen``, and run with trace analysis on and
``continue_after_violation``.  The per-trace verdicts, the dropped log, the
stats (less ``wall_time``) and the copy-index hits must equal the golden
files, so a change to trace analysis that moves any output fails here.

Regenerate the golden files with ``PYTHONPATH=src python
tests/test_golden_runs.py``, only when an output is meant to change.
"""

import json
import random
from pathlib import Path

import pytest

from hypermon.circuits import random_traces
from hypermon.engine import MonitorOptions, Session
from hypermon.parser import parse_formula
from hypermon.semantics import Trace

GOLDEN = Path(__file__).parent / "golden"
SPEC = "forall p. forall q. (overflow@p <-> overflow@q) W !(decr@p <-> decr@q)"


def gen(n, length, seed, bias=None):
    """The traces ``hypermon gen`` writes, in the order the monitor reads them."""
    runs = random_traces("counter3", n, length, seed, bias)
    return [c.to_trace(f"t{i:05d}") for i, c in enumerate(runs)]


def drop_heavy():
    return gen(300, 8, 1)


def cut_length():
    # each trace cut to a seeded length in 0..12, empty traces included
    rng = random.Random(1)
    return [
        Trace(t.steps[:rng.randint(0, 12)], t.name)
        for t in gen(300, 12, 1, {"incr": 0.85, "decr": 0.05})
    ]


CORPORA = {"drop_heavy": drop_heavy, "cut_length": cut_length}


def run(traces) -> dict:
    session = Session(
        parse_formula(SPEC), MonitorOptions(continue_after_violation=True)
    )
    verdicts = []
    for trace in traces:
        ce = session.process_trace(trace).counterexample
        verdicts.append(
            None if ce is None
            else [[list(pair) for pair in ce.assignment], ce.rejecting_position]
        )
    stats = session.stats.as_dict()
    del stats["wall_time"]
    return {
        "verdicts": verdicts,
        "dropped": [list(pair) for pair in session.store.dropped],
        "stats": stats,
        "copy_hits": session.trace_analysis_counts()["copy_hits"],
    }


def golden_path(name) -> Path:
    return GOLDEN / f"{name}_run.json"


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_run_matches_golden(name):
    expected = json.loads(golden_path(name).read_text(encoding="utf-8"))
    assert run(CORPORA[name]()) == expected


if __name__ == "__main__":
    for name, corpus in CORPORA.items():
        golden_path(name).write_text(
            json.dumps(run(corpus()), separators=(",", ":")) + "\n", encoding="utf-8"
        )
