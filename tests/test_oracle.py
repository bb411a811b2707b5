"""Every fast path against the paper's semantics, over the seeded cases of
``tests/oracle.py``.  The session never calls ``eval_quantified``."""

import dataclasses
from collections import Counter

from hypermon import engine, prefix_tree, semantics, template
from hypermon.prefix_tree import PrefixTree
from hypermon.traceio import parse_trace, print_trace

from oracle import (
    CONFIGS,
    SHAPES,
    SKIPS_WALKS,
    TABLE_AND_WIDE,
    TWINS,
    Reference,
    cases,
    drops_are_copies,
    run,
    tries_hold_the_store,
)


def _count_calls(m, counts):
    """Count automaton steps, and check that no trie walk runs over an
    empty range of serials, where it can find nothing."""
    step, walk = template.TemplateAutomaton.step, PrefixTree.first_serial

    def counted_step(auto, state, letter):
        counts["step"] += 1
        return step(auto, state, letter)

    def checked_walk(tree, auto, word, lo, hi, accepted):
        assert lo <= hi, f"a walk over the empty range [{lo}, {hi}]"
        return walk(tree, auto, word, lo, hi, accepted)

    m.setattr(template.TemplateAutomaton, "step", counted_step)
    m.setattr(PrefixTree, "first_serial", checked_walk)


def _check_invariants(got, qf, traces, where):
    """What holds after every run, whatever the reference says."""
    session = got.session
    assert drops_are_copies(qf, traces, got.store, got.dropped), where
    assert session.store.copy_hits == len(got.dropped), where
    seen = session.stats.traces_seen
    if session.qclass.n < 2:
        assert not got.store, where
    elif session.universal:
        assert len(got.store) + len(got.dropped) + got.violations == seen, where
    else:
        assert len(got.store) == seen and not got.dropped, where
    assert tries_hold_the_store(session), where


def test_every_fast_path_agrees_with_the_oracle(monkeypatch):
    def refuse(*args):
        raise AssertionError("the session called eval_quantified")

    monkeypatch.setattr(semantics, "eval_quantified", refuse)
    monkeypatch.setattr(engine, "eval_quantified", refuse)
    counts, seen = Counter(), Counter()
    _count_calls(monkeypatch, counts)

    def counted(*args, **kwargs):
        """``run``, and the automaton steps it took."""
        before = counts["step"]
        got = run(*args, **kwargs)
        return got, counts["step"] - before

    for index, (shape, qf, traces) in enumerate(cases()):
        table_size, wide = TABLE_AND_WIDE[index % len(TABLE_AND_WIDE)]
        monkeypatch.setattr(engine, "TABLE_SIZE", table_size)
        monkeypatch.setattr(prefix_tree, "WIDE", wide)
        reference = Reference(qf, traces)
        loaded = [parse_trace(print_trace(t), t.name) for t in traces]
        # all four analysis settings; one of them, in turn, also without
        # continue_after_violation, under a state limit and against the twins
        for k, options in enumerate(CONFIGS):
            where = (str(qf), options)
            got, steps = counted(qf, options, loaded, seen=seen)
            assert not got.tripped, where
            reference.check(got, where)
            _check_invariants(got, qf, traces, where)
            if reference.universal:
                expected = run(qf, options, loaded, reference=True)
                assert got.key()[:3] == expected.key()[:3], where
            seen["copy index dropped traces"] += bool(got.dropped)
            seen["symmetric", got.session.qclass.n] += got.session.symmetric
            seen["transitive"] += got.session.transitive
            if k == 0:
                flags = [violated for *_, violated in got.outputs]
                seen[shape, "violation"] += any(flags)
                seen[shape, "clean"] += not all(flags)
                seen[shape, "flip"] += any(a != b for a, b in zip(flags, flags[1:]))
            if k != index % len(CONFIGS):
                continue
            stopped = run(qf, dataclasses.replace(options, continue_after_violation=False), loaded)
            reference.check(stopped, where)
            _check_invariants(stopped, qf, traces, where)
            # the same verdicts up to a ResourceLimitError; a tripped
            # emptiness check may move a rejecting position
            limited = run(qf, dataclasses.replace(options, state_limit=2), loaded)
            for (a, _, n, v), (b, _, m, w) in zip(limited.outputs, got.outputs):
                assert (a, n, v) == (b, m, w), where
            assert limited.tripped or len(limited.outputs) == len(traces), where
            seen["state limit tripped"] += limited.tripped
            for name in TWINS:
                twin, twin_steps = counted(qf, options, loaded, twin=name)
                if name in SKIPS_WALKS:
                    assert twin.key()[:3] == got.key()[:3], (where, name)
                    assert set(got.residuals) <= set(twin.residuals), (where, name)
                else:
                    assert twin.key() == got.key(), (where, name)
                if name == "live sets":
                    assert twin_steps >= steps, where
                    seen["live sets stepped fewer children"] += twin_steps > steps
    # what the cases must have met, so that no change to the seeds or the
    # generators leaves a path unexercised unnoticed; an empty prefix's
    # verdict is the body's, fixed before the first trace
    for shape in SHAPES:
        kinds = ("violation", "clean", "flip") if shape else ("violation", "clean")
        assert all(seen[shape, kind] for kind in kinds), (shape, seen)
    assert seen["live sets stepped fewer children"] >= 5, seen
    for kind in (("table answered a repeat", 2), ("table answered a repeat", 3),
                 "table answered after the store grew", "table entry overtaken",
                 "copy index dropped traces", "state limit tripped",
                 ("symmetric", 2), ("symmetric", 3), "transitive"):
        assert seen[kind], (kind, seen)
