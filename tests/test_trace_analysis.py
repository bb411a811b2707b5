import itertools

import pytest

from hypermon.errors import FragmentError
from hypermon.formula import QuantifiedFormula, classify_prefix, desugar
from hypermon.parser import parse_formula
from hypermon.semantics import Trace, eval_quantified
from hypermon.template import build_template
from hypermon.trace_analysis import (
    DominanceChecker,
    TraceStore,
    dominates,
    minimize_store,
)

from conftest import random_body, random_trace


def setup(text):
    qf = parse_formula(text)
    tpl = build_template(desugar(qf.body), qf.variables)
    return tpl, classify_prefix(qf)


class TestDominates:
    def test_reflexive_in_every_fragment(self, rng):
        for text in (
            "forall p. forall q. G (a@p <-> a@q)",
            "exists p. exists q. a@p U b@q",
            "forall p. exists q. a@p -> a@q",
        ):
            tpl, qc = setup(text)
            for _ in range(5):
                t = random_trace(rng, "t", 3)
                assert dominates(tpl, qc, t, t.renamed("u"))

    def test_universal_body_all_dominate(self, rng):
        tpl, qc = setup("forall p. forall q. true")
        t1, t2 = random_trace(rng, "t1"), random_trace(rng, "t2")
        assert dominates(tpl, qc, t1, t2)
        assert dominates(tpl, qc, t2, t1)

    def test_eq_distinct_patterns_incomparable(self):
        tpl, qc = setup("forall p. forall q. G (a@p <-> a@q)")
        t1, t2 = Trace.of([{"a"}], "t1"), Trace.of([set()], "t2")
        assert not dominates(tpl, qc, t1, t2)
        assert not dominates(tpl, qc, t2, t1)

    def test_unsupported_fragment(self):
        qf = parse_formula("exists p. exists q. exists r. a@p | a@q | a@r")
        tpl = build_template(desugar(qf.body), qf.variables)
        with pytest.raises(FragmentError):
            DominanceChecker(tpl, classify_prefix(qf))

    def test_transitive_within_fragment(self, rng):
        for _ in range(60):
            body = random_body(rng, 3)
            tpl = build_template(desugar(body), ("p", "q"))
            qc = classify_prefix(
                QuantifiedFormula((("forall", "p"), ("forall", "q")), body)
            )
            checker = DominanceChecker(tpl, qc)
            a, b, c = (random_trace(rng, n, 3) for n in "abc")
            if checker.dominates(a, b) and checker.dominates(b, c):
                assert checker.dominates(a, c)

    def test_exists2_dominance_implies_semantic_redundancy(self, rng):
        positives = 0
        for _ in range(80):
            body = random_body(rng, 3)
            qf = QuantifiedFormula((("exists", "p"), ("exists", "q")), body)
            tpl = build_template(desugar(body), ("p", "q"))
            checker = DominanceChecker(tpl, classify_prefix(qf))
            t1, t2 = random_trace(rng, "t1", 3), random_trace(rng, "t2", 3)
            if not checker.dominates(t1, t2):
                continue
            positives += 1
            universe = [t2] + [random_trace(rng, f"u{i}", 3) for i in range(3)]
            rest = [u for u in universe if u.steps != t1.steps]
            for r in range(len(rest) + 1):
                for combo in itertools.combinations(rest, r):
                    chosen = [t1, *combo]
                    assert eval_quantified(chosen, qf) == eval_quantified(
                        chosen + [t2], qf
                    )
        assert positives >= 10


class TestMinimizeStore:
    def test_identical_fresh_is_discarded(self):
        tpl, qc = setup("forall p. forall q. G (a@p <-> a@q)")
        t = Trace.of([{"a"}], "t")
        store = TraceStore()
        store.add(t)
        out = minimize_store(tpl, qc, store, t.renamed("copy"))
        assert out.names() == ["t"]
        assert out.dropped == [("copy", "t")]

    def test_input_store_unchanged(self):
        # F a@p & F b@q: the blank trace dominates both stored traces
        tpl, qc = setup("forall p. forall q. F a@p & F b@q")
        has_a, has_b = Trace.of([{"a"}], "has_a"), Trace.of([{"b"}], "has_b")
        store = TraceStore([has_a, has_b], [("gone", "has_a")])
        for fresh in (Trace.of([set()], "blank"), has_a.renamed("copy")):
            minimize_store(tpl, qc, store, fresh)
            assert store.traces == [has_a, has_b]
            assert store.dropped == [("gone", "has_a")]

    def test_copy_keeps_the_copy_index(self):
        tpl, qc = setup("forall p. forall q. a@p -> !b@q")
        checker = DominanceChecker(tpl, qc)
        store = TraceStore()
        a_b, b = Trace.of([{"a"}, {"b"}], "a_b"), Trace.of([{"b"}], "b")
        for t in (a_b, b):
            store = minimize_store(tpl, qc, store, t, checker)
            assert store.traces[-1] is t
        checks = checker.inclusion_checks
        out = minimize_store(tpl, qc, store, b.renamed("twin"), checker)
        assert checker.inclusion_checks == checks and out.copy_hits == 1
        assert out.names() == ["a_b", "b"] and out.dropped == [("twin", "b")]
        assert store.names() == ["a_b", "b"] and store.dropped == []

    def test_universal_body_store_stays_singleton(self, rng):
        tpl, qc = setup("forall p. forall q. true")
        store = TraceStore()
        for i in range(5):
            store = minimize_store(tpl, qc, store, random_trace(rng, f"t{i}"))
        assert store.names() == ["t0"]

    def test_eq_keeps_one_per_pattern(self):
        tpl, qc = setup("forall p. forall q. G (a@p <-> a@q)")
        store = TraceStore()
        patterns = [
            [{"a"}],
            [set()],
            [{"a"}, {"a"}],
            [{"a"}, set()],  # same as [{"a"}] once trailing blanks are dropped
            [{"a"}],
        ]
        for i, steps in enumerate(patterns):
            store = minimize_store(tpl, qc, store, Trace.of(steps, f"t{i}"))
        assert store.names() == ["t0", "t1", "t2"]

    def test_stored_traces_dominate_no_later_one(self, rng):
        # append-only: a stored trace may be dominated by a later one, never
        # by an earlier one, and a dropped trace's dominator came before it
        later_dominates = 0
        for _ in range(30):
            body = random_body(rng, 3)
            qf = QuantifiedFormula((("forall", "p"), ("forall", "q")), body)
            tpl = build_template(desugar(body), ("p", "q"))
            qc = classify_prefix(qf)
            checker = DominanceChecker(tpl, qc)
            store = TraceStore()
            arrival = [random_trace(rng, f"t{i}", 3) for i in range(6)]
            for fresh in arrival:
                out = minimize_store(tpl, qc, store, fresh, checker)
                assert (out.traces[-1] is fresh) == (len(out) > len(store))
                store = out
            order = {t.name: i for i, t in enumerate(arrival)}
            for x, y in itertools.combinations(store.traces, 2):
                assert not checker.dominates(x, y)
                later_dominates += checker.dominates(y, x)
            assert [order[t.name] for t in store.traces] == sorted(
                order[t.name] for t in store.traces
            )
            stored_names = set(store.names())
            for dropped, dominator in store.dropped:
                assert dominator in stored_names
                assert order[dominator] < order[dropped]
        assert later_dominates


class TestVerdictPreservation:
    def test_minimized_and_full_runs_agree(self, rng):
        from hypermon.engine import MonitorOptions, Session

        for _ in range(40):
            body = random_body(rng, 3)
            qf = QuantifiedFormula((("forall", "p"), ("forall", "q")), body)
            traces = [random_trace(rng, f"t{i}", 4) for i in range(6)]
            outcomes = []
            for analysis in (True, False):
                session = Session(
                    qf,
                    MonitorOptions(trace_analysis=analysis, spec_analysis=False),
                )
                hit = False
                for t in traces:
                    if session.process_trace(t).is_violation:
                        hit = True
                        break
                outcomes.append(hit)
            assert outcomes[0] == outcomes[1]


def linear_dominator(checker, store, fresh):
    """The first stored trace, in insertion order, that dominates ``fresh``."""
    return next((old.name for old in store.traces if checker.dominates(old, fresh)), None)


PREFIXES = (
    (("forall", "p"), ("forall", "q")),
    (("exists", "p"), ("exists", "q")),
    (("forall", "p"), ("exists", "q")),
)


class TestCopyIndex:
    def stream(self, rng, store, checker, pool, tag):
        """Feed random pool traces, sometimes appended unchecked; every drop
        must name the linear scan's first dominator.  Returns the store."""
        tpl, qc = checker.template, checker.qclass
        for i in range(12):
            fresh = rng.choice(pool).renamed(f"{tag}{i}")
            if rng.random() < 0.15:
                store.add(fresh)  # appended unchecked: not indexed
                continue
            expected = linear_dominator(checker, store, fresh)
            out = minimize_store(tpl, qc, store, fresh, checker)
            assert (out.traces[-1] is fresh) is (expected is None)
            if expected is not None:
                assert out.dropped[-1] == (fresh.name, expected)
            store = out
        return store

    @pytest.mark.parametrize("shape", PREFIXES)
    def test_same_dominator_as_the_linear_scan(self, rng, shape):
        hits = 0
        for _ in range(25):
            body = random_body(rng, 3)
            tpl = build_template(desugar(body), ("p", "q"))
            qc = classify_prefix(QuantifiedFormula(shape, body))
            pool = [random_trace(rng, f"u{i}", 2) for i in range(6)]
            # empty, and hand-built with a copy and traces that may dominate
            for store in (
                TraceStore(), TraceStore([pool[0], pool[0].renamed("twin"), *pool[1:3]])
            ):
                checker = DominanceChecker(tpl, qc)
                store = self.stream(rng, store, checker, pool, "s")
                store = self.stream(rng, store.copy(), checker, pool, "c")
                hits += store.copy_hits
        assert hits >= 25

    @pytest.mark.parametrize("shape", PREFIXES)
    def test_minimize_store_matches_the_linear_scan(self, rng, shape):
        for _ in range(15):
            body = random_body(rng, 3)
            tpl = build_template(desugar(body), ("p", "q"))
            qc = classify_prefix(QuantifiedFormula(shape, body))
            checker = DominanceChecker(tpl, qc)
            pool = [random_trace(rng, f"u{i}", 2) for i in range(5)]
            store = TraceStore([pool[1], pool[1].renamed("twin")])
            for i in range(10):
                fresh = rng.choice(pool).renamed(f"f{i}")
                expected = linear_dominator(checker, store, fresh)
                out = minimize_store(tpl, qc, store, fresh, checker)
                if expected is not None:
                    assert out.traces == store.traces
                    assert out.dropped == store.dropped + [(fresh.name, expected)]
                else:
                    assert out.traces[-1] is fresh
                store = out

    def test_drop_if_copy_runs_no_inclusion(self):
        tpl, qc = setup("forall p. forall q. a@p -> !b@q")
        checker = DominanceChecker(tpl, qc)
        a_b = Trace.of([{"a"}, {"b"}], "a_b")
        unindexed = TraceStore()
        unindexed.add(a_b)
        assert not unindexed.drop_if_copy(a_b.renamed("twin"))
        store = minimize_store(tpl, qc, TraceStore(), a_b, checker)
        assert store.drop_if_copy(a_b.renamed("twin"))
        assert store.dropped == [("twin", "a_b")] and store.copy_hits == 1
        assert checker.inclusion_checks == 0
