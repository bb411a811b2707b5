import itertools
import random

import pytest

from hypermon.automata import Dfa, _uncovered_word, language_included
from hypermon.circuits import random_traces
from hypermon.errors import FragmentError
from hypermon.formula import AtomRef, QuantifiedFormula, classify_prefix, desugar
from hypermon.parser import parse_formula
from hypermon.semantics import Trace, eval_quantified
from hypermon.template import build_template, materialize
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

    def test_forget_keeps_steps_a_stored_trace_has(self):
        tpl, qc = setup("forall p. forall q. G (a@p <-> a@q)")
        checker = DominanceChecker(tpl, qc)
        kept, other = Trace.of([{"a"}], "kept"), Trace.of([set()], "other")
        store = TraceStore()
        for t in (kept, other):
            assert store.add(t, checker) is True
        both = {(kept.steps, "p"), (other.steps, "p")}
        assert set(checker._cache) == both
        # a copy hit builds nothing, so it frees nothing
        assert store.add(kept.renamed("copy"), checker) is False
        assert set(checker._cache) == both and checker.copy_hits == 1
        checker.forget(other)
        assert set(checker._cache) == {(kept.steps, "p")}


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
            assert store.add(t, checker) is True
        checks = checker.inclusion_checks
        out = minimize_store(tpl, qc, store, b.renamed("twin"), checker)
        assert checker.inclusion_checks == checks and checker.copy_hits == 1
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
                stored = store.add(fresh, checker)
                assert stored == (store.traces[-1] is fresh)
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


def cache_within_store(checker, store) -> bool:
    """Every cached dominance automaton belongs to a stored trace's steps."""
    variables = checker.template.free_variables
    stored = {(t.steps, v) for t in store.traces for v in variables}
    return set(checker._cache) <= stored


class TestCopyIndex:
    def stream(self, rng, store, checker, pool, tag):
        """Feed random pool traces, sometimes with no checker; every drop
        must name the linear scan's first dominator, and the cache must stay
        within the stored steps."""
        for i in range(12):
            fresh = rng.choice(pool).renamed(f"{tag}{i}")
            if rng.random() < 0.15:
                assert store.add(fresh) is True  # appended unchecked: not indexed
                continue
            expected = linear_dominator(checker, store, fresh)
            assert store.add(fresh, checker) is (expected is None)
            if expected is not None:
                assert store.dropped[-1] == (fresh.name, expected)
            assert cache_within_store(checker, store)

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
                self.stream(rng, store, checker, pool, "s")
                store = store.copy()
                self.stream(rng, store, checker, pool, "c")
                hits += checker.copy_hits
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
        store = TraceStore()
        a_b = Trace.of([{"a"}, {"b"}], "a_b")
        assert store.add(a_b, checker) is True
        assert not store.drop_if_copy(a_b.renamed("twin"), None)
        assert store.drop_if_copy(a_b.renamed("twin"), checker)
        assert store.dropped == [("twin", "a_b")] and checker.copy_hits == 1
        assert checker.inclusion_checks == 0


def counter3_corpora():
    """Small counter3 corpora: biased as on the stream workload, the same
    cut to seeded lengths (empty traces included), and unbiased."""
    def corpus(tag, length, seed, bias=None):
        runs = random_traces("counter3", 40, length, seed, bias)
        return [c.to_trace(f"{tag}{i:02d}") for i, c in enumerate(runs)]

    biased = {"incr": 0.85, "decr": 0.05}
    cut_rng = random.Random(1)
    return {
        "biased": corpus("b", 12, 7, biased),
        "cut": [
            Trace(t.steps[:cut_rng.randint(0, 12)], t.name)
            for t in corpus("c", 12, 8, biased)
        ],
        "unbiased": corpus("u", 8, 9),
    }


class TestLastRefutingWord:
    """The last refuting word changes no dominance answer and no store outcome."""

    # body, and the atoms an instance alphabet has per bound variable
    BODIES = (
        ("(overflow@p <-> overflow@q) W !(decr@p <-> decr@q)", {"p": 2, "q": 2}),
        ("G (overflow@p -> (incr@q & decr@q))", {"p": 2, "q": 1}),
    )

    @staticmethod
    def reference(tpl, qc):
        """Dominance decided by language_included on materialized instances."""
        instances = {}

        def included(t1, t2, var):
            dfas = []
            for t in (t1, t2):
                key = (t.steps, var)
                if key not in instances:
                    instances[key] = materialize(tpl.instantiate(t, var).automaton)
                dfas.append(instances[key])
            return language_included(*dfas)[0]

        def dominates(t1, t2):
            variables = tpl.free_variables
            if qc.kind == "forall_n":
                return all(included(t1, t2, v) for v in variables)
            if qc.kind == "exists_n":
                return all(included(t2, t1, v) for v in variables)
            univ, exis = variables
            return included(t1, t2, univ) and included(t2, t1, exis)

        return dominates

    @pytest.mark.parametrize("body, widths", BODIES, ids=("stream-spec", "unequal-widths"))
    @pytest.mark.parametrize("shape", PREFIXES, ids=("AA", "EE", "AE"))
    def test_answers_match_language_inclusion(self, body, widths, shape):
        qf = QuantifiedFormula(shape, parse_formula(f"forall p. forall q. {body}").body)
        tpl = build_template(desugar(qf.body), ("p", "q"))
        qc = classify_prefix(qf)
        empty = Trace.of([], "empty")
        assert {v: len(tpl.instantiate(empty, v).support) for v in widths} == widths
        refuted = 0
        for corpus in counter3_corpora().values():
            reference = self.reference(tpl, qc)
            checker = DominanceChecker(tpl, qc)
            answers = []
            dominates = checker.dominates

            def recorded(t1, t2):
                answers.append((t1, t2, dominates(t1, t2)))
                return answers[-1][2]

            checker.dominates = recorded
            store = TraceStore()
            for fresh in corpus:
                expected = next(
                    (old.name for old in store.traces if reference(old, fresh)), None
                )
                dropped = list(store.dropped)
                assert store.add(fresh, checker) is (expected is None)
                if expected is not None:
                    dropped.append((fresh.name, expected))
                assert store.dropped == dropped
            for t1, t2, answer in answers:
                assert answer == reference(t1, t2), (t1.name, t2.name)
            refuted += checker.witness_refutations
        assert refuted > 0

    @pytest.mark.parametrize("props, cases", [
        (("a", "b"), 300),  # 4 letters per instance, as on counter3
        (tuple("abcdefgh"), 40),  # 256 letters per instance, as on xor4
    ], ids=("4-letters", "256-letters"))
    def test_refutes_exactly_the_uncovered_words(self, rng, props, cases):
        # one checker per body, and scans as in a store: each trace of a
        # pool is checked against every other one, so a kept word meets
        # pairs with the same right side and pairs with a new one
        support = tuple(sorted(AtomRef(p, v) for p in props for v in ("p", "q")))
        checks = held = witnessed = 0
        for _ in range(cases):
            body = desugar(random_body(rng, 3, props=props))
            tpl = build_template(body, ("p", "q"), support=support)
            qc = classify_prefix(QuantifiedFormula((("forall", "p"), ("forall", "q")), body))
            checker = DominanceChecker(tpl, qc)
            pool = [random_trace(rng, f"t{i}", 3, props=props) for i in range(3)]
            for fresh, old in itertools.permutations(pool, 2):
                for var in ("p", "q"):
                    a, b = checker._instance(old, var), checker._instance(fresh, var)
                    included = _uncovered_word(a, b) is None
                    assert checker._included(old, fresh, var) == included, str(body)
                    held += included
            checks += checker.inclusion_checks
            witnessed += checker.witness_refutations
        assert held >= cases // 10 and checks - held >= cases // 10
        assert witnessed > 0

    def test_included_counts_witness_refutations(self, monkeypatch):
        searches = []

        def counted(a, b):
            searches.append((a, b))
            return _uncovered_word(a, b)

        monkeypatch.setattr("hypermon.trace_analysis._uncovered_word", counted)
        tpl, qc = setup("forall p. forall q. G (a@p <-> a@q)")
        checker = DominanceChecker(tpl, qc)
        t1, t2 = Trace.of([{"a"}], "t1"), Trace.of([set()], "t2")
        # the first refuted check runs a search and keeps its word
        assert not checker.dominates(t1, t2)
        assert checker.inclusion_checks == 1 and checker.witness_refutations == 0
        assert len(searches) == 1 and "p" in checker._witness
        # a later check that the kept word refutes runs no search
        assert not checker.dominates(t1, Trace.of([set(), {"a"}], "t3"))
        assert checker.inclusion_checks == 2 and checker.witness_refutations == 1
        assert len(searches) == 1


class TestOneRunPerWord:
    """Each cached instance runs the last refuting word at most once."""

    def test_no_automaton_runs_a_word_twice_in_a_row(self, monkeypatch):
        runs = []  # (DFA, word), every run of a kept word
        accepts = Dfa.accepts

        def recorded(dfa, word):
            runs.append((dfa, word))
            return accepts(dfa, word)

        monkeypatch.setattr(Dfa, "accepts", recorded)
        tpl, qc = setup(
            "forall p. forall q. (overflow@p <-> overflow@q) W !(decr@p <-> decr@q)"
        )
        refuted = 0
        for corpus in counter3_corpora().values():
            checker = DominanceChecker(tpl, qc)
            store = TraceStore()
            for fresh in corpus:
                store.add(fresh, checker)
            refuted += checker.witness_refutations
        # a refutation runs the word on both sides; within a scan the fresh
        # trace's side is the same instance, so the memo makes fewer than two
        # runs per refutation
        assert refuted > len(runs) // 2 > 0
        last = {}
        for dfa, word in runs:
            assert last.get(id(dfa)) is not word
            last[id(dfa)] = word
