import dataclasses
import itertools
import logging
import math
import operator
import pickle
import random

import pytest

from hypermon import cli, engine, semantics, template
from hypermon.circuits import independence_property, random_traces
from hypermon.engine import MonitorOptions, Session
from hypermon.formula import (
    And,
    Atom,
    AtomRef,
    Iff,
    Implies,
    Or,
    QuantifiedFormula,
    collect_alphabet,
    desugar,
    pretty_quantified,
    rename_variables,
)
from hypermon.errors import ResourceLimitError
from hypermon.parser import parse_formula
from hypermon.prefix_tree import PrefixTree
from hypermon.semantics import Trace, eval_body, eval_quantified
from hypermon.trace_analysis import DominanceChecker
from hypermon.traceio import load_trace, parse_trace, save_trace

from conftest import random_body, random_trace, trie_serials
from test_golden_runs import CORPORA as GOLDEN_CORPORA, SPEC as GOLDEN_SPEC

EQ = "forall p. forall q. G (a@p <-> a@q)"
OBSDET = "forall p. forall q. (o@p <-> o@q) W !(i@p <-> i@q)"


def trie_leaves(session) -> dict:
    """Per trie variable, the names of the traces whose leaves it holds, in
    serial order."""
    names = {serial: name for name, serial in session._serials.items()}
    leaves = {}
    for var, tree in session._tries.items():
        serials = sorted(trie_serials(tree.root))
        assert serials == sorted(tree.leaves)
        leaves[var] = [names[s] for s in serials]
    return leaves


def tries_hold_the_store(session) -> bool:
    """Each trie has exactly one leaf per stored trace, and the serials run
    in store order."""
    names = session.store.names()
    order = [session._serials[name] for name in names]
    return (len(session._serials) == len(names) and order == sorted(order)
            and all(leaves == names for leaves in trie_leaves(session).values()))


def feed(session, traces):
    """Process traces until a violation; returns (index, verdict) or (None, last)."""
    verdict = None
    for i, t in enumerate(traces):
        verdict = session.process_trace(t)
        if verdict.is_violation:
            return i, verdict
    return None, verdict


class TestUniversalSessions:
    def test_eq_violation_names_both_traces(self):
        session = Session(parse_formula(EQ))
        assert not session.process_trace(Trace.of([{"a"}], "t1")).is_violation
        verdict = session.process_trace(Trace.of([set()], "t2"))
        assert verdict.is_violation
        assert verdict.counterexample.assignment == (("p", "t1"), ("q", "t2"))
        assert verdict.counterexample.rejecting_position == 1

    def test_same_trace_twice_is_clean_with_zero_instances(self):
        session = Session(parse_formula(OBSDET))
        t = Trace.of([{"i", "o"}, {"o"}], "t1")
        assert not session.process_trace(t).is_violation
        assert session.stats.instances_run == 0  # reflexive skip
        assert not session.process_trace(t.renamed("t2")).is_violation

    def test_obsdet_session_reductions(self):
        session = Session(parse_formula(OBSDET))
        assert session.symmetric and session.reflexive
        assert not session.transitive

    def test_symmetric_reflexive_pair_counting(self):
        # ObsDet is symmetric+reflexive but not transitive: k traces cost
        # k*(k-1)/2 instances
        session = Session(
            parse_formula(OBSDET), MonitorOptions(trace_analysis=False)
        )
        for i in range(6):
            session.process_trace(Trace.of([{"i", "o"}, {"i"}], f"t{i}"))
        assert session.stats.instances_run == 15

    def test_transitive_formula_checks_one_representative(self):
        session = Session(parse_formula(EQ), MonitorOptions(trace_analysis=False))
        for i in range(6):
            session.process_trace(Trace.of([{"a"}], f"t{i}"))
        assert session.stats.instances_run == 5  # one comparison per fresh trace

    def test_no_reductions_counts_ordered_tuples(self):
        session = Session(
            parse_formula(OBSDET),
            MonitorOptions(trace_analysis=False, spec_analysis=False),
        )
        for i in range(4):
            session.process_trace(Trace.of([{"i", "o"}], f"t{i}"))
        # fresh trace against k stored: 2k ordered pairs plus the self pair
        assert session.stats.instances_run == sum(2 * k + 1 for k in range(4))

    def test_counterexample_is_rechecked_invalid_tuple(self):
        from hypermon.semantics import eval_body

        qf = parse_formula(EQ)
        session = Session(qf)
        session.process_trace(Trace.of([{"a"}], "t1"))
        verdict = session.process_trace(Trace.of([set()], "t2"))
        names = dict(verdict.counterexample.assignment)
        assignment = {
            "p": Trace.of([{"a"}], names["p"]),
            "q": Trace.of([set()], names["q"]),
        }
        assert not session.template.accepts(assignment)
        assert not eval_body(assignment, qf.body)

    def test_verdict_is_sticky_after_violation(self):
        session = Session(parse_formula(EQ))
        session.process_trace(Trace.of([{"a"}], "t1"))
        first = session.process_trace(Trace.of([set()], "t2"))
        again = session.process_trace(Trace.of([{"a"}, {"a"}], "t3"))
        assert again == first
        assert session.stats.traces_seen == 2  # t3 was not processed

    def test_continue_after_violation(self):
        session = Session(
            parse_formula(EQ), MonitorOptions(continue_after_violation=True)
        )
        session.process_trace(Trace.of([{"a"}], "t1"))
        assert session.process_trace(Trace.of([set()], "t2")).is_violation
        third = session.process_trace(Trace.of([{"a"}, {"a"}], "t3"))
        assert third.is_violation  # t3 still conflicts with a stored trace
        assert session.stats.traces_seen == 3

    def test_inclusion_checks_synced_after_violations(self):
        # the copy index is all the trace analysis a session runs, so no
        # trace, kept, dropped or violating, makes an inclusion check
        session = Session(
            parse_formula(EQ), MonitorOptions(continue_after_violation=True)
        )
        session.process_trace(Trace.of([{"a"}], "t1"))
        # passes its tuples and is not a copy: it is stored, though t1
        # dominates it
        assert not session.process_trace(Trace.of([{"a"}, set()], "pass")).is_violation
        assert not session.process_trace(Trace.of([{"a"}], "copy")).is_violation
        for i, steps in enumerate(([set()], [set(), {"a"}], [set(), set()])):
            assert session.process_trace(Trace.of(steps, f"v{i}")).is_violation
        assert session.store.names() == ["t1", "pass"]
        assert session.store.dropped == [("copy", "t1")]
        assert session.stats.inclusion_checks == 0

    def test_masks_kept_for_stored_traces_only(self):
        session = Session(
            parse_formula("forall p. forall q. a@p -> !b@q"),
            MonitorOptions(continue_after_violation=True),
        )
        session.process_trace(Trace.of([set()], "blank"))
        session.process_trace(Trace.of([{"a"}, {"b"}], "a_b"))  # dominates blank
        session.process_trace(Trace.of([set()], "copy"))  # dropped
        assert session.process_trace(Trace.of([{"b"}], "b")).is_violation
        assert session.store.names() == ["blank", "a_b"]
        assert session.store.dropped == [("copy", "blank")]
        assert set(session._tries) == {"p", "q"}  # not symmetric
        assert trie_leaves(session) == {"p": ["blank", "a_b"], "q": ["blank", "a_b"]}

    def test_duplicate_names_rejected(self):
        session = Session(parse_formula(EQ))
        session.process_trace(Trace.of([{"a"}], "t"))
        with pytest.raises(ValueError):
            session.process_trace(Trace.of([{"a"}], "t"))

    def test_duplicate_names_rejected_after_a_violation(self):
        session = Session(parse_formula(EQ))
        session.process_trace(Trace.of([{"a"}], "t1"))
        assert session.process_trace(Trace.of([set()], "t2")).is_violation
        for name in ("t1", "t2"):
            with pytest.raises(ValueError):
                session.process_trace(Trace.of([{"a"}], name))
        # a trace the sticky verdict skips is still recorded
        assert session.process_trace(Trace.of([{"a"}], "t3")).is_violation
        with pytest.raises(ValueError):
            session.process_trace(Trace.of([{"a"}], "t3"))
        assert session.stats.traces_seen == 2

    def test_duplicate_of_dropped_name_rejected(self):
        session = Session(parse_formula(EQ))
        session.process_trace(Trace.of([{"a"}], "t1"))
        session.process_trace(Trace.of([{"a"}], "t2"))
        assert session.store.dropped == [("t2", "t1")]
        with pytest.raises(ValueError):
            session.process_trace(Trace.of([set()], "t2"))

    def test_extra_propositions_projected_with_warning(self, caplog, monkeypatch):
        text = ("trace {} carries propositions {} not in the specification; "
                "ignoring them here and in later traces")
        stream = [
            ("t1", "a,zz\n", ["zz"]),
            ("t2", "a,zz\na\n", []),  # the table already holds both steps
            ("t3", "zz\nxx,a,yy\na,zz\n", ["xx", "yy"]),
            ("t4", "a,yy\nzz\n", []),  # a new step, no new proposition
            ("t5", "{}\nww,zz\n", ["ww"]),
        ]
        for size in (engine.TABLE_SIZE, 1):  # 1: cleared before every miss
            monkeypatch.setattr(engine, "TABLE_SIZE", size)
            # a fresh session warns again on the same shared steps
            session = Session(parse_formula(EQ), MonitorOptions(
                continue_after_violation=True))
            for name, lines, unseen in stream:
                caplog.clear()
                with caplog.at_level(logging.WARNING, logger="hypermon.engine"):
                    session.process_trace(parse_trace(lines, name))
                got = [rec.getMessage() for rec in caplog.records]
                assert got == ([text.format(name, unseen)] if unseen else []), name
                assert len(session._projection) <= size
            assert all(step <= {"a"} for t in session.store.traces for step in t.steps)
            if size > 1:  # every projection of {a} is one object
                table = session._projection
                assert table[frozenset({"a", "zz"})] is table[frozenset({"a"})]

    def test_replay_reports_same_index(self, rng):
        traces = [random_trace(rng, f"t{i}") for i in range(8)]
        indexes = []
        for _ in range(2):
            session = Session(parse_formula(EQ))
            idx, _ = feed(session, traces)
            indexes.append(idx)
        assert indexes[0] == indexes[1]

    def test_empty_prefix_false_body(self):
        session = Session(parse_formula("false"))
        assert session.verdict().is_violation

    def test_agreement_with_direct_evaluation(self, rng):
        for _ in range(60):
            body = random_body(rng, 3)
            qf = QuantifiedFormula((("forall", "p"), ("forall", "q")), body)
            traces = [random_trace(rng, f"t{i}", 4) for i in range(5)]
            session = Session(
                qf, MonitorOptions(trace_analysis=False, spec_analysis=False)
            )
            violated = feed(session, traces)[0] is not None
            assert violated == (not eval_quantified(traces, qf))


class TestProvisionalSessions:
    def test_exists_verdict_can_flip(self):
        qf = parse_formula("exists p. exists q. G (a@p <-> a@q) & F a@p")
        session = Session(qf)
        assert session.provisional
        first = session.process_trace(Trace.of([set()], "t1"))
        assert first.is_violation  # nothing satisfies the body yet
        second = session.process_trace(Trace.of([{"a"}], "t2"))
        assert not second.is_violation  # the pair (t2, t2) works now

    def test_exists_exists_finds_a_pair_in_either_order(self):
        qf = parse_formula("exists p. exists q. a@p & b@q")
        for first, second in (({"a"}, {"b"}), ({"b"}, {"a"})):
            session = Session(qf, MonitorOptions(trace_analysis=False))
            assert session.process_trace(Trace.of([first], "t1")).is_violation
            # the fresh trace completes the pair at q, or at p
            assert not session.process_trace(Trace.of([second], "t2")).is_violation

    def test_forall_exists_counterexample_names_universal_trace(self):
        qf = parse_formula("forall p. exists q. F (a@p & a@q) | !(F a@p)")
        session = Session(qf, MonitorOptions(trace_analysis=False))
        verdict = session.process_trace(Trace.of([{"a"}], "lone"))
        assert not verdict.is_violation  # (lone, lone) pairs with itself

    def test_dominance_cache_bounded_by_store(self, rng):
        # no tuple loop pairs traces here, so no copy index is built and
        # every trace is stored
        for _ in range(20):
            qf = QuantifiedFormula((("forall", "p"), ("exists", "q")), random_body(rng, 3))
            session = Session(qf)
            assert not session.trace_analysis
            for i in range(12):
                session.process_trace(random_trace(rng, f"t{i}", 4))
            assert len(session.store) == 12 and not session.store.dropped

    def test_forall_exists_violation(self):
        # a@p must be followed somewhere by b on the partner trace
        qf = parse_formula("forall p. exists q. a@p -> b@q")
        session = Session(qf, MonitorOptions(trace_analysis=False))
        verdict = session.process_trace(Trace.of([{"a"}], "t1"))
        assert verdict.is_violation
        assert verdict.counterexample.assignment == (("p", "t1"),)
        # adding a b-trace repairs it
        assert not session.process_trace(Trace.of([{"b"}], "t2")).is_violation


def _whole_store_rule(session, fresh):
    """The provisional step over the whole store: store the trace, take the
    verdict of ``eval_quantified`` on the stored set and, under ∀∃, name the
    first stored trace with no witness."""
    session.store.add(fresh)
    traces, qf = session.store.traces, session.qf
    if eval_quantified(traces, qf):
        return engine.CLEAN
    if session.qclass.kind == "forall_exists":
        univ, exis = session.variables
        for t in traces:
            if not any(eval_body({univ: t, exis: s}, qf.body) for s in traces):
                return engine.Verdict(engine.CounterExample(((univ, t.name),), None))
    return engine.Verdict(engine.CounterExample((), None))


def _short_traces(rng, count):
    """``count`` traces of 1..5 steps each, so that traces differ in length."""
    return [
        Trace.of([{p for p in ("a", "b") if rng.random() < 0.5}
                  for _ in range(rng.randint(1, 5))], f"t{j}")
        for j in range(count)
    ]


class TestIncrementalProvisional:
    """Provisional prefixes decide each fresh trace's tuples and the rows
    still open on their own; outputs must equal the whole-store rule after
    every trace."""

    @staticmethod
    def _specs(rng):
        for i in range(150):
            shape = ("AE", "EA", "EE")[i % 3]
            prefix = tuple(
                ("forall" if quant == "A" else "exists", var)
                for quant, var in zip(shape, ("p", "q"))
            )
            if i % 2:
                body = random_body(rng, 3)
            else:
                # a condition on p joined to one on q: which trace takes which
                # variable matters, so a pair missed in one order shows
                first = random_body(rng, 1, variables=("p",))
                second = random_body(rng, 1, variables=("q",))
                body = rng.choice((
                    And((first, second)), Or((first, second)),
                    Implies(first, second), Iff(first, second),
                ))
            yield QuantifiedFormula(prefix, body), _short_traces(rng, 12)
        # ∃, every mixed shape of three quantifiers, ∃∃∃, and one of four
        for shape in ("E", "AAE", "AEA", "AEE", "EAA", "EAE", "EEA", "EEE", "AEAE"):
            variables = ("p", "q", "r", "s")[:len(shape)]
            prefix = tuple(
                ("forall" if quant == "A" else "exists", var)
                for quant, var in zip(shape, variables)
            )
            for _ in range(10):
                body = random_body(rng, 3, variables=variables)
                count = 5 if len(shape) == 4 else 6
                yield QuantifiedFormula(prefix, body), _short_traces(rng, count)
        # rows catch up on several traces at once: at t2 the root stops at
        # p = t0, and t2 refutes the row of p = t1 that t3 reads next
        qf = parse_formula("forall p. exists q. forall r. (a@p <-> a@q) & (z@r -> w@q)")
        steps = ({"a"}, set(), {"z", "a"}, {"a", "w"})
        yield qf, [Trace.of([step], f"t{j}") for j, step in enumerate(steps)]

    def test_same_outputs_as_the_whole_store_rule(self, rng):
        seen = {"violations": 0, "clean": 0, "flips": 0, "one": 0, "three": 0, "four": 0}
        flipped = set()
        for qf, traces in self._specs(rng):
            for ta in (False, True):
                session = Session(qf, MonitorOptions(trace_analysis=ta))
                reference = Session(qf, MonitorOptions(trace_analysis=ta))
                reference._process_provisional = (
                    lambda fresh, ref=reference: _whole_store_rule(ref, fresh)
                )
                previous = None
                for j, t in enumerate(traces):
                    got = session.process_trace(t)
                    assert got == reference.process_trace(t), (str(qf), ta, t.name)
                    assert got.is_violation != eval_quantified(traces[:j + 1], qf)
                    # a one-variable prefix keeps no store
                    stored = reference.store.names() if qf.prefix[1:] else []
                    assert session.store.names() == stored
                    assert session.store.dropped == reference.store.dropped
                    seen["violations" if got.is_violation else "clean"] += 1
                    if previous is not None and previous != got.is_violation:
                        seen["flips"] += 1
                        flipped.add(session.qclass.shape)
                    previous = got.is_violation
                seen["one"] += session.qclass.n == 1
                seen["three"] += session.qclass.n == 3
                seen["four"] += session.qclass.n == 4
        assert all(seen.values()), seen
        # every shape of three or more quantifiers flips on some stream
        assert {"AAE", "AEA", "AEE", "EAA", "EAE", "EEA", "EEE", "AEAE"} <= flipped, flipped

    @staticmethod
    def _count_steps(monkeypatch):
        """A list that grows by one per ``TemplateAutomaton.step`` call."""
        steps = []
        step = template.TemplateAutomaton.step
        monkeypatch.setattr(
            template.TemplateAutomaton, "step",
            lambda auto, state, letter: steps.append(1) or step(auto, state, letter),
        )
        return steps

    def test_forall_exists_work_per_trace_is_flat(self, monkeypatch):
        qf = parse_formula("forall p. exists q. a@p | !a@p | a@q")
        session = Session(qf, MonitorOptions(trace_analysis=False))
        steps = self._count_steps(monkeypatch)
        rng = random.Random(5)
        work = []
        for i in range(100):
            before = len(steps)
            # a body that holds on every pair: any partner is a witness
            assert not session.process_trace(random_trace(rng, f"t{i}", 4)).is_violation
            work.append(len(steps) - before)
        assert len(session.store) == 100
        assert 0 < max(work[50:]) <= max(work[:10]), work

    def test_exists_work_per_trace_is_flat(self, monkeypatch):
        qf = parse_formula("exists p. a@p & X a@p")
        session = Session(qf)
        steps = self._count_steps(monkeypatch)
        rng = random.Random(5)
        work = []
        for i in range(100):
            before = len(steps)
            # no trace of a single step can satisfy the body; the empty
            # trace is decided without a step
            trace = Trace.of([{"a"}] if i % 2 else [], f"t{i}")
            assert session.process_trace(trace).is_violation
            work.append(len(steps) - before)
        assert work == [0, 1] * 50 and len(session.store) == 0
        assert not session.process_trace(Trace.of([{"a"}, {"a"}], "hit")).is_violation
        before = len(steps)
        for i in range(10):
            assert not session.process_trace(random_trace(rng, f"u{i}", 4)).is_violation
        assert len(steps) == before  # a satisfied ∃ prefix stays satisfied

    # automaton steps over the whole stream, per (shape, bias)
    MIXED_STEPS = {
        ("AAE", "unbiased"): 2858, ("AAE", "biased"): 331,
        ("EAA", "unbiased"): 1159, ("EAA", "biased"): 2044,
        ("AEA", "unbiased"): 2135, ("AEA", "biased"): 2417,
    }

    @pytest.mark.parametrize("bias", (None, {"incr": 0.85, "decr": 0.05}),
                             ids=("unbiased", "biased"))
    @pytest.mark.parametrize("shape", ("AAE", "EAA", "AEA"))
    def test_mixed_three_quantifier_work_per_trace(self, monkeypatch, shape, bias):
        # the counter3 body over (p, q) and (q, r): a fresh trace decides the
        # tuples that hold it and the rows still open, not all k³ of them
        pair = independence_property("counter3", ("incr",), ("overflow",)).body
        body = And((pair, rename_variables(pair, {"p": "q", "q": "r"})))
        prefix = tuple(
            ("forall" if quant == "A" else "exists", var)
            for quant, var in zip(shape, ("p", "q", "r"))
        )
        session = Session(QuantifiedFormula(prefix, body))
        steps = self._count_steps(monkeypatch)
        corpus = random_traces("counter3", 30, 8, 1, bias=bias)
        for i, c in enumerate(corpus):
            before = len(steps)
            session.process_trace(c.to_trace(f"t{i}"))
        assert len(session.store) == 30
        assert 0 < len(steps) - before <= 6 * 30, len(steps) - before
        assert len(steps) == self.MIXED_STEPS[shape, "biased" if bias else "unbiased"]

    @pytest.mark.parametrize("text, walks, steps, first_clean", [
        ("exists p. exists q. F (overflow@p & X overflow@q)", 29, 631, 15),
        ("exists p. exists q. F overflow@p & F overflow@q & "
         "!(overflow@p <-> overflow@q)", 398, 598, None),
    ], ids=("satisfied-late", "never-satisfied"))
    def test_exists_exists_work_on_a_seeded_stream(
            self, monkeypatch, text, walks, steps, first_clean):
        # the fresh trace's row (p = fresh, one walk of the q-trie), then its
        # column (q = fresh, one walk of the p-trie), then the pair with
        # itself, until a pair is found
        session = Session(parse_formula(text))
        counted = self._count_steps(monkeypatch)
        read = []
        first_serial = PrefixTree.first_serial

        def recorded(tree, *args):
            read.append(next(v for v, t in session._tries.items() if t is tree))
            return first_serial(tree, *args)

        monkeypatch.setattr(PrefixTree, "first_serial", recorded)
        corpus = random_traces("counter3", 200, 12, 5, bias={"incr": 0.7, "decr": 0.2})
        clean = [
            i for i, c in enumerate(corpus)
            if not session.process_trace(c.to_trace(f"t{i}")).is_violation
        ]
        assert (len(read), len(counted)) == (walks, steps)
        assert read == ["q", "p"] * (walks // 2) + ["q"] * (walks % 2)
        assert (clean[0] if clean else None) == first_clean


PROVISIONAL_SHAPES = ("E", "AE", "EA", "EE", "AAE", "AEA", "AEE", "EAA", "EAE", "EEA", "EEE")


def _oracle_corpus(rng, count):
    """``count`` traces over ``a`` and ``b``: random ones of 0..4 steps, so
    lengths differ, empty ones, and projected copies of earlier traces (the
    same steps plus ``z``, which no spec mentions)."""
    traces = []
    for j in range(count):
        pick = rng.random()
        if traces and pick < 0.25:
            steps = [step | {"z"} for step in rng.choice(traces).steps]
            traces.append(Trace.of(steps, f"t{j}"))
        elif pick < 0.35:
            traces.append(Trace((), f"t{j}"))
        else:
            traces.append(random_trace(rng, f"t{j}", 4))
    return traces


def _provisional_outputs(qf, options, traces):
    """Per-trace verdicts, up to the first ``ResourceLimitError``; and
    whether one was raised."""
    verdicts = []
    try:
        session = Session(qf, options)
        for t in traces:
            verdicts.append(session.process_trace(t))
    except ResourceLimitError:
        return verdicts, True
    return verdicts, False


def _expected_verdict(qf, traces):
    """The oracle's verdict over ``traces``: ``eval_quantified``, and under
    ∀∃ the first trace, in store order, with no witness."""
    if eval_quantified(traces, qf):
        return engine.CLEAN
    if [q for q, _ in qf.prefix] == ["forall", "exists"]:
        (_, univ), (_, exis) = qf.prefix
        for t in traces:
            if not any(eval_body({univ: t, exis: s}, qf.body) for s in traces):
                return engine.Verdict(engine.CounterExample(((univ, t.name),), None))
    return engine.Verdict(engine.CounterExample((), None))


def test_every_provisional_shape_agrees_with_the_oracle(monkeypatch):
    """Seeded differential of the automaton path against ``eval_quantified``
    after every trace, over every prefix of up to three quantifiers that is
    not all-universal, with trace analysis on and off.  The session itself
    never calls the evaluator, and a tiny state limit either changes
    nothing or raises ``ResourceLimitError``."""

    def refuse(*args):
        raise AssertionError("the session called eval_quantified")

    monkeypatch.setattr(semantics, "eval_quantified", refuse)
    monkeypatch.setattr(engine, "eval_quantified", refuse)
    rng = random.Random(2029)
    seen = {"violations": 0, "clean": 0, "flips": 0, "named": 0, "tripped": 0}
    for shape in PROVISIONAL_SHAPES:
        variables = ("p", "q", "r")[:len(shape)]
        prefix = tuple(
            ("forall" if quant == "A" else "exists", var)
            for quant, var in zip(shape, variables)
        )
        for _ in range(30 if len(shape) < 3 else 14):
            qf = QuantifiedFormula(prefix, random_body(rng, 3, variables=variables))
            traces = _oracle_corpus(rng, 10 if len(shape) < 3 else 7)
            expected = [_expected_verdict(qf, traces[:j + 1]) for j in range(len(traces))]
            for ta in (False, True):
                got, raised = _provisional_outputs(qf, MonitorOptions(trace_analysis=ta), traces)
                assert not raised and got == expected, (str(qf), ta)
                limited, raised = _provisional_outputs(
                    qf, MonitorOptions(trace_analysis=ta, state_limit=2), traces)
                assert limited == expected[:len(limited)], (str(qf), ta)
                assert raised or len(limited) == len(traces)
                seen["tripped"] += raised
            flags = [v.is_violation for v in expected]
            seen["violations"] += sum(flags)
            seen["clean"] += len(flags) - sum(flags)
            seen["flips"] += sum(a != b for a, b in zip(flags, flags[1:]))
            seen["named"] += sum(bool(v.is_violation and v.counterexample.assignment)
                                 for v in expected)
    assert all(seen.values()), seen


class TestOptimizationTransparencyMini:
    def test_four_configurations_agree(self, rng):
        for _ in range(25):
            body = random_body(rng, 3)
            qf = QuantifiedFormula((("forall", "p"), ("forall", "q")), body)
            traces = [random_trace(rng, f"t{i}", 4) for i in range(6)]
            outcomes = set()
            for ta in (False, True):
                for sa in (False, True):
                    session = Session(
                        qf, MonitorOptions(trace_analysis=ta, spec_analysis=sa)
                    )
                    outcomes.add(feed(session, traces)[0] is not None)
            assert len(outcomes) == 1


class TestPerTraceVerdicts:
    def test_four_configurations_give_the_same_verdict_sequence(self, rng):
        for _ in range(30):
            body = random_body(rng, 3)
            qf = QuantifiedFormula((("forall", "p"), ("forall", "q")), body)
            traces = [random_trace(rng, f"t{i}", 4) for i in range(7)]
            by_name = {t.name: t for t in traces}
            sequences = set()
            for ta in (False, True):
                for sa in (False, True):
                    session = Session(qf, MonitorOptions(
                        trace_analysis=ta, spec_analysis=sa,
                        continue_after_violation=True,
                    ))
                    verdicts = [session.process_trace(t) for t in traces]
                    sequences.add(tuple(v.is_violation for v in verdicts))
                    for v in verdicts:
                        if v.is_violation:
                            assignment = {
                                var: by_name[name]
                                for var, name in v.counterexample.assignment
                            }
                            assert not eval_body(assignment, body), (str(qf), ta, sa)
            assert len(sequences) == 1, str(qf)


class TestThreeQuantifiers:
    def test_engine_agrees_with_direct_evaluation(self, rng):
        variables = ("p", "q", "r")
        for _ in range(30):
            body = random_body(rng, 3, variables=variables)
            qf = QuantifiedFormula(tuple(("forall", v) for v in variables), body)
            traces = [random_trace(rng, f"t{i}", 3) for i in range(4)]
            expected = any(
                not eval_quantified(traces[: k + 1], qf) for k in range(len(traces))
            )
            for ta in (False, True):
                for sa in (False, True):
                    session = Session(
                        qf, MonitorOptions(trace_analysis=ta, spec_analysis=sa)
                    )
                    hit = feed(session, traces)[0] is not None
                    assert hit == expected, (str(qf), ta, sa)

    def test_reflexive_skip_covers_all_same_triples(self):
        # reflexive but not symmetric, so the unordered generator runs
        text = "forall p0. forall p1. forall p2. G ((i@p0 -> i@p1) & (o@p1 -> o@p2))"
        session = Session(parse_formula(text))
        assert session.reflexive and not session.symmetric
        verdict = session.process_trace(Trace.of([{"i", "o"}], "t0"))
        assert not verdict.is_violation
        assert session.stats.instances_run == 0  # only the all-same triple arose

    def test_symmetric_bodies_run_one_tuple_per_permutation_class(self, rng):
        variables = ("p", "q", "r")
        pairs = list(itertools.permutations(variables, 2))
        long_streams = 0
        for _ in range(25):
            pair_body = random_body(rng, 3, variables=("x", "y"))
            body = And(tuple(
                rename_variables(pair_body, {"x": a, "y": b}) for a, b in pairs
            ))
            qf = QuantifiedFormula(tuple(("forall", v) for v in variables), body)
            traces = [random_trace(rng, f"t{i}", 3) for i in range(6)]
            by_name = {t.name: t for t in traces}
            sequences = set()
            for ta in (False, True):
                for sa in (False, True):
                    session = Session(qf, MonitorOptions(
                        trace_analysis=ta, spec_analysis=sa,
                        continue_after_violation=True,
                    ))
                    assert session.symmetric == sa, str(qf)
                    verdicts = [session.process_trace(t) for t in traces]
                    sequences.add(tuple(v.is_violation for v in verdicts))
                    for v in verdicts:
                        if v.is_violation:
                            assignment = {
                                var: by_name[name]
                                for var, name in v.counterexample.assignment
                            }
                            assert not eval_body(assignment, body), (str(qf), ta, sa)
            assert len(sequences) == 1, str(qf)
            # a violation-free stream stores every trace: the k-th one runs
            # C(k+2, 2) tuples, less the all-fresh one when reflexive
            stream = []
            for t in traces:
                if eval_quantified(stream + [t], qf):
                    stream.append(t)
            session = Session(qf, MonitorOptions(trace_analysis=False))
            assert feed(session, stream)[0] is None, str(qf)
            skip = 1 if session.reflexive else 0
            expected = sum(math.comb(k + 2, 2) - skip for k in range(len(stream)))
            assert session.stats.instances_run == expected, str(qf)
            long_streams += len(stream) >= 3
        assert long_streams >= 5


def expand_families(families, pool):
    """The tuples of ``tuples_with_last`` families, in order."""
    for fixed, slot, start in families:
        if slot is None:
            yield fixed
            continue
        for member in pool[start:-1]:
            yield fixed[:slot] + (member,) + fixed[slot + 1:]


def _product_and_filter(pool, n, skip_self, ordered=False):
    """Reference for ``tuples_with_last``: every index tuple of the product,
    kept when it holds the last index (and, when ``ordered``, when its
    indices never decrease)."""
    last = len(pool) - 1
    for combo in itertools.product(range(len(pool)), repeat=n):
        if last not in combo:
            continue
        if skip_self and len(set(combo)) == 1:
            continue
        if ordered and list(combo) != sorted(combo):
            continue
        yield tuple(pool[i] for i in combo)


@pytest.mark.parametrize("skip_self", (False, True))
def test_tuples_with_last_keeps_the_product_order(skip_self):
    for n in range(5):
        for k in range(7):
            pool = [f"t{i}" for i in range(k + 1)]
            for ordered in (False, True):
                expected = list(_product_and_filter(pool, n, skip_self, ordered))
                families = engine.tuples_with_last(pool, n, skip_self, ordered)
                got = list(expand_families(families, pool))
                assert got == expected, (n, k, ordered)
                if n == 0:
                    assert expected == []
            # transitivity restricts the pool to the first stored trace
            fresh = pool[-1]
            restricted = pool[:-1][:1] + [fresh]
            families = engine.tuples_with_last(restricted, 2, True, True)
            got = list(expand_families(families, restricted))
            assert got == ([(pool[0], fresh)] if k else [])


def _tuples_with_last_as_tuples(pool, n, skip_self=False, ordered=False):
    """``tuples_with_last`` as it was when it yielded tuples, kept verbatim."""
    if n == 0:
        return
    if ordered:
        heads = itertools.combinations_with_replacement(pool, n - 1)
        tuples = map(operator.add, heads, itertools.repeat((pool[-1],)))
        if skip_self:
            count = math.comb(len(pool) + n - 2, n - 1)
            tuples = itertools.islice(tuples, count - 1)
        yield from tuples
        return
    last = len(pool) - 1
    indices = range(len(pool))
    all_last = (last,) * n if skip_self else None
    for head in itertools.product(indices, repeat=n - 1):
        for i in indices if last in head else (last,):
            combo = head + (i,)
            if combo != all_last:
                yield tuple(pool[j] for j in combo)


@pytest.mark.parametrize("ordered", (False, True))
@pytest.mark.parametrize("skip_self", (False, True))
def test_families_expand_to_the_tuple_list(skip_self, ordered):
    for n in range(5):
        for size in range(1, 6):
            pool = [f"t{i}" for i in range(size)]
            families = list(engine.tuples_with_last(pool, n, skip_self, ordered))
            expected = list(_tuples_with_last_as_tuples(pool, n, skip_self, ordered))
            assert list(expand_families(families, pool)) == expected, (n, size)
            for fixed, slot, start in families:
                assert len(fixed) == n
                if slot is None:
                    assert None not in fixed
                    continue
                # one free slot over a non-empty run of stored traces
                assert fixed.count(None) == 1 and fixed[slot] is None
                assert slot == n - 2 or (slot == n - 1 and not ordered)
                assert 0 <= start < size - 1


def _eval_body_tuples(session, fresh):
    """Reference tuple loop: expand the families and judge each tuple with
    ``semantics.eval_body``."""
    stored = session.store.traces[:1] if session.transitive else session.store.traces
    pool = stored + [fresh]
    families = engine.tuples_with_last(
        pool, session.qclass.n, session.reflexive, session.symmetric
    )
    for tup in expand_families(families, pool):
        session.stats.instances_run += 1
        if not eval_body(dict(zip(session.variables, tup)), session.qf.body):
            return tup
    return None


def _per_trace_outputs(qf, traces, ta, sa, reference):
    """Per-trace counterexamples and ``instances_run``, and the final store
    and dropped log."""
    session = Session(qf, MonitorOptions(
        trace_analysis=ta, spec_analysis=sa, continue_after_violation=True,
    ))
    if reference:
        session._run_tuples = lambda fresh, masks_of: _eval_body_tuples(session, fresh)
    per_trace = []
    for t in traces:
        ce = session.process_trace(t).counterexample
        per_trace.append((ce, session.stats.instances_run))
        assert tries_hold_the_store(session)
    return session, (per_trace, session.store.names(), session.store.dropped)


def _eviction_stream(qf, traces):
    """The traces that form no violating tuple with the ones before them,
    reordered so that each comes after every trace it dominates: a fresh
    trace then dominates stored traces mid-stream, which the store keeps."""
    clean = Session(qf, MonitorOptions(
        trace_analysis=False, spec_analysis=False, continue_after_violation=True,
    ))
    for t in traces:
        clean.process_trace(t)
    kept = clean.store.traces
    checker = DominanceChecker(clean.template, clean.qclass)
    beaten = {t.name: sum(checker.dominates(t, u) for u in kept) for t in kept}
    return sorted(kept, key=lambda t: beaten[t.name])


TRANSITIVE_BODIES = (
    "forall p. forall q. G (a@p <-> a@q)",
    "forall p. forall q. G ((a@p <-> a@q) & (b@p <-> b@q))",
    "forall p. forall q. (a@p <-> a@q) & X (b@p <-> b@q)",
)
# bodies under which some clean traces strictly dominate others
EVICTING_BODIES = (
    "forall p. forall q. a@p -> !b@q",
    "forall p. forall q. G (a@p -> !b@q)",
    "forall p. forall q. G (a@p -> F b@q)",
    "forall p. forall q. F a@p -> F b@q",
)


class TestPrefixTreeRunner:
    """The trie runner against per-tuple ``eval_body`` over the same
    families, on traces of different lengths, empty ones included."""

    @staticmethod
    def _streams(rng):
        """(spec, traces) pairs; every other random body is made symmetric,
        and two streams in four are eviction streams (see
        ``_eviction_stream``), so both kinds of body get some."""
        specs = [parse_formula(text) for text in TRANSITIVE_BODIES + EVICTING_BODIES]
        for variables, count in ((("p",), 12), (("p", "q"), 24), (("p", "q", "r"), 16)):
            prefix = tuple(("forall", v) for v in variables)
            for i in range(count):
                body = random_body(rng, 3, variables=variables)
                if i % 2 and len(variables) > 1:
                    # conjoined over every order of the variables: symmetric
                    body = And(tuple(
                        rename_variables(body, dict(zip(variables, order)))
                        for order in itertools.permutations(variables)
                    ))
                specs.append(QuantifiedFormula(prefix, body))
        for i, qf in enumerate(specs):
            traces = [random_trace(rng, f"t{j}", 4) for j in range(9)]
            yield qf, _eviction_stream(qf, traces) if i % 4 >= 2 else traces

    def test_same_outputs_as_eval_body_per_tuple(self, rng):
        seen = {"symmetric": 0, "asymmetric": 0, "transitive": 0, "three": 0,
                "violations": 0}
        for qf, traces in self._streams(rng):
            by_name = {t.name: t for t in traces}
            for ta in (False, True):
                for sa in (False, True):
                    session, got = _per_trace_outputs(qf, traces, ta, sa, False)
                    _, expected = _per_trace_outputs(qf, traces, ta, sa, True)
                    assert got == expected, (str(qf), ta, sa)
                    for ce, _ in got[0]:
                        if ce is not None:
                            seen["violations"] += 1
                            assignment = {var: by_name[name] for var, name in ce.assignment}
                            assert not eval_body(assignment, qf.body), (str(qf), ta, sa)
                    if session.qclass.n >= 2:
                        seen["symmetric" if session.symmetric else "asymmetric"] += 1
                        seen["transitive"] += session.transitive
                        seen["three"] += session.qclass.n == 3 and session.symmetric
        assert all(seen.values()), seen

    def test_transitive_spec_walks_the_first_stored_trace_only(self):
        session = Session(parse_formula(EQ), MonitorOptions(trace_analysis=False))
        assert session.transitive and set(session._tries) == {"p"}
        auto = session.template.automaton
        letters, step = [], auto.step
        auto.step = lambda state, letter: letters.append(letter) or step(state, letter)
        for i in range(12):
            # equivalent traces under EQ, each on its own path in the trie
            before = len(letters)
            fresh = Trace.of([{"a"}] + [set()] * i, f"t{i}")
            assert not session.process_trace(fresh).is_violation
            assert len(letters) - before <= i + 1  # the letters of one tuple
        assert session.stats.instances_run == 11

    @pytest.mark.parametrize("text, n", [
        (pretty_quantified(independence_property("counter3", ("incr",), ("overflow",))), 150),
        ("forall p. forall q. forall r. ((overflow@p <-> overflow@q) | "
         "(overflow@p <-> overflow@r)) W (!(decr@p <-> decr@q) | !(decr@p <-> decr@r))", 16),
    ], ids=("forall-forall", "three-quantifiers"))
    def test_cut_length_counter3_stream(self, text, n):
        qf = parse_formula(text)
        rng = random.Random(7)
        corpus = random_traces("counter3", n, 10, 7, bias={"incr": 0.85, "decr": 0.05})
        traces = [
            Trace(c.to_trace(f"t{i}").steps[:rng.randint(0, 10)], f"t{i}")
            for i, c in enumerate(corpus)
        ]
        for ta in (False, True):
            for sa in (False, True):
                _, got = _per_trace_outputs(qf, traces, ta, sa, False)
                _, expected = _per_trace_outputs(qf, traces, ta, sa, True)
                assert got == expected, (ta, sa)
                assert any(ce is not None for ce, _ in got[0])
                assert got[2] or not ta  # trace analysis dropped traces


def drops_are_copies(qf, traces, stored, dropped) -> bool:
    """Each dropped entry names a stored trace whose steps, projected on the
    spec's propositions, equal the dropped trace's."""
    props = {ref.proposition for ref in collect_alphabet(qf)}
    steps = {t.name: tuple(step & props for step in t.steps) for t in traces}
    return all(dom in stored and steps[name] == steps[dom] for name, dom in dropped)


def _reference_process(session, checker, fresh):
    """The paper's dominance-first order, written out without the store's
    routines: the first stored dominator in insertion order drops ``fresh``;
    otherwise its tuples run, and a passing trace is appended."""
    store = session.store
    for old in store.traces:
        if checker.dominates(old, fresh):
            store.dropped.append((fresh.name, old.name))
            return engine.CLEAN
    masks_of = session._mask_source(fresh)
    violating = session._run_tuples(fresh, masks_of)
    if violating is not None:
        return engine.Verdict(session._build_counterexample(violating, masks_of))
    store.traces.append(fresh)
    session._index(fresh, masks_of)
    return engine.CLEAN


def _order_run(qf, traces, reference):
    """Per-trace outputs of a session, run in the session's order (copy
    index, tuples, store) or in the dominance-first reference order."""
    session = Session(qf, MonitorOptions(continue_after_violation=True))
    if reference:
        checker = DominanceChecker(session.template, session.qclass)
        session._process_universal = (
            lambda fresh: _reference_process(session, checker, fresh)
        )
    verdicts = []
    for t in traces:
        ce = session.process_trace(t).counterexample
        verdicts.append(None if ce is None else (ce.assignment, ce.rejecting_position))
    outputs = (verdicts, session.store.names(), session.store.dropped,
               session.stats.instances_run)
    # the tries hold the stored traces only
    assert tries_hold_the_store(session)
    return outputs


class TestTuplesBeforeDominance:
    """The session's copy-only order gives each trace the verdict of the
    paper's dominance-first order, which stores fewer traces."""

    @pytest.mark.parametrize("text, n, length, bias, transitive", [
        (pretty_quantified(independence_property("counter3", ("incr",), ("overflow",))),
         120, 10, {"incr": 0.85, "decr": 0.05}, False),
        ("forall p. forall q. forall r. ((overflow@p <-> overflow@q) | "
         "(overflow@p <-> overflow@r)) W (!(decr@p <-> decr@q) | !(decr@p <-> decr@r))",
         60, 10, {"incr": 0.85, "decr": 0.05}, False),
        ("forall p. forall q. G (overflow@p <-> overflow@q)",
         120, 10, {"incr": 0.85, "decr": 0.05}, True),
        (pretty_quantified(independence_property("counter3", ("incr",), ("overflow",))),
         200, 6, None, False),
    ], ids=("forall-forall", "three-quantifiers", "transitive", "drop-heavy"))
    def test_same_outputs_as_dominance_first(self, text, n, length, bias, transitive):
        qf = parse_formula(text)
        assert Session(qf).transitive == transitive
        for seed in (1, 2):
            corpus = random_traces("counter3", n, length, seed, bias=bias)
            traces = [c.to_trace(f"t{i}") for i, c in enumerate(corpus)]
            outputs = _order_run(qf, traces, reference=False)
            expected = _order_run(qf, traces, reference=True)
            assert outputs[0] == expected[0], (text, seed)
            verdicts, stored, dropped, _ = outputs
            assert drops_are_copies(qf, traces, stored, dropped)
            if bias is None:
                assert len(dropped) > n // 2  # drop-heavy
            else:
                assert any(v is not None for v in verdicts)

    def test_dominated_non_copy_is_stored_with_its_tuples(self):
        qf = parse_formula("forall p. forall q. a@p -> !b@q")
        session = Session(qf, MonitorOptions(continue_after_violation=True))
        session.process_trace(Trace.of([{"a"}, {"b"}], "a_b"))
        ran = session.stats.instances_run
        # dominated by a_b, but no copy of it: no trace analysis drops it
        assert not session.process_trace(Trace.of([set()], "blank")).is_violation
        assert session.store.copy_hits == 0 and session.store.dropped == []
        assert session.stats.instances_run == ran + 3
        assert trie_leaves(session) == {"p": ["a_b", "blank"], "q": ["a_b", "blank"]}

    @pytest.mark.parametrize("text", EVICTING_BODIES)
    def test_verdicts_on_streams_where_later_traces_dominate(self, rng, text):
        # the store keeps a trace that a later one dominates; each trace's
        # verdict is still the one without trace analysis
        qf = parse_formula(text)
        kept = violations = 0
        for _ in range(15):
            clean = _eviction_stream(qf, [random_trace(rng, f"t{j}", 4) for j in range(9)])
            # violators interleaved with traces that dominate earlier ones
            stream = [t for pair in itertools.zip_longest(
                clean, [random_trace(rng, f"v{j}", 4) for j in range(5)]
            ) for t in pair if t is not None]
            sequences = []
            for ta in (False, True):
                session = Session(qf, MonitorOptions(
                    trace_analysis=ta, continue_after_violation=True,
                ))
                sequences.append([session.process_trace(t).is_violation for t in stream])
            assert sequences[0] == sequences[1], text
            violations += sum(sequences[1])
            checker = DominanceChecker(session.template, session.qclass)
            kept += any(
                checker.dominates(y, x)
                for x, y in itertools.combinations(session.store.traces, 2)
            )
        assert kept and violations, (kept, violations)


WIDE_TWO_VARIABLES = "forall p. forall q. (x0@p <-> x0@q) W ({})".format(
    " | ".join(f"!(x{i}@p <-> x{i}@q)" for i in range(1, 15))
)
XOR4_BODY = independence_property("xor4", ("lhs1",), ("out0",)).body
WIDE_THREE_QUANTIFIERS = QuantifiedFormula(
    tuple(("forall", v) for v in "pqr"),
    And((XOR4_BODY, rename_variables(XOR4_BODY, {"p": "q", "q": "r"}))),
)


def _wide_stream(qf, seed):
    """A seeded stream with one planted violator: a copy of an earlier trace
    whose first step flips the proposition the body compares first."""
    rng = random.Random(seed)
    if qf.variables == ("p", "q"):
        flip, props = "x0", [f"x{i}" for i in range(15)]
        traces = [random_trace(rng, f"t{i}", 4, props) for i in range(20)]
    else:
        flip = "out0"
        corpus = random_traces("xor4", 14, 5, seed)
        traces = [c.to_trace(f"t{i}") for i, c in enumerate(corpus)]
    i = rng.randrange(len(traces) // 2)
    j = rng.randrange(i + 1, len(traces))
    steps = list(traces[i].steps) or [frozenset()]
    steps[0] = steps[0] ^ {flip}
    traces[j] = Trace(tuple(steps), traces[j].name)
    return traces


class TestWideInstanceAlphabet:
    @pytest.mark.parametrize("qf", [
        parse_formula(WIDE_TWO_VARIABLES), WIDE_THREE_QUANTIFIERS,
    ], ids=("two-variables-15-propositions", "three-quantifiers-xor4"))
    def test_copy_index_runs_on_wide_alphabets(self, qf):
        # instance alphabets past ATOM_LIMIT: the copy index builds no
        # automaton, so trace analysis runs and changes no verdict
        for seed in (1, 2, 3):
            traces = _wide_stream(qf, seed)
            traces.append(traces[0].renamed("copy"))
            runs = []
            for ta in (True, False):
                session = Session(qf, MonitorOptions(
                    trace_analysis=ta, continue_after_violation=True,
                ))
                verdicts = [session.process_trace(t).counterexample for t in traces]
                assert session.trace_analysis is ta
                runs.append(verdicts)
                dropped = session.store.dropped
                assert drops_are_copies(qf, traces, session.store.names(), dropped)
                assert ("copy", "t0") in dropped if ta else not dropped
            assert runs[0] == runs[1], seed
            assert any(ce is not None for ce in runs[0])


COUNTER3 = independence_property("counter3", ("incr",), ("overflow",))
STREAM_BIAS = {"incr": 0.85, "decr": 0.05}


def _intake_corpus(name):
    """(formula, options, traces) of one shared-step differential corpus."""
    stream = MonitorOptions(continue_after_violation=True)
    if name == "counter3-stream":
        corpus = random_traces("counter3", 1000, 20, 7, bias=STREAM_BIAS)
        return COUNTER3, stream, [c.to_trace(f"t{i}") for i, c in enumerate(corpus)]
    if name == "counter3-cut":
        rng = random.Random(8)
        corpus = random_traces("counter3", 300, 20, 8, bias=STREAM_BIAS)
        return COUNTER3, stream, [
            Trace(c.to_trace(f"t{i}").steps[:rng.randint(0, 20)], f"t{i}")
            for i, c in enumerate(corpus)
        ]
    if name.startswith("xor4"):
        quants = ("forall", "exists" if name == "xor4-forall-exists" else "forall")
        corpus = random_traces("xor4", 200, 5, 1)
        qf = QuantifiedFormula(tuple(zip(quants, ("p", "q"))), XOR4_BODY)
        return qf, MonitorOptions(), [c.to_trace(f"t{i}") for i, c in enumerate(corpus)]
    pair = COUNTER3.body  # forall-forall-exists over (p, q) and (q, r)
    body = And((pair, rename_variables(pair, {"p": "q", "q": "r"})))
    prefix = (("forall", "p"), ("forall", "q"), ("exists", "r"))
    corpus = random_traces("counter3", 40, 8, 1, bias=STREAM_BIAS)
    return (QuantifiedFormula(prefix, body), stream,
            [c.to_trace(f"t{i}") for i, c in enumerate(corpus)])


def _session_outputs(qf, options, traces):
    """Per-trace verdicts and ``instances_run``, the store and the dropped
    log, and the session."""
    session = Session(qf, options)
    per_trace = []
    for t in traces:
        per_trace.append((session.process_trace(t), session.stats.instances_run))
    return (per_trace, session.store.names(), session.store.dropped,
            session.stats.traces_stored), session


class TestSharedStepIntake:
    """Traces loaded from files share one object per distinct step; outputs
    must equal those on traces whose every step is its own object."""

    @pytest.mark.parametrize("name", (
        "counter3-stream", "counter3-cut", "xor4-default", "xor4-forall-exists",
        "counter3-forall-forall-exists",
    ))
    def test_shared_steps_change_no_output(self, tmp_path, name):
        qf, options, traces = _intake_corpus(name)
        for t in traces:
            save_trace(t, tmp_path / f"{t.name}.trace")
        shared = [load_trace(tmp_path / f"{t.name}.trace") for t in traces]
        steps = [step for t in shared for step in t.steps]
        assert len({id(step) for step in steps}) == len(set(steps))
        copies = [Trace.of([set(step) for step in t.steps], t.name) for t in shared]
        assert copies == traces
        got, session = _session_outputs(qf, options, shared)
        expected, _ = _session_outputs(qf, options, copies)
        assert got == expected
        violated = any(v.is_violation for v, _ in got[0])
        assert violated == name.startswith("counter3"), name

    def test_tables_stay_bounded(self, monkeypatch):
        qf = QuantifiedFormula((("forall", "p"), ("forall", "q")), XOR4_BODY)
        corpus = random_traces("xor4", 120, 5, 3)
        traces = [c.to_trace(f"t{i}") for i, c in enumerate(corpus)]
        # a planted violator: t10 with the output the body compares flipped
        traces[60] = Trace(
            (traces[10].steps[0] ^ {"out0"},) + traces[10].steps[1:], "t60")
        options = MonitorOptions(continue_after_violation=True)
        expected, _ = _session_outputs(qf, options, traces)
        monkeypatch.setattr(engine, "TABLE_SIZE", 16)
        session = Session(qf, options)
        per_trace = []
        for t in traces:
            per_trace.append((session.process_trace(t), session.stats.instances_run))
            tables = [session._projection, *session._mask_tables.values()]
            assert all(len(table) <= 16 for table in tables)
        assert len({step for t in traces for step in t.steps}) > 16
        assert (per_trace, session.store.names(), session.store.dropped,
                session.stats.traces_stored) == expected
        assert any(v.is_violation for v, _ in per_trace)


def _counter3(n, length, seed, bias=None):
    return [c.to_trace(f"t{i}")
            for i, c in enumerate(random_traces("counter3", n, length, seed, bias))]


def _cut(traces, seed, most):
    """Each trace cut to a seeded length in 0..most, empty traces included."""
    rng = random.Random(seed)
    return [Trace(t.steps[:rng.randint(0, most)], t.name) for t in traces]


# (formula, traces) of each copy-only differential corpus: the counter3
# stream's spec and bias, the same cut to seeded lengths, unbiased counter3
# and xor4 lhs1 -> out0, at the sizes and seeds of the ROADMAP's trace
# analysis measurements, and the CI drop-heavy and cut-length corpora
COPY_ONLY_CORPORA = {
    "counter3-stream": lambda: (COUNTER3, _counter3(1000, 20, 1001, STREAM_BIAS)),
    "counter3-cut": lambda: (
        COUNTER3, _cut(_counter3(1000, 20, 1001, STREAM_BIAS), 1001, 20)),
    "counter3-unbiased": lambda: (COUNTER3, _counter3(1000, 8, 1001)),
    "xor4": lambda: (
        QuantifiedFormula((("forall", "p"), ("forall", "q")), XOR4_BODY),
        [c.to_trace(f"t{i}") for i, c in enumerate(random_traces("xor4", 400, 5, 1))]),
    "drop-heavy": lambda: (parse_formula(GOLDEN_SPEC), GOLDEN_CORPORA["drop_heavy"]()),
    "cut-length": lambda: (parse_formula(GOLDEN_SPEC), GOLDEN_CORPORA["cut_length"]()),
}


@pytest.mark.parametrize("name", sorted(COPY_ONLY_CORPORA))
def test_copy_only_trace_analysis_changes_no_verdict(name):
    # the copy index drops only exact projected copies, so each trace's
    # counterexample and rejecting position equal those with trace
    # analysis off, which stores every trace that passes
    qf, traces = COPY_ONLY_CORPORA[name]()
    runs, sessions = [], []
    for ta in (True, False):
        session = Session(qf, MonitorOptions(
            trace_analysis=ta, continue_after_violation=True))
        verdicts = [session.process_trace(t).counterexample for t in traces]
        runs.append([None if ce is None else (ce.assignment, ce.rejecting_position)
                     for ce in verdicts])
        sessions.append(session)
    on, off = runs
    assert on == off
    violations = sum(v is not None for v in on)
    # the biased counter3 streams violate; the other corpora are clean
    assert bool(violations) == (name in ("counter3-stream", "counter3-cut", "cut-length"))
    store = sessions[0].store
    assert drops_are_copies(qf, traces, store.names(), store.dropped)
    assert len(store) + len(store.dropped) + violations == len(traces)
    assert store.copy_hits == len(store.dropped)
    assert sessions[0].stats.inclusion_checks == 0
    if name != "xor4":  # no two xor4 traces agree on the spec's inputs
        assert store.dropped


def test_stats_snapshot_fields():
    session = Session(parse_formula(EQ))
    s = session.stats
    assert s.traces_seen == 0 and s.instances_run == 0
    assert set(s.as_dict()) == {
        "traces_seen",
        "traces_stored",
        "instances_run",
        "inclusion_checks",
        "wall_time",
    }


class TestEmptyPrefix:
    @pytest.mark.parametrize("text", ["true", "false", "X false", "G true"])
    def test_verdict_from_the_initial_state(self, text, monkeypatch):
        qf = parse_formula(text)
        holds = eval_body({}, qf.body)

        def unused(*args):
            raise AssertionError("the empty prefix runs no evaluator")

        monkeypatch.setattr(semantics, "eval_body", unused)
        assert not hasattr(engine, "eval_body")
        session = Session(qf)
        expected = engine.Verdict(None if holds else engine.CounterExample((), 0))
        assert session.verdict() == expected
        assert session.process_trace(Trace.of([set()], "t1")) == expected
        assert session.verdict() == expected


SYMMETRIC_THREE = parse_formula(
    "forall p. forall q. forall r. "
    + " & ".join(
        f"((overflow@{a} <-> overflow@{b}) W !(decr@{a} <-> decr@{b}))"
        for a, b in ("pq", "qr", "pr")
    )
)


def _violation_stream(name):
    """(formula, traces) of a continue-after-violation stream where many
    traces violate."""
    if name == "counter3-stream":
        corpus = random_traces("counter3", 400, 20, 7, bias=STREAM_BIAS)
        return COUNTER3, [c.to_trace(f"t{i}") for i, c in enumerate(corpus)]
    corpus = random_traces("counter3", 60, 12, 1, bias=STREAM_BIAS)
    return SYMMETRIC_THREE, [c.to_trace(f"t{i}") for i, c in enumerate(corpus)]


class TestLazyRejectingPosition:
    """A counterexample's rejecting position runs on first read and equals
    the value read at once."""

    @pytest.mark.parametrize("table_size", (None, 4))
    @pytest.mark.parametrize("name", ("counter3-stream", "three-quantifiers"))
    def test_read_after_the_corpus_gives_the_eager_value(
            self, name, table_size, monkeypatch):
        qf, traces = _violation_stream(name)
        if table_size is not None:
            # the mask tables clear between a violation and its read
            monkeypatch.setattr(engine, "TABLE_SIZE", table_size)
        session = Session(qf, MonitorOptions(continue_after_violation=True))
        if name == "three-quantifiers":
            assert session.symmetric
        violations = [
            ce for ce in (session.process_trace(t).counterexample for t in traces)
            if ce is not None
        ]
        assert len(violations) >= 10
        by_name = {t.name: t for t in traces}
        fresh = template.build_template(desugar(qf.body), qf.variables).automaton
        for ce in violations:
            letters = list(template.joint_word(
                template.trace_masks(fresh, var, by_name[trace])
                for var, trace in ce.assignment
            ))
            assert ce.rejecting_position == template.rejecting_position(fresh, letters)
        assert len({ce.rejecting_position for ce in violations}) > 1

    def test_runs_only_when_read(self, tmp_path, monkeypatch, capsys):
        calls = []
        original = engine.rejecting_position

        def counted(auto, letters):
            calls.append(len(letters))
            return original(auto, letters)

        monkeypatch.setattr(engine, "rejecting_position", counted)
        qf, traces = _violation_stream("counter3-stream")
        session = Session(qf, MonitorOptions(continue_after_violation=True))
        violations = [
            ce for ce in (session.process_trace(t).counterexample for t in traces)
            if ce is not None
        ]
        assert len(violations) > 100 and calls == []
        ce = session.verdict().counterexample
        first = ce.rejecting_position
        assert ce.rejecting_position == first and len(calls) == 1  # then kept

        calls.clear()
        spec = tmp_path / "spec.hm"
        spec.write_text(pretty_quantified(qf) + "\n")
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for t in traces:
            save_trace(t, corpus / f"{t.name}.trace")
        argv = ["monitor", str(spec), str(corpus), "--continue-after-violation"]
        assert cli.main(argv) == cli.EXIT_VIOLATION
        assert len(calls) == 1  # the reported counterexample only
        assert "rejecting prefix length: " in capsys.readouterr().out

    def test_equality_hash_and_repr_by_value(self):
        assignment = (("p", "t1"), ("q", "t2"))
        calls = []
        lazy = engine.CounterExample.deferred(assignment, lambda: calls.append(1) or 3)
        eager = engine.CounterExample(assignment, 3)
        assert calls == []
        assert lazy == eager and hash(lazy) == hash(eager)
        assert repr(lazy) == repr(eager) == (
            "CounterExample(assignment=(('p', 't1'), ('q', 't2')), "
            "rejecting_position=3)"
        )
        assert engine.Verdict(lazy) == engine.Verdict(eager)
        assert lazy != engine.CounterExample(assignment, None)
        assert pickle.loads(pickle.dumps(lazy)) == eager
        assert calls == [1]


LIVE_PROPS = ("a", "b", "c")


def _live_corpora(rng):
    """(formula, options, traces) for the live-set differential tests: xor4
    under a clean and a violating spec, the counter3 stream, and random
    bodies over two and three variables.  Every other random body holds
    whenever the traces differ in ``a``, so many children lead nowhere."""
    xor4 = [c.to_trace(f"t{i}") for i, c in enumerate(random_traces("xor4", 120, 5, 11))]
    yield (QuantifiedFormula(COUNTER3.prefix, XOR4_BODY),
           MonitorOptions(trace_analysis=False), xor4)
    yield (independence_property("xor4", ("lhs0",), ("out0",)),
           MonitorOptions(continue_after_violation=True), xor4)
    counter3 = random_traces("counter3", 300, 20, 7, bias=STREAM_BIAS)
    yield (COUNTER3, MonitorOptions(continue_after_violation=True),
           [c.to_trace(f"t{i}") for i, c in enumerate(counter3)])
    for variables, count, stored in ((("p", "q"), 24, 40), (("p", "q", "r"), 8, 14)):
        prefix = tuple(("forall", v) for v in variables)
        for i in range(count):
            body = random_body(rng, 3, props=LIVE_PROPS, variables=variables)
            if i % 2:
                same = [Iff(Atom(AtomRef("a", v)), Atom(AtomRef("a", w)))
                        for v, w in zip(variables, variables[1:])]
                body = Implies(And(tuple(same)) if len(same) > 1 else same[0], body)
            traces = [random_trace(rng, f"t{j}", 4, LIVE_PROPS) for j in range(stored)]
            yield (QuantifiedFormula(prefix, body),
                   MonitorOptions(trace_analysis=i % 4 < 2, continue_after_violation=True),
                   traces)


def _walk_outputs(qf, options, traces):
    """Per-trace counterexamples, rejecting positions and ``instances_run``,
    the automaton's residuals, and the trace whose tuples tripped a resource
    guard (None if none did)."""
    per_trace, tripped = [], None
    try:
        session = Session(qf, options)
    except ResourceLimitError:
        return per_trace, [], -1
    for i, t in enumerate(traces):
        try:
            ce = session.process_trace(t).counterexample
        except ResourceLimitError:
            tripped = i
            break
        per_trace.append((ce and ce.assignment, ce and ce.rejecting_position,
                          session.stats.instances_run))
    return per_trace, list(session.template.automaton.formulas), tripped


class TestLiveSets:
    """The trie walk that steps only the children its live sets leave open
    gives what the walk that steps every child gives: verdicts,
    counterexamples, rejecting positions, ``instances_run`` and the same
    automaton states in the same order."""

    @staticmethod
    def _both(qf, options, traces, monkeypatch):
        """(outputs, automaton steps) with live sets, then with every child
        stepped."""
        runs, calls = [], []
        step = template.TemplateAutomaton.step
        with monkeypatch.context() as m:
            m.setattr(template.TemplateAutomaton, "step",
                      lambda auto, state, letter: calls.append(1) or step(auto, state, letter))
            runs.append((_walk_outputs(qf, options, traces), len(calls)))
            calls.clear()
            m.setattr(template.TemplateAutomaton, "live", lambda auto, *args: None)
            runs.append((_walk_outputs(qf, options, traces), len(calls)))
        return runs

    def test_same_outputs_as_stepping_every_child(self, rng, monkeypatch):
        pruned = violations = 0
        for qf, options, traces in _live_corpora(rng):
            (got, steps), (expected, every) = self._both(qf, options, traces, monkeypatch)
            assert got == expected, str(qf)
            assert steps <= every
            pruned += steps < every
            violations += sum(ce is not None for ce, _, _ in got[0])
        assert pruned >= 5 and violations >= 10

    def test_state_limit_trips_on_the_same_trace(self, rng, monkeypatch):
        trips = 0
        for qf, options, traces in _live_corpora(rng):
            for limit in (2, 3, 5):
                limited = dataclasses.replace(options, state_limit=limit)
                (got, _), (expected, _) = self._both(qf, limited, traces, monkeypatch)
                assert got == expected, (str(qf), limit)
                trips += got[2] is not None and got[2] > 0
        assert trips >= 10
