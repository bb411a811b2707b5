import logging

import pytest

from hypermon.circuits import independence_property, random_traces
from hypermon.engine import MonitorOptions, Session, new_session, process_trace, stats
from hypermon.formula import QuantifiedFormula
from hypermon.parser import parse_formula
from hypermon.semantics import Trace, eval_body, eval_quantified

from conftest import random_body, random_trace

EQ = "forall p. forall q. G (a@p <-> a@q)"
OBSDET = "forall p. forall q. (o@p <-> o@q) W !(i@p <-> i@q)"


def cache_within_store(session) -> bool:
    """Every cached dominance automaton belongs to a stored trace's steps."""
    stored = {(t.steps, v) for t in session.store.traces for v in session.qf.variables}
    return set(session.checker._cache) <= stored


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
        session = new_session(parse_formula(EQ))
        assert not process_trace(session, Trace.of([{"a"}], "t1")).is_violation
        verdict = process_trace(session, Trace.of([set()], "t2"))
        assert verdict.is_violation
        assert verdict.counterexample.assignment == (("p", "t1"), ("q", "t2"))
        assert verdict.counterexample.rejecting_position == 1

    def test_same_trace_twice_is_clean_with_zero_instances(self):
        session = new_session(parse_formula(OBSDET))
        t = Trace.of([{"i", "o"}, {"o"}], "t1")
        assert not session.process_trace(t).is_violation
        assert session.stats.instances_run == 0  # reflexive skip
        assert not session.process_trace(t.renamed("t2")).is_violation

    def test_obsdet_session_reductions(self):
        session = new_session(parse_formula(OBSDET))
        assert session.symmetric and session.reflexive
        assert not session.transitive

    def test_symmetric_reflexive_pair_counting(self):
        # ObsDet is symmetric+reflexive but not transitive: k traces cost
        # k*(k-1)/2 instances
        session = new_session(
            parse_formula(OBSDET), MonitorOptions(trace_analysis=False)
        )
        for i in range(6):
            session.process_trace(Trace.of([{"i", "o"}, {"i"}], f"t{i}"))
        assert session.stats.instances_run == 15

    def test_transitive_formula_checks_one_representative(self):
        session = new_session(parse_formula(EQ), MonitorOptions(trace_analysis=False))
        for i in range(6):
            session.process_trace(Trace.of([{"a"}], f"t{i}"))
        assert session.stats.instances_run == 5  # one comparison per fresh trace

    def test_no_reductions_counts_ordered_tuples(self):
        session = new_session(
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
        session = new_session(qf)
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
        session = new_session(parse_formula(EQ))
        session.process_trace(Trace.of([{"a"}], "t1"))
        first = session.process_trace(Trace.of([set()], "t2"))
        again = session.process_trace(Trace.of([{"a"}, {"a"}], "t3"))
        assert again == first
        assert session.stats.traces_seen == 2  # t3 was not processed

    def test_continue_after_violation(self):
        session = new_session(
            parse_formula(EQ), MonitorOptions(continue_after_violation=True)
        )
        session.process_trace(Trace.of([{"a"}], "t1"))
        assert session.process_trace(Trace.of([set()], "t2")).is_violation
        third = session.process_trace(Trace.of([{"a"}, {"a"}], "t3"))
        assert third.is_violation  # t3 still conflicts with a stored trace
        assert session.stats.traces_seen == 3

    def test_inclusion_checks_synced_after_violations(self):
        session = new_session(
            parse_formula(EQ), MonitorOptions(continue_after_violation=True)
        )
        session.process_trace(Trace.of([{"a"}], "t1"))
        for i, steps in enumerate(([set()], [set(), {"a"}], [set(), set()])):
            # each trace is checked for dominance first, then violates
            assert session.process_trace(Trace.of(steps, f"v{i}")).is_violation
        assert session.checker.inclusion_checks > 0
        assert session.stats.inclusion_checks == session.checker.inclusion_checks

    def test_masks_kept_for_stored_traces_only(self):
        session = Session(
            parse_formula("forall p. forall q. a@p -> !b@q"),
            MonitorOptions(continue_after_violation=True),
        )
        session.process_trace(Trace.of([set()], "blank"))
        session.process_trace(Trace.of([{"a"}, {"b"}], "a_b"))  # evicts blank
        session.process_trace(Trace.of([set()], "copy"))  # dropped
        assert session.process_trace(Trace.of([{"b"}], "b")).is_violation
        assert session.store.names() == ["a_b"]
        assert session.store.dropped == [("blank", "a_b"), ("copy", "a_b")]
        assert {name for name, _ in session._masks} == {"a_b"}

    def test_dominance_cache_bounded_by_store(self):
        session = Session(
            independence_property("counter3", ("incr",), ("overflow",)),
            MonitorOptions(continue_after_violation=True),
        )
        corpus = random_traces("counter3", 200, 20, seed=5,
                               bias={"incr": 0.85, "decr": 0.05})
        verdicts = [
            session.process_trace(c.to_trace(f"t{i}")) for i, c in enumerate(corpus)
        ]
        assert any(v.is_violation for v in verdicts) and session.store.dropped
        assert cache_within_store(session)

    def test_duplicate_names_rejected(self):
        session = new_session(parse_formula(EQ))
        session.process_trace(Trace.of([{"a"}], "t"))
        with pytest.raises(ValueError):
            session.process_trace(Trace.of([{"a"}], "t"))

    def test_duplicate_of_dropped_name_rejected(self):
        session = new_session(parse_formula(EQ))
        session.process_trace(Trace.of([{"a"}], "t1"))
        session.process_trace(Trace.of([{"a"}], "t2"))
        assert session.store.dropped == [("t2", "t1")]
        with pytest.raises(ValueError):
            session.process_trace(Trace.of([set()], "t2"))

    def test_extra_propositions_projected_with_warning(self, caplog):
        session = new_session(parse_formula(EQ))
        with caplog.at_level(logging.WARNING, logger="hypermon.engine"):
            session.process_trace(Trace.of([{"a", "zz"}], "t1"))
        assert any("zz" in rec.getMessage() for rec in caplog.records)

    def test_replay_reports_same_index(self, rng):
        traces = [random_trace(rng, f"t{i}") for i in range(8)]
        indexes = []
        for _ in range(2):
            session = new_session(parse_formula(EQ))
            idx, _ = feed(session, traces)
            indexes.append(idx)
        assert indexes[0] == indexes[1]

    def test_empty_prefix_false_body(self):
        session = new_session(parse_formula("false"))
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
        session = new_session(qf)
        assert session.provisional
        first = session.process_trace(Trace.of([set()], "t1"))
        assert first.is_violation  # nothing satisfies the body yet
        second = session.process_trace(Trace.of([{"a"}], "t2"))
        assert not second.is_violation  # the pair (t2, t2) works now

    def test_forall_exists_counterexample_names_universal_trace(self):
        qf = parse_formula("forall p. exists q. F (a@p & a@q) | !(F a@p)")
        session = new_session(qf, MonitorOptions(trace_analysis=False))
        verdict = session.process_trace(Trace.of([{"a"}], "lone"))
        assert not verdict.is_violation  # (lone, lone) pairs with itself

    def test_dominance_cache_bounded_by_store(self, rng):
        for _ in range(20):
            qf = QuantifiedFormula((("forall", "p"), ("exists", "q")), random_body(rng, 3))
            session = Session(qf)
            for i in range(12):
                session.process_trace(random_trace(rng, f"t{i}", 4))
            assert cache_within_store(session)

    def test_forall_exists_violation(self):
        # a@p must be followed somewhere by b on the partner trace
        qf = parse_formula("forall p. exists q. a@p -> b@q")
        session = new_session(qf, MonitorOptions(trace_analysis=False))
        verdict = session.process_trace(Trace.of([{"a"}], "t1"))
        assert verdict.is_violation
        assert verdict.counterexample.assignment == (("p", "t1"),)
        # adding a b-trace repairs it
        assert not session.process_trace(Trace.of([{"b"}], "t2")).is_violation


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
        text = (
            "forall p0. forall p1. forall p2. "
            "!((i@p1 <-> i@p0) & (i@p2 <-> i@p0) "
            "& !(o@p0 <-> o@p1) & !(o@p0 <-> o@p2) & !(o@p1 <-> o@p2))"
        )
        session = new_session(parse_formula(text))
        assert session.reflexive and not session.symmetric
        verdict = session.process_trace(Trace.of([{"i", "o"}], "t0"))
        assert not verdict.is_violation
        assert session.stats.instances_run == 0  # only the all-same triple arose


def test_stats_snapshot_fields():
    session = new_session(parse_formula(EQ))
    s = stats(session)
    assert s.traces_seen == 0 and s.instances_run == 0
    assert set(s.as_dict()) == {
        "traces_seen",
        "traces_stored",
        "instances_run",
        "inclusion_checks",
        "wall_time",
    }
