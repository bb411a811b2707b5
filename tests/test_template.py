import pytest

from hypermon import template
from hypermon.circuits import independence_property, random_traces
from hypermon.engine import MonitorOptions, Session
from hypermon.errors import MonitorError, ResourceLimitError
from hypermon.formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    AtomRef,
    FalseF,
    Next,
    Not,
    Or,
    TrueF,
    Until,
    atom_refs,
    children,
    desugar,
    mk_and,
    mk_not,
    mk_or,
    rename_variables,
)
from hypermon.parser import parse_formula
from hypermon.semantics import Trace, eval_body
from hypermon.spec_analysis import analyze
from hypermon.template import (
    ATOM_LIMIT,
    build_template,
    canonical_state,
    lazy_is_empty,
    materialize,
    prog,
    rejecting_position,
    run_masks,
    trace_masks,
)

from conftest import all_traces, random_body, random_trace


def template_for(text):
    qf = parse_formula(text)
    return build_template(desugar(qf.body), qf.variables), qf


class TestBuildTemplate:
    def test_single_atom_three_states(self):
        tpl, _ = template_for("forall p. a@p")
        d = materialize(tpl.automaton)
        assert d.num_states == 3  # pending, accepted, rejected
        assert not d.accepts([])  # empty word rejected
        assert d.accepts([1])  # letter with a@p
        assert not d.accepts([0])

    def test_globally_atom_is_empty(self):
        tpl, _ = template_for("forall p. G a@p")
        empty, witness = lazy_is_empty(tpl.automaton)
        assert empty and witness is None
        # cross-check against the oracle on every word up to length 4
        qf = parse_formula("forall p. G a@p")
        for t in all_traces(4, ("a",)):
            assert eval_body({"p": t}, qf.body) is False

    def test_negated_atom_accepts_empty_word(self):
        tpl, qf = template_for("forall p. !a@p")
        d = materialize(tpl.automaton)
        assert d.accepts([])
        for t in all_traces(3, ("a",)):
            assert d.accepts_atom_word(
                [{r for r in tpl.support if r.proposition in step} for step in t.steps]
            ) == eval_body({"p": t}, qf.body)

    def test_sugar_rejected(self):
        qf = parse_formula("forall p. forall q. a@p W a@q")
        with pytest.raises(MonitorError):
            build_template(qf.body, qf.variables)  # not desugared

    def test_support_must_cover_body(self):
        from hypermon.errors import SupportMismatchError
        from hypermon.formula import AtomRef

        qf = parse_formula("forall p. forall q. G (a@p <-> a@q)")
        with pytest.raises(SupportMismatchError):
            build_template(desugar(qf.body), qf.variables, (AtomRef("a", "p"),))

    def test_support_variables_must_be_declared(self):
        from hypermon.errors import SupportMismatchError
        from hypermon.formula import AtomRef

        qf = parse_formula("forall p. a@p")
        with pytest.raises(SupportMismatchError):
            build_template(
                desugar(qf.body),
                qf.variables,
                (AtomRef("a", "p"), AtomRef("a", "zz")),
            )

    def test_state_limit_enforced(self):
        qf = parse_formula(
            "forall p. (a@p U b@p) & (b@p U a@p) & F (a@p & X b@p)"
        )
        with pytest.raises(ResourceLimitError):
            tpl = build_template(desugar(qf.body), qf.variables, state_limit=2)
            materialize(tpl.automaton)


class TestAccepts:
    def test_eq_reflexive_pairs(self, rng):
        tpl, _ = template_for("forall p. forall q. G (a@p <-> a@q)")
        for _ in range(20):
            t = random_trace(rng, "t")
            assert tpl.accepts({"p": t, "q": t.renamed("u")})

    def test_eq_rejects_differing_pair(self):
        tpl, _ = template_for("forall p. forall q. G (a@p <-> a@q)")
        assert not tpl.accepts(
            {"p": Trace.of([{"a"}], "p"), "q": Trace.of([set()], "q")}
        )

    def test_arity_mismatch(self):
        tpl, _ = template_for("forall p. forall q. G (a@p <-> a@q)")
        with pytest.raises(MonitorError):
            tpl.accepts({"p": Trace((), "p")})

    def test_oracle_equivalence_sample(self, rng):
        mismatches = 0
        for _ in range(300):
            f = random_body(rng, 4)
            tpl = build_template(desugar(f), ("p", "q"))
            a = {"p": random_trace(rng, "tp"), "q": random_trace(rng, "tq")}
            if tpl.accepts(a) != eval_body(a, f):
                mismatches += 1
        assert mismatches == 0


class TestInstantiate:
    def test_eq_with_a_trace_pins_the_pattern(self):
        tpl, qf = template_for("forall p. forall q. G (a@p <-> a@q)")
        inst = tpl.instantiate(Trace.of([{"a"}], "t"), "p")
        assert inst.free_variables == ("q",)
        # empty word rejected, the matching word accepted, others rejected
        assert not inst.accepts({"q": Trace((), "q")})
        assert inst.accepts({"q": Trace.of([{"a"}], "q")})
        assert inst.accepts({"q": Trace.of([{"a"}, set()], "q")})
        assert not inst.accepts({"q": Trace.of([{"a"}, {"a"}], "q")})
        assert not inst.accepts({"q": Trace.of([set()], "q")})

    def test_universal_body(self, rng):
        tpl, _ = template_for("forall p. forall q. true")
        inst = tpl.instantiate(random_trace(rng, "t"), "p")
        for _ in range(10):
            assert inst.accepts({"q": random_trace(rng, "q")})

    def test_both_variables_same_trace_accepts(self):
        tpl, _ = template_for("forall p. forall q. G (a@p <-> a@q)")
        t = Trace.of([{"a"}, set(), {"a"}], "t")
        m = tpl.instantiate(t, "p").instantiate(t.renamed("u"), "q")
        assert m.free_variables == ()
        assert m.accepts({})

    def test_variable_not_free(self):
        tpl, _ = template_for("forall p. forall q. G (a@p <-> a@q)")
        with pytest.raises(MonitorError):
            tpl.instantiate(Trace((), "t"), "z")

    def test_matches_full_acceptance(self, rng):
        for _ in range(200):
            f = random_body(rng, 3)
            tpl = build_template(desugar(f), ("p", "q"))
            tp, tq = random_trace(rng, "tp", 4), random_trace(rng, "tq", 4)
            inst = tpl.instantiate(tp, "p")
            assert inst.accepts({"q": tq}) == tpl.accepts({"p": tp, "q": tq})

    def test_order_independent_language(self, rng):
        from hypermon.automata import language_included

        for _ in range(60):
            f = random_body(rng, 3)
            tpl = build_template(desugar(f), ("p", "q"))
            tp, tq = random_trace(rng, "tp", 3), random_trace(rng, "tq", 3)
            d1 = materialize(tpl.instantiate(tp, "p").instantiate(tq, "q").automaton)
            d2 = materialize(tpl.instantiate(tq, "q").instantiate(tp, "p").automaton)
            assert language_included(d1, d2)[0] and language_included(d2, d1)[0]


class TestSubmasks:
    def test_ascending_submasks_match_brute_force(self, rng):
        masks = [0, 1, 0b1011, 0xFF] + [rng.getrandbits(12) for _ in range(40)]
        for mask in masks:
            expected = [sub for sub in range(mask + 1) if sub & ~mask == 0]
            assert list(template._submasks_ascending(mask)) == expected, mask


class TestTraceMasks:
    def test_cached_bit_maps_give_the_same_masks(self, rng):
        """Masks from the cached proposition -> bit maps equal a projection
        built from the support on every call, on instances too, where the
        bound variable has no atoms left."""

        def projected(auto, var, trace):
            prop_bits = {
                ref.proposition: auto.bits[ref]
                for ref in auto.support
                if ref.variable == var
            }
            return [
                sum(1 << bit for prop, bit in prop_bits.items() if prop in step)
                for step in trace.steps
            ]

        for _ in range(100):
            tpl = build_template(desugar(random_body(rng, 3)), ("p", "q"))
            inst = tpl.instantiate(random_trace(rng, "t", 4), "p")
            for auto in (tpl.automaton, inst.automaton):
                for var in ("p", "q"):
                    for _ in range(2):  # the second call reads the cached map
                        trace = random_trace(rng, "u", 4, props=("a", "b", "zz"))
                        masks = template.trace_masks(auto, var, trace)
                        assert masks == projected(auto, var, trace)
            assert inst.automaton.prop_bits("q") is tpl.automaton.prop_bits("q")


class TestInstanceFold:
    """An instance pairs a decided base state with the end of the bound trace."""

    @staticmethod
    def _word(trace, var, support):
        return [
            {ref for ref in support if ref.variable == var and ref.proposition in step}
            for step in trace.steps
        ]

    def test_materialized_instances_match_the_oracle(self, rng):
        partners = all_traces(3)
        mismatches = checked = 0
        for _ in range(40):
            f = random_body(rng, 3)
            tpl = build_template(desugar(f), ("p", "q"))
            bound = random_trace(rng, "b", 6)
            for var, other in (("p", "q"), ("q", "p")):
                d = materialize(tpl.instantiate(bound, var).automaton)
                for t in partners:
                    accepted = d.accepts_atom_word(self._word(t, other, d.support))
                    mismatches += accepted != eval_body({var: bound, other: t}, f)
                    checked += 1
            for t in partners:
                d = materialize(tpl.instantiate(bound, "p").instantiate(t, "q").automaton)
                mismatches += d.accepts(()) != eval_body({"p": bound, "q": t}, f)
                checked += 1
        assert checked == 40 * 3 * len(partners)
        assert mismatches == 0

    @pytest.mark.parametrize(
        "text, steps, states",
        [
            ("forall p. forall q. G (a@p <-> a@q)", [{"a"}] * 20, 22),
            (
                "forall p. forall q. (o@p <-> o@q) W !(i@p <-> i@q)",
                [{"i", "o"} if k % 3 == 0 else {"i"} for k in range(20)],
                23,
            ),
        ],
    )
    def test_decided_states_do_not_repeat_per_position(self, text, steps, states):
        from hypermon.automata import minimize

        tpl, _ = template_for(text)
        d = materialize(tpl.instantiate(Trace.of(steps, "t"), "p").automaton)
        assert d.num_states == states
        assert minimize(d).num_states == states


class TestRejectingPosition:
    def test_dead_state_position(self):
        tpl, _ = template_for("forall p. forall q. G (a@p <-> a@q)")
        auto = tpl.automaton
        letters = [1]  # a@p only: the pair died after one step
        assert rejecting_position(auto, letters) == 1

    def test_end_of_word_rejection(self):
        tpl, _ = template_for("forall p. F a@p")
        auto = tpl.automaton
        assert rejecting_position(auto, [0, 0]) == 2  # could still accept later

    def test_empty_language_is_position_zero(self):
        tpl, _ = template_for("forall p. G a@p")
        assert rejecting_position(tpl.automaton, [1, 1]) == 0

    def test_memo_matches_a_fresh_automaton(self, monkeypatch):
        qf = independence_property("counter3", ("incr",), ("overflow",))
        session = Session(qf, MonitorOptions(continue_after_violation=True))
        checks = []
        original = template.lazy_is_empty

        def counted(auto, start=None):
            checks.append(start)
            return original(auto, start)

        monkeypatch.setattr(template, "lazy_is_empty", counted)
        corpus = random_traces("counter3", 120, 12, 5, {"incr": 0.85, "decr": 0.05})
        traces = {}
        violations = []
        for i, circuit in enumerate(corpus):
            trace = traces[f"t{i}"] = circuit.to_trace(f"t{i}")
            ce = session.process_trace(trace).counterexample
            if ce is not None:
                violations.append(ce)
        assert len(violations) >= 20
        # every state's emptiness was decided once, however often it recurred
        auto = session.template.automaton
        assert sorted(checks) == sorted(auto.empties)
        for ce in violations:
            fresh = build_template(desugar(qf.body), qf.variables).automaton
            letters = list(template.joint_word(
                template.trace_masks(fresh, var, traces[name]) for var, name in ce.assignment
            ))
            assert ce.rejecting_position == rejecting_position(fresh, letters)
            assert rejecting_position(auto, letters) == ce.rejecting_position

    def test_tripped_atom_limit_is_retried(self, monkeypatch):
        auto = template_for("forall p. G a@p")[0].automaton
        monkeypatch.setattr(template, "ATOM_LIMIT", 0)
        assert rejecting_position(auto, [1, 1]) == 2  # the fallback
        assert auto.initial_state not in auto.empties
        monkeypatch.undo()
        assert rejecting_position(auto, [1, 1]) == 0
        assert auto.empties[auto.initial_state] is True

    def test_tripped_state_limit_is_retried(self):
        qf = parse_formula("forall p. G a@p")
        auto = build_template(desugar(qf.body), qf.variables, state_limit=1).automaton
        assert rejecting_position(auto, [1, 1]) == 2  # the fallback
        assert auto.empties == {}
        auto.state_limit = 2
        assert rejecting_position(auto, [1, 1]) == 0


def oracle_prog(f, letter, bits):
    """Progression as it was before short-circuiting: every child is read."""
    if isinstance(f, Atom):
        return TRUE if letter >> bits[f.ref] & 1 else FALSE
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Not):
        return mk_not(oracle_prog(f.sub, letter, bits))
    if isinstance(f, Or):
        return mk_or(oracle_prog(a, letter, bits) for a in f.args)
    if isinstance(f, And):
        return mk_and(oracle_prog(a, letter, bits) for a in f.args)
    if isinstance(f, Next):
        return f.sub
    if isinstance(f, Until):
        return mk_or(
            (
                oracle_prog(f.rhs, letter, bits),
                mk_and((oracle_prog(f.lhs, letter, bits), f)),
            )
        )
    raise MonitorError(f"automaton states must be desugared bodies, got {type(f).__name__}")


def count_progressions(monkeypatch):
    """Count the canonical_state calls ``step`` makes from now on."""
    calls = []
    original = template.canonical_state

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(template, "canonical_state", counted)
    return calls


def nests_until_and_next(f, above=frozenset()):
    """Whether some until has a next below it, or some next an until."""
    kind = type(f)
    if kind in (Until, Next):
        if {Until, Next} - {kind} <= above:
            return True
        above = above | {kind}
    return any(nests_until_and_next(sub, above) for sub in children(f))


def check_against_oracle(auto, rng, max_states=12):
    """Step every letter, in shuffled order, from up to ``max_states``
    states and compare each successor with the oracle's; returns the count."""
    letters = list(range(1 << len(auto.support)))
    order = [auto.initial_state]
    checked = 0
    for state in order:  # grows while stepping; capped below
        rng.shuffle(letters)
        for letter in letters:
            succ = auto.step(state, letter)
            expected = canonical_state(
                oracle_prog(auto.formulas[state], letter, auto.bits)
            )
            assert auto.formulas[succ] == expected
            checked += 1
            if succ not in order and len(order) < max_states:
                order.append(succ)
    return checked


class TestTransitionTree:
    def test_matches_full_progression(self, rng):
        """Every (state, letter) successor equals the oracle's, letters in
        shuffled order so the diagrams grow in many shapes."""
        props = ("a", "b", "c", "d")  # with p and q: at most 8 atoms
        checked = 0
        for _ in range(60):
            body = desugar(random_body(rng, 4, props=props))
            auto = build_template(body, ("p", "q")).automaton
            checked += check_against_oracle(auto, rng)
        assert checked > 5_000

    def test_three_variable_chains_match_full_progression(self, rng):
        """The chain check_transitivity builds, body(p,q) & body(q,r) &
        !body(p,r), on bodies over all four atoms that nest untils and
        nexts: 64 letters per state."""
        checked = bodies = 0
        while bodies < 10:
            body = desugar(random_body(rng, 3))
            if len(atom_refs(body)) < 4 or not nests_until_and_next(body):
                continue
            bodies += 1
            chain = And((
                body,
                rename_variables(body, {"p": "q", "q": "r"}),
                Not(rename_variables(body, {"q": "r"})),
            ))
            auto = build_template(chain, ("p", "q", "r")).automaton
            checked += check_against_oracle(auto, rng, max_states=5)
        assert checked > 2_000

    @pytest.mark.parametrize("text, transitions", [
        ("forall p. forall q. G (a@p -> X (b@q | c@q))", 11),
        ("forall p. forall q. (a@p <-> a@q) U X (b@p & c@q & d@p)", 46),
    ])
    def test_atoms_below_a_next_split_no_letters(self, text, transitions):
        tpl, _ = template_for(text)
        auto = tpl.automaton
        materialize(auto)
        for state, f in enumerate(auto.formulas):
            assert auto.rel[state] == auto._reads(f)
        assert len(auto.delta) == transitions

    def test_leaf_progression_reads_no_letter(self):
        atom = parse_formula("forall p. a@p").body
        assert prog(Next(atom)) is atom
        # a leaf has no atom of the current step left to read
        with pytest.raises(MonitorError):
            prog(Or((Next(atom), atom)))

    def test_one_progression_per_letter_class(self, monkeypatch):
        qf = independence_property("xor4", ("lhs1",), ("out0",))
        session = Session(qf, MonitorOptions(trace_analysis=False))
        calls = count_progressions(monkeypatch)
        corpus = random_traces("xor4", 150, 5, seed=7)
        traces = [circuit.to_trace(f"t{i}") for i, circuit in enumerate(corpus)]
        for trace in traces:
            assert not session.process_trace(trace).is_violation
        # the tuple loop steps only the letters its live sets leave open, so
        # every pair's joint word runs through step on its own as well
        auto = session.template.automaton
        p = [trace_masks(auto, "p", trace) for trace in traces]
        q = [trace_masks(auto, "q", trace) for trace in traces]
        for masks in p:
            for other in q:
                assert run_masks(auto, [masks, other])
        assert len(auto.delta) > 1000
        assert 0 < len(calls) < len(auto.delta) / 10
        # one progression per distinct pending residual: a handful in all
        assert len(calls) <= 10

    def test_state_limit_trips_on_the_same_step(self, rng):
        qf = parse_formula("forall p. (a@p U b@p) & (b@p U a@p) & F (a@p & X b@p)")
        body = desugar(qf.body)
        trips = 0
        for limit in (1, 2, 3) * 10:
            auto = build_template(body, qf.variables, state_limit=limit).automaton
            letters = [rng.randrange(1 << len(auto.support)) for _ in range(12)]
            # oracle run: the first step whose successor would be state limit + 1
            current = auto.formulas[auto.initial_state]
            known = {current}
            expected = None
            for i, letter in enumerate(letters):
                current = canonical_state(oracle_prog(current, letter, auto.bits))
                if current not in known and len(known) == limit:
                    expected = i
                    break
                known.add(current)
            tripped = None
            state = auto.initial_state
            for i, letter in enumerate(letters):
                try:
                    state = auto.step(state, letter)
                except ResourceLimitError:
                    tripped = i
                    break
            assert tripped == expected
            trips += tripped is not None
        assert trips >= 10

    def test_grafted_path_survives_a_tripped_limit(self, monkeypatch):
        qf = parse_formula("forall p. (a@p | b@p) U (c@p & X d@p)")
        auto = build_template(desugar(qf.body), qf.variables, state_limit=1).automaton
        bit = {ref.proposition: 1 << i for ref, i in auto.bits.items()}
        start = auto.initial_state
        # c false, a true: the residual stays put, b is never read
        assert auto.step(start, bit["a"]) == start
        with pytest.raises(ResourceLimitError):
            auto.step(start, bit["c"])  # a second state is over the limit
        calls = count_progressions(monkeypatch)
        # new letters that reach the leaf of the first letter: answered by
        # the diagram alone
        assert auto.step(start, bit["a"] | bit["b"]) == start
        assert auto.step(start, bit["a"] | bit["d"]) == start
        assert calls == []
        # the tripped leaf stays open: it progresses, and trips, again
        with pytest.raises(ResourceLimitError):
            auto.step(start, bit["c"] | bit["d"])
        assert len(calls) == 1
        with pytest.raises(ResourceLimitError):
            auto.step(start, bit["c"] | bit["a"])
        assert len(auto.formulas) == 1


class TestProgressionMemo:
    def test_each_residual_progresses_once(self, monkeypatch):
        """Spec analysis of ``G``³⁰ ``a@p`` reaches 308 distinct leaf
        formulas, which share their subformulas.  Progression keeps its
        residual on the node, so each is progressed once; recomputed per
        call, the same analysis made 231,432 ``prog`` calls."""
        calls = []
        original = template.prog

        def counted(f):
            calls.append(f)
            return original(f)

        monkeypatch.setattr(template, "prog", counted)
        result = analyze(parse_formula("forall p. forall q. " + "G " * 30 + "a@p"))
        assert result.flags() == (True, True, False)
        assert len(calls) < 5_000
