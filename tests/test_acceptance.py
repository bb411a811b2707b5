"""Acceptance suite: one test per release criterion, one PASS line each."""

import itertools
import random
import time

from hypermon.automata import language_included, minimize
from hypermon.circuits import independence_property, random_traces
from hypermon.engine import MonitorOptions, Session
from hypermon.formula import QuantifiedFormula, classify_prefix, desugar
from hypermon.parser import parse_formula
from hypermon.semantics import Trace, eval_body, eval_quantified
from hypermon.spec_analysis import analyze
from hypermon.template import build_template, lazy_is_empty, materialize
from hypermon.trace_analysis import DominanceChecker, TraceStore, minimize_store

from conftest import random_body, random_trace


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


# -- 1. automaton acceptance equals the direct semantics --------------------

def test_criterion_1_oracle_equivalence(rng):
    cases = 1000
    mismatches = 0
    begin = time.perf_counter()
    for _ in range(cases):
        body = random_body(rng, 4)
        template = build_template(desugar(body), ("p", "q"))
        assignment = {"p": random_trace(rng, "tp"), "q": random_trace(rng, "tq")}
        if template.accepts(assignment) != eval_body(assignment, body):
            mismatches += 1
    elapsed = time.perf_counter() - begin
    assert mismatches == 0
    assert elapsed < 30.0
    report("1 oracle-equivalence", f"{cases} cases, 0 mismatches, {elapsed:.1f}s")


# -- 2. specification-analysis flags for the classic formulas ---------------

ANALYSIS_TABLE = [
    ("ObsDet1", "forall p. forall q. G (i@p <-> i@q) -> G (o@p <-> o@q)",
     (True, False, True)),
    ("ObsDet2", "forall p. forall q. (i@p <-> i@q) -> G (o@p <-> o@q)",
     (True, False, True)),
    ("ObsDet3", "forall p. forall q. (o@p <-> o@q) W !(i@p <-> i@q)",
     (True, False, True)),
    ("QuantNoninf",
     "forall p0. forall p1. forall p2. "
     "!((i@p1 <-> i@p0) & (i@p2 <-> i@p0) "
     "& !(o@p0 <-> o@p1) & !(o@p0 <-> o@p2) & !(o@p1 <-> o@p2))",
     (True, False, True)),
    ("EQ", "forall p. forall q. G (a@p <-> a@q)", (True, True, True)),
]


def test_criterion_2_formula_analysis_table():
    for name, text, expected in ANALYSIS_TABLE:
        result = analyze(parse_formula(text))
        assert result.flags() == expected, name
        slowest = max(result.durations.values())
        assert slowest < 1.0, (name, result.durations)
    report("2 formula-analysis table", f"{len(ANALYSIS_TABLE)} formulas, all < 1s")


# -- 3. exact instance count on the 1000-trace xor corpus -------------------

def test_criterion_3_xor_instance_count():
    prop = independence_property("xor4", ["lhs1"], ["out0"])
    corpus = random_traces("xor4", 1000, 5, seed=1)
    session = Session(prop, MonitorOptions(trace_analysis=False))
    begin = time.perf_counter()
    for i, circuit_trace in enumerate(corpus):
        verdict = session.process_trace(circuit_trace.to_trace(f"t{i:05d}"))
        assert not verdict.is_violation
    elapsed = time.perf_counter() - begin
    assert session.stats.instances_run == 499_500
    assert elapsed < 60.0
    report("3 xor instance count", f"clean, 499500 instances, {elapsed:.1f}s")


# -- 4. qualitative verdicts across seeds -----------------------------------

COUNTER_BIAS = {"incr": 0.85, "decr": 0.05}


def _violated_within(kind, sources, targets, limit, length, seed, bias=None):
    """How many of the first ``limit`` traces of the seeded corpus the
    monitor reads before it reports a violation, or None.  Trace i of
    ``random_traces`` depends on the seed and i alone, so the corpus is
    simulated in doubling chunks, of which only the traces not fed yet are
    fed."""
    prop = independence_property(kind, sources, targets)
    session = Session(prop, MonitorOptions(trace_analysis=False))
    fed, size = 0, 16
    while fed < limit:
        size = min(2 * size, limit)
        for i, circuit_trace in enumerate(random_traces(kind, size, length, seed, bias)[fed:], fed):
            if session.process_trace(circuit_trace.to_trace(f"t{i:05d}")).is_violation:
                return i + 1
        fed = size
    return None


def test_criterion_4_table_verdicts():
    seeds = range(1, 11)
    in2 = [f"in2_{i}" for i in range(4)]
    out1 = ["out1_0", "out1_1"]

    hits = sum(
        _violated_within("xor4", ["lhs0"], ["out0"], 100, 5, s) is not None
        for s in seeds
    )
    assert hits >= 9, f"xor lhs0: only {hits}/10 seeds violated"

    clean = sum(
        _violated_within("mux_comb", in2, out1, 1000, 5, s) is None for s in seeds
    )
    assert clean >= 9, f"mux_comb: only {clean}/10 seeds clean"

    seq_hits = sum(
        _violated_within("mux_seq", in2, out1, 500, 5, s) is not None for s in seeds
    )
    assert seq_hits >= 9, f"mux_seq: only {seq_hits}/10 seeds violated"

    incr_hits = sum(
        _violated_within("counter3", ["incr"], ["overflow"], 5000, 20, s, COUNTER_BIAS)
        is not None
        for s in seeds
    )
    assert incr_hits >= 9, f"counter incr: only {incr_hits}/10 seeds violated"

    decr_hits = sum(
        _violated_within("counter3", ["decr"], ["overflow"], 5000, 20, s, COUNTER_BIAS)
        is not None
        for s in seeds
    )
    assert decr_hits >= 9, f"counter decr: only {decr_hits}/10 seeds violated"

    report(
        "4 table verdicts",
        f"xor {hits}/10, mux_comb clean {clean}/10, mux_seq {seq_hits}/10, "
        f"counter {incr_hits}/10 and {decr_hits}/10 with bias {COUNTER_BIAS}",
    )


# -- 5. verdicts are invariant under the optimisations ----------------------

def test_criterion_5_optimization_transparency():
    rng = random.Random(0x5EED)
    formulas = 200
    for _ in range(formulas):
        body = random_body(rng, 3)
        qf = QuantifiedFormula((("forall", "p"), ("forall", "q")), body)
        traces = [random_trace(rng, f"t{i}", 4) for i in range(rng.randrange(2, 9))]
        outcomes = set()
        for trace_analysis in (False, True):
            for spec_analysis in (False, True):
                session = Session(
                    qf,
                    MonitorOptions(
                        trace_analysis=trace_analysis, spec_analysis=spec_analysis
                    ),
                )
                hit = False
                for t in traces:
                    if session.process_trace(t).is_violation:
                        hit = True
                        break
                outcomes.add(hit)
        assert len(outcomes) == 1, str(qf)
    report("5 optimization transparency", f"{formulas} formulas x 4 configurations")


# -- 6. dominance agrees with the semantic notion of redundancy -------------

def _semantic_redundant(qf, keeper, candidate, universe):
    """candidate adds nothing to any superset of {keeper} within universe."""
    rest = [u for u in universe if u.steps != keeper.steps]
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            chosen = [keeper, *combo]
            if eval_quantified(chosen, qf) != eval_quantified(
                chosen + [candidate], qf
            ):
                return False
    return True


def _witness_separates(template, var, bound_accepts, bound_rejects, body):
    """The inclusion counterexample decodes to a trace telling the two
    instantiations apart, confirmed by the direct semantics."""
    d_a = minimize(materialize(template.instantiate(bound_accepts, var).automaton))
    d_r = minimize(materialize(template.instantiate(bound_rejects, var).automaton))
    included, word = language_included(d_a, d_r)
    if included:
        return True  # this direction was not the failing one
    (other_var,) = [v for v in template.free_variables if v != var]
    partner = Trace(
        tuple(
            frozenset(ref.proposition for ref in letter if ref.variable == other_var)
            for letter in word
        ),
        "w",
    )
    accepts = eval_body({var: bound_accepts, other_var: partner}, body)
    rejects = eval_body({var: bound_rejects, other_var: partner}, body)
    return accepts and not rejects


def test_criterion_6_dominance_oracle():
    rng = random.Random(0xD0B)
    for shape in ((("exists", "p"), ("exists", "q")),
                  (("forall", "p"), ("exists", "q"))):
        cases = 0
        positives = 0
        while cases < 100:
            body = random_body(rng, 3)
            qf = QuantifiedFormula(shape, body)
            template = build_template(desugar(body), ("p", "q"))
            checker = DominanceChecker(template, classify_prefix(qf))
            t1 = random_trace(rng, "t1", 3)
            t2 = random_trace(rng, "t2", 3)
            cases += 1
            universe = [t2] + [random_trace(rng, f"u{i}", 3) for i in range(3)]
            if checker.dominates(t1, t2):
                positives += 1
                assert _semantic_redundant(qf, t1, t2, universe), str(qf)
            else:
                # some inclusion failed; its shortest counterexample must be
                # a genuine separating scenario per the direct semantics
                seps = [
                    _witness_separates(template, v, a, b, body)
                    for v in ("p", "q")
                    for a, b in ((t1, t2), (t2, t1))
                ]
                assert all(seps), str(qf)
        assert positives >= 10, f"too few positive cases for {shape}"
        label = "".join(q[0].upper() for q, _ in shape)
        report(
            f"6 dominance oracle [{label}]",
            f"{cases} cases, {positives} positive, 0 mismatches",
        )


# -- 7. end-of-trace semantics edge cases ------------------------------------

def test_criterion_7_semantics_edge_cases():
    from hypermon.semantics import subsequence

    # an atom on the empty trace is false
    assert eval_body({"p": Trace((), "p")}, parse_formula("forall p. a@p").body) is False

    # window clamping: start past the end is empty, end clamps to the last step
    t = Trace.of([{"a"}, set(), {"b"}], "t")
    assert subsequence(t, 3, 5).steps == ()
    assert subsequence(t, 1, 99).steps == (frozenset(), frozenset({"b"}))

    # G a@p is unsatisfiable over finite traces: exhaustive up to length 4,
    # and the compiled template has an empty language
    g_atom = parse_formula("forall p. G a@p")
    for length in range(5):
        for bits in itertools.product((False, True), repeat=length):
            steps = [{"a"} if b else set() for b in bits]
            assert eval_body({"p": Trace.of(steps, "p")}, g_atom.body) is False
    template = build_template(desugar(g_atom.body), g_atom.variables)
    assert lazy_is_empty(template.automaton) == (True, None)
    report("7 semantics edge cases", "empty-trace rule, clamping, unsatisfiable G-atom")


# -- 8. storage minimization collapses redundant traces -----------------------

def _normalized(trace):
    steps = list(trace.steps)
    while steps and not steps[-1]:
        steps.pop()
    return tuple(steps)


def test_criterion_8_storage_minimization():
    rng = random.Random(0x57042)

    # body true: every stream collapses to the first trace
    qf_true = parse_formula("forall p. forall q. true")
    template = build_template(desugar(qf_true.body), qf_true.variables)
    qclass = classify_prefix(qf_true)
    for _ in range(20):
        store = TraceStore()
        for i in range(rng.randrange(1, 7)):
            store = minimize_store(template, qclass, store, random_trace(rng, f"t{i}"))
        assert store.names() == ["t0"]

    # EQ: exactly one trace per distinct letter pattern survives, where a
    # pattern ignores trailing empty steps (indistinguishable at end of trace)
    qf_eq = parse_formula("forall p. forall q. G (a@p <-> a@q)")
    template = build_template(desugar(qf_eq.body), qf_eq.variables)
    qclass = classify_prefix(qf_eq)
    checked = 0
    for _ in range(40):
        k = rng.randrange(1, 7)
        stream = [random_trace(rng, f"t{i}", 3, props=("a",)) for i in range(k)]
        store = TraceStore()
        for t in stream:
            store = minimize_store(template, qclass, store, t)
        expected = {}
        for t in stream:
            expected.setdefault(_normalized(t), t.name)
        assert sorted(store.names()) == sorted(expected.values())
        # brute force: the minimized store is verdict-equivalent to the full set
        assert eval_quantified(store.traces, qf_eq) == eval_quantified(stream, qf_eq)
        checked += 1
    report("8 storage minimization", f"constant-body collapse + {checked} EQ streams")
