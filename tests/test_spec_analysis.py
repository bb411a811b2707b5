import itertools

import pytest

from hypermon.errors import FragmentError
from hypermon.parser import parse_formula
from hypermon.semantics import eval_body
from hypermon.spec_analysis import (
    analyze,
    check_reflexivity,
    check_symmetry,
    check_transitivity,
    decode_word,
)

from conftest import all_traces

EQ = "forall p. forall q. G (a@p <-> a@q)"
OBSDET1 = "forall p. forall q. G (i@p <-> i@q) -> G (o@p <-> o@q)"
OBSDET2 = "forall p. forall q. (i@p <-> i@q) -> G (o@p <-> o@q)"
OBSDET3 = "forall p. forall q. (o@p <-> o@q) W !(i@p <-> i@q)"
QUANTNONINF = (
    "forall p0. forall p1. forall p2. "
    "!((i@p1 <-> i@p0) & (i@p2 <-> i@p0) "
    "& !(o@p0 <-> o@p1) & !(o@p0 <-> o@p2) & !(o@p1 <-> o@p2))"
)


class TestKnownFormulas:
    @pytest.mark.parametrize(
        "text,expected",
        [
            (OBSDET1, (True, False, True)),
            (OBSDET2, (True, False, True)),
            (OBSDET3, (True, False, True)),
            (QUANTNONINF, (True, False, True)),
            (EQ, (True, True, True)),
        ],
    )
    def test_flags(self, text, expected):
        assert analyze(parse_formula(text)).flags() == expected

    def test_single_variable_reports_all_false(self):
        result = analyze(parse_formula("forall p. a@p"))
        assert result.flags() == (False, False, False)


class TestSymmetry:
    def test_eq_symmetric(self):
        assert check_symmetry(parse_formula(EQ)) == (True, None)

    def test_directed_implication_not_symmetric(self):
        ok, witness = check_symmetry(parse_formula("forall p. forall q. G (a@p -> a@q)"))
        assert not ok
        assert witness  # a concrete asymmetric scenario

    def test_witness_decodes_to_asymmetric_pair(self):
        qf = parse_formula("forall p. forall q. G (a@p -> a@q)")
        _, witness = check_symmetry(qf)
        traces = decode_word(witness, ("p", "q"))
        forward = eval_body(traces, qf.body)
        backward = eval_body({"p": traces["q"], "q": traces["p"]}, qf.body)
        assert forward != backward

    def test_needs_two_variables(self):
        with pytest.raises(FragmentError):
            check_symmetry(parse_formula("forall p. a@p"))

    def test_flag_soundness_exhaustive(self):
        for text in (EQ, OBSDET2, OBSDET3):
            qf = parse_formula(text)
            assert check_symmetry(qf)[0]
            pool = all_traces(3, ("a",) if text == EQ else ("i", "o"))
            for t, u in itertools.product(pool[:30], pool[:30]):
                assert eval_body({"p": t, "q": u}, qf.body) == eval_body(
                    {"p": u, "q": t}, qf.body
                )


class TestReflexivity:
    def test_eq_reflexive(self):
        assert check_reflexivity(parse_formula(EQ)) == (True, None)

    def test_obsdet1_reflexive(self):
        assert check_reflexivity(parse_formula(OBSDET1)) == (True, None)

    def test_never_equal_not_reflexive(self):
        qf = parse_formula("forall p. forall q. G !(a@p <-> a@q)")
        ok, witness = check_reflexivity(qf)
        assert not ok
        traces = decode_word(witness, ("p",))
        t = traces["p"]
        assert eval_body({"p": t, "q": t.renamed("q")}, qf.body) is False

    def test_flag_soundness_exhaustive(self):
        qf = parse_formula(OBSDET3)
        assert check_reflexivity(qf)[0]
        for t in all_traces(3, ("i", "o")):
            assert eval_body({"p": t, "q": t.renamed("u")}, qf.body)

    def test_mixed_prefix_rejected(self):
        with pytest.raises(FragmentError):
            check_reflexivity(parse_formula("forall p. exists q. a@p -> a@q"))


class TestTransitivity:
    def test_eq_transitive(self):
        assert check_transitivity(parse_formula(EQ)) == (True, None)

    def test_obsdet_not_transitive(self):
        for text in (OBSDET1, OBSDET3):
            ok, witness = check_transitivity(parse_formula(text))
            assert not ok
            assert witness

    def test_witness_decodes_to_broken_chain(self):
        qf = parse_formula(OBSDET1)
        _, witness = check_transitivity(qf)
        v1, v2 = qf.variables
        v3 = v2 + "_2"  # the fresh chain variable
        traces = decode_word(witness, (v1, v2, v3))
        t1, t2, t3 = traces[v1], traces[v2], traces[v3]
        assert eval_body({"p": t1, "q": t2}, qf.body)
        assert eval_body({"p": t2, "q": t3}, qf.body)
        assert not eval_body({"p": t1, "q": t3}, qf.body)

    def test_eq_transitivity_soundness_exhaustive(self):
        qf = parse_formula(EQ)
        pool = all_traces(2, ("a",))
        for t, u, v in itertools.product(pool, repeat=3):
            if eval_body({"p": t, "q": u}, qf.body) and eval_body(
                {"p": u, "q": v}, qf.body
            ):
                assert eval_body({"p": t, "q": v}, qf.body)

    def test_three_variables_rejected(self):
        with pytest.raises(FragmentError):
            check_transitivity(parse_formula(QUANTNONINF))


class TestAnalyze:
    def test_durations_recorded(self):
        result = analyze(parse_formula(EQ))
        assert set(result.durations) == {"symmetric", "transitive", "reflexive"}
        assert all(d < 1.0 for d in result.durations.values())

    def test_resource_degradation_is_conservative(self):
        # a wide asymmetric body exceeds the explicit-alphabet guard (20
        # atoms against ATOM_LIMIT): the affected flags fall back to "not
        # detected" instead of erroring
        bits = " & ".join(f"(x{i}@p -> x{i}@q)" for i in range(10))
        qf = parse_formula(f"forall p. forall q. G ({bits})")
        result = analyze(qf)
        assert result.symmetric is False
        assert result.transitive is False
        assert "symmetric" in result.notes and "transitive" in result.notes
        # reflexivity identifies the variables first (10 atoms), so it stays
        # decidable
        assert result.reflexive is True
