import itertools

import pytest

from hypermon.circuits import (
    CircuitModel,
    independence_property,
    input_bits,
    output_bits,
    random_traces,
    simulate,
    step,
)
from hypermon.errors import CircuitInputError
from hypermon.formula import pretty_quantified


def xor_inputs(lhs, rhs):
    return {
        **{f"lhs{i}": bool(lhs >> i & 1) for i in range(4)},
        **{f"rhs{i}": bool(rhs >> i & 1) for i in range(4)},
    }


def mux_inputs(in1, in2, sel):
    return {
        **{f"in1_{i}": bool(in1 >> i & 1) for i in range(4)},
        **{f"in2_{i}": bool(in2 >> i & 1) for i in range(4)},
        "sel": bool(sel),
    }


class TestXor:
    def test_bitwise(self):
        m = CircuitModel.new("xor4")
        outs, m2 = step(m, xor_inputs(0b0011, 0b0101))
        assert [outs[f"out{i}"] for i in range(4)] == [
            bool(0b0110 >> i & 1) for i in range(4)
        ]
        assert m2 == m  # combinational

    def test_output_bit_depends_only_on_its_column(self):
        m = CircuitModel.new("xor4")
        for lhs, rhs in itertools.product(range(16), repeat=2):
            base, _ = step(m, xor_inputs(lhs, rhs))
            for j in range(4):
                for flip in range(8):
                    if flip in (j, j + 4):
                        continue  # lhs_j / rhs_j may change out_j
                    lhs2 = lhs ^ (1 << flip) if flip < 4 else lhs
                    rhs2 = rhs ^ (1 << (flip - 4)) if flip >= 4 else rhs
                    other, _ = step(m, xor_inputs(lhs2, rhs2))
                    assert other[f"out{j}"] == base[f"out{j}"]


class TestMux:
    def test_worked_example(self):
        outs, _ = step(CircuitModel.new("mux_comb"), mux_inputs(0b1010, 0b1111, 1))
        assert outs == {
            "out1_0": False,
            "out1_1": False,
            "out2_0": False,
            "out2_1": False,
        }

    def test_sel_low_routes_to_out2(self):
        outs, _ = step(CircuitModel.new("mux_comb"), mux_inputs(0b0000, 0b0001, 0))
        assert outs["out2_0"] is True
        assert outs["out1_0"] is False

    def test_comb_out1_is_function_of_in1_when_selected(self):
        m = CircuitModel.new("mux_comb")
        for in1 in range(16):
            seen = set()
            for in2 in range(16):
                outs, _ = step(m, mux_inputs(in1, in2, 1))
                seen.add((outs["out1_0"], outs["out1_1"]))
            assert len(seen) == 1

    def test_seq_state_leaks_earlier_in2(self):
        # two runs differing only in the second input vector diverge on out1
        # one step later, with sel held high
        run_a = simulate("mux_seq", [mux_inputs(0, 0b0001, 0), mux_inputs(0, 0, 1)])
        run_b = simulate("mux_seq", [mux_inputs(0, 0b0000, 0), mux_inputs(0, 0, 1)])
        first_a, first_b = run_a.steps[1], run_b.steps[1]
        assert (first_a["out1_0"], first_a["out1_1"]) != (
            first_b["out1_0"],
            first_b["out1_1"],
        )

    def test_seq_initial_state_matches_comb(self):
        inputs = mux_inputs(0b1100, 0b0011, 1)
        comb, _ = step(CircuitModel.new("mux_comb"), inputs)
        seq, _ = step(CircuitModel.new("mux_seq"), inputs)
        assert comb == seq  # register starts at zero


class TestCounter:
    def test_overflow_at_seven_and_wraparound(self):
        m = CircuitModel("counter3", 7)
        outs, m2 = step(m, {"incr": True, "decr": False})
        assert outs["overflow"] is True
        assert m2.state == 0

    def test_decrement_at_zero_holds(self):
        m = CircuitModel.new("counter3")
        outs, m2 = step(m, {"incr": False, "decr": True})
        assert outs["overflow"] is False
        assert m2.state == 0

    def test_both_inputs_hold(self):
        m = CircuitModel("counter3", 3)
        _, m2 = step(m, {"incr": True, "decr": True})
        assert m2.state == 3

    def test_overflow_requires_net_increments(self):
        # decrements at zero are absorbed, so replay the counter to check
        # each overflow pulse, and require at least 8 increments overall
        for trace in random_traces("counter3", 50, 20, seed=9):
            counter = 0
            for j, row in enumerate(trace.steps):
                expected = counter == 7 and row["incr"] and not row["decr"]
                assert row["overflow"] == expected, j
                if row["overflow"]:
                    ups = sum(
                        1
                        for r in trace.steps[: j + 1]
                        if r["incr"] and not r["decr"]
                    )
                    assert ups >= 8
                if row["incr"] and not row["decr"]:
                    counter = (counter + 1) % 8
                elif row["decr"] and not row["incr"] and counter > 0:
                    counter -= 1

    def test_missing_input_rejected(self):
        with pytest.raises(CircuitInputError):
            step(CircuitModel.new("counter3"), {"incr": True})


class TestRandomTraces:
    def test_same_seed_bit_identical(self):
        a = random_traces("xor4", 5, 4, seed=3)
        b = random_traces("xor4", 5, 4, seed=3)
        assert [t.steps for t in a] == [t.steps for t in b]

    def test_different_seeds_differ(self):
        a = random_traces("xor4", 5, 4, seed=3)
        b = random_traces("xor4", 5, 4, seed=4)
        assert [t.steps for t in a] != [t.steps for t in b]

    def test_shape(self):
        traces = random_traces("xor4", 7, 5, seed=1)
        assert len(traces) == 7
        for t in traces:
            assert len(t.steps) == 5
            assert set(t.steps[0]) == set(input_bits("xor4")) | set(
                output_bits("xor4")
            )

    def test_bias_shifts_distribution(self):
        biased = random_traces("counter3", 30, 20, seed=5, bias={"incr": 0.9})
        ones = sum(r["incr"] for t in biased for r in t.steps)
        assert ones > 0.7 * 30 * 20

    def test_bad_bias_name(self):
        with pytest.raises(CircuitInputError):
            random_traces("counter3", 1, 1, seed=0, bias={"nope": 0.5})

    @pytest.mark.parametrize("prob", [1.5, -0.2, float("nan"), float("inf")])
    def test_bias_outside_unit_interval(self, prob):
        with pytest.raises(CircuitInputError):
            random_traces("counter3", 1, 1, seed=0, bias={"incr": prob})

    def test_bias_bounds_are_valid(self):
        never = random_traces("counter3", 5, 10, seed=0, bias={"incr": 0})
        always = random_traces("counter3", 5, 10, seed=0, bias={"incr": 1})
        assert not any(r["incr"] for t in never for r in t.steps)
        assert all(r["incr"] for t in always for r in t.steps)


class TestIndependenceProperty:
    def test_counter_property_shape(self):
        qf = independence_property("counter3", ["incr"], ["overflow"])
        assert pretty_quantified(qf) == (
            "forall p. forall q. "
            "(overflow@p <-> overflow@q) W !(decr@p <-> decr@q)"
        )

    def test_xor_property_covers_seven_complement_inputs(self):
        from hypermon.formula import atom_refs

        qf = independence_property("xor4", ["lhs0"], ["out0"])
        propositions = {ref.proposition for ref in atom_refs(qf.body)}
        assert propositions == {
            "out0", "lhs1", "lhs2", "lhs3", "rhs0", "rhs1", "rhs2", "rhs3",
        }

    def test_all_inputs_as_sources_gives_invariance_claim(self):
        qf = independence_property("counter3", ["incr", "decr"], ["overflow"])
        # no allowed inputs left: the outputs must simply always agree
        text = pretty_quantified(qf)
        assert "false" in text

    def test_unknown_bits_rejected(self):
        with pytest.raises(CircuitInputError):
            independence_property("xor4", ["nope"], ["out0"])
        with pytest.raises(CircuitInputError):
            independence_property("xor4", ["lhs0"], ["nope"])
