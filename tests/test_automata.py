import itertools
import random

import pytest

from hypermon.automata import (
    Dfa,
    atoms_to_letter,
    is_empty,
    language_included,
    letter_to_atoms,
    minimize,
    to_dot,
)
from hypermon.errors import SupportMismatchError
from hypermon.formula import AtomRef, desugar, rename_variables
from hypermon.parser import parse_formula
from hypermon.template import build_template, lazy_is_empty, materialize

from conftest import random_body


A_P = AtomRef("a", "p")
B_P = AtomRef("b", "p")


def explicit(text, support=None):
    qf = parse_formula(text)
    tpl = build_template(desugar(qf.body), qf.variables, support)
    return materialize(tpl.automaton)


class TestLetters:
    def test_roundtrip(self):
        support = (A_P, B_P)
        for letter in range(4):
            assert atoms_to_letter(letter_to_atoms(letter, support), support) == letter


class TestEmptiness:
    def test_globally_atom_empty(self):
        assert is_empty(explicit("forall p. G a@p")) == (True, None)

    def test_atom_witness_is_shortest(self):
        empty, witness = is_empty(explicit("forall p. a@p"))
        assert not empty
        assert witness == (frozenset({A_P}),)

    def test_true_witness_is_empty_word(self):
        assert is_empty(explicit("forall p. true")) == (False, ())

    def test_witness_prefers_smaller_letters(self):
        # both {a} and {a,b} accepted; the numerically smaller letter wins
        empty, witness = is_empty(explicit("forall p. a@p | a@p & b@p"))
        assert witness == (frozenset({A_P}),)

    def test_lazy_and_explicit_searches_find_the_same_witness(self):
        rng = random.Random(3)
        for _ in range(300):
            auto = build_template(desugar(random_body(rng, 3)), ("p", "q")).automaton
            empty, word = lazy_is_empty(auto)
            if word is not None:
                word = tuple(letter_to_atoms(l, auto.support) for l in word)
            assert (empty, word) == is_empty(materialize(auto))


class TestInclusion:
    def test_empty_included_in_anything(self):
        a = explicit("forall p. G a@p", (A_P, B_P))
        b = explicit("forall p. b@p", (A_P, B_P))
        assert language_included(a, b) == (True, None)

    def test_reflexive(self):
        a = explicit("forall p. a@p U b@p")
        assert language_included(a, a) == (True, None)

    def test_support_mismatch(self):
        a = explicit("forall p. a@p")
        b = explicit("forall p. b@p")
        with pytest.raises(SupportMismatchError):
            language_included(a, b)

    def test_counterexample_word_separates(self):
        support = (A_P, B_P)
        a = explicit("forall p. a@p", support)
        b = explicit("forall p. a@p & b@p", support)
        included, word = language_included(a, b)
        assert not included
        assert a.accepts_atom_word(word) and not b.accepts_atom_word(word)

    def test_agrees_with_bounded_brute_force(self, rng):
        for _ in range(80):
            b1 = rename_variables(random_body(rng, 2), {"q": "p"})
            b2 = rename_variables(random_body(rng, 2), {"q": "p"})
            support = tuple(
                sorted(
                    set(build_template(desugar(b1), ("p",)).support)
                    | set(build_template(desugar(b2), ("p",)).support)
                )
            )
            d1 = materialize(build_template(desugar(b1), ("p",), support).automaton)
            d2 = materialize(build_template(desugar(b2), ("p",), support).automaton)
            included, cex = language_included(d1, d2)
            bound = min(d1.num_states * d2.num_states, 6)
            brute = None
            for length in range(bound + 1):
                for word in itertools.product(range(d1.num_letters), repeat=length):
                    if d1.accepts(word) and not d2.accepts(word):
                        brute = word
                        break
                if brute is not None:
                    break
            assert included == (brute is None)
            if not included:
                assert len(cex) == len(brute)  # shortest separating word


class TestMinimize:
    def test_never_grows_and_preserves_language(self, rng):
        for _ in range(60):
            f = random_body(rng, 3)
            d = materialize(build_template(desugar(f), ("p", "q")).automaton)
            m = minimize(d)
            assert m.num_states <= d.num_states
            for length in range(4):
                for word in itertools.product(range(d.num_letters), repeat=length):
                    assert d.accepts(word) == m.accepts(word)

    def test_collapses_duplicate_states(self):
        # two states with identical futures must merge
        d = Dfa(
            support=(A_P,),
            initial=0,
            accepting=frozenset({3}),
            transitions=((1, 2), (3, 3), (3, 3), (3, 3)),
        )
        m = minimize(d)
        assert m.num_states == 3

    def test_matches_naive_refinement_on_random_dfas(self, rng):
        def moore_classes(d):
            cls = [1 if s in d.accepting else 0 for s in range(d.num_states)]
            while True:
                sig = {}
                new = []
                for s in range(d.num_states):
                    key = (cls[s],) + tuple(
                        cls[d.transitions[s][l]] for l in range(d.num_letters)
                    )
                    new.append(sig.setdefault(key, len(sig)))
                if new == cls:
                    return len(set(cls))
                cls = new

        for _ in range(100):
            n = rng.randrange(2, 9)
            support = (A_P,) if rng.random() < 0.5 else (A_P, B_P)
            letters = 1 << len(support)
            transitions = tuple(
                tuple(rng.randrange(n) for _ in range(letters)) for _ in range(n)
            )
            accepting = frozenset(s for s in range(n) if rng.random() < 0.4)
            d = Dfa(support, 0, accepting, transitions)
            reach = {0}
            frontier = [0]
            while frontier:
                s = frontier.pop()
                for l in range(letters):
                    t = transitions[s][l]
                    if t not in reach:
                        reach.add(t)
                        frontier.append(t)
            ids = {s: i for i, s in enumerate(sorted(reach))}
            reference = Dfa(
                support,
                ids[0],
                frozenset(ids[s] for s in accepting if s in reach),
                tuple(
                    tuple(ids[transitions[s][l]] for l in range(letters))
                    for s in sorted(reach)
                ),
            )
            assert minimize(d).num_states == moore_classes(reference)


class TestDot:
    def test_eq_template_dot(self):
        d = explicit("forall p. forall q. G (a@p <-> a@q)")
        dot = to_dot(d)
        assert d.num_states >= 2
        assert dot.count("doublecircle") >= 1
        assert "a@p" in dot and "a@q" in dot

    def test_single_state_universal(self):
        d = explicit("forall p. true")
        dot = to_dot(d)
        assert d.num_states == 1
        assert "q0 -> q0" in dot
