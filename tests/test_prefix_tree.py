"""Prefix trees against brute force: leaves and serial bounds under inserts,
and the walk against running each tuple on its own."""

import itertools
import random

from hypermon.circuits import independence_property, random_traces
from hypermon.formula import And, Atom, AtomRef, Iff, Implies, Next, Not, WeakUntil, desugar
from hypermon import prefix_tree
from hypermon.prefix_tree import WIDE, PrefixTree
from hypermon.semantics import Trace
from hypermon.template import build_template, run_masks, trace_masks

from conftest import random_body, random_trace, trie_serials


def _leaf(tree, masks):
    node = tree.root
    for mask in masks:
        node = next(c for c in node.children if c.mask == mask)
    return node


def test_leaves_and_bounds_follow_inserts_and_removals():
    """Masks from a range wider than ``WIDE``, so that some nodes find
    their children by mask."""
    rng = random.Random(5)
    wide = 0
    for _ in range(40):
        tree, held = PrefixTree(), {}
        for serial in range(40):
            masks = [rng.randrange(2 * WIDE) for _ in range(rng.randint(0, 4))]
            tree.add(masks, serial)
            held[serial] = masks
            assert sorted(trie_serials(tree.root)) == sorted(held)
            assert sorted(tree.leaves) == sorted(held)
            for s, masks in held.items():
                assert s in _leaf(tree, masks).ends
                assert tree.leaves[s] is _leaf(tree, masks)
                assert tree.masks(s) == masks
        wide += len(tree.wide)
    assert wide


def test_first_violator_is_the_first_rejected_tuple_in_range():
    """Both goals: the first rejected tuple (a violator) and the first
    accepted one (a witness)."""
    rng = random.Random(6)
    ranged = {False: 0, True: 0}
    for _ in range(150):
        auto = build_template(desugar(random_body(rng, 3)), ("p", "q")).automaton
        held = {}
        tree = PrefixTree()
        for s in range(8):
            held[s] = trace_masks(auto, "p", random_trace(rng, f"t{s}", 4))
            tree.add(held[s], s)
        fixed = trace_masks(auto, "q", random_trace(rng, "fixed", 4))
        for accepted in (False, True):
            for lo in range(8):
                for hi in range(lo, 8):
                    expected = next(
                        (s for s in sorted(held)
                         if lo <= s <= hi and run_masks(auto, [held[s], fixed]) == accepted),
                        None,
                    )
                    assert tree.first_serial(auto, fixed, lo, hi, accepted) == expected
                    ranged[accepted] += expected is not None and expected > lo
    # for each goal, some tuples found sit above the range's first serial
    assert all(ranged.values()), ranged


def _live_cases(rng):
    """(automaton, stored masks of p, fixed words of q) with more stored
    traces than a node's live sets usually hold: the xor4 body, whose fixed
    words flip an output of a stored trace, random bodies over three
    propositions, then bodies over four whose tries have nodes of more than
    ``WIDE`` children."""
    xor4 = independence_property("xor4", ("lhs1",), ("out0",)).body
    auto = build_template(desugar(xor4), ("p", "q")).automaton
    corpus = [c.to_trace(f"t{i}") for i, c in enumerate(random_traces("xor4", 40, 5, 3))]
    flipped = []
    for trace in corpus[:6]:
        steps = list(trace.steps)
        at = rng.randrange(len(steps))
        steps[at] = steps[at] ^ {"out0"}
        flipped.append(Trace(tuple(steps), "flipped"))
    yield (auto, [trace_masks(auto, "p", t) for t in corpus],
           [trace_masks(auto, "q", t) for t in flipped + corpus[-2:]])
    props = ("a", "b", "c")
    for _ in range(60):
        auto = build_template(desugar(random_body(rng, 3, props=props)), ("p", "q")).automaton
        stored = [trace_masks(auto, "p", random_trace(rng, f"t{s}", 3, props))
                  for s in range(16)]
        fixed = [trace_masks(auto, "q", random_trace(rng, "fixed", 3, props))
                 for _ in range(3)]
        yield auto, stored, fixed
    props = ("a", "b", "c", "d")
    same = {x: Iff(Atom(AtomRef(x, "p")), Atom(AtomRef(x, "q"))) for x in props}
    for i in range(30):
        if i % 2:
            # a random body, and p agreeing with q on every proposition until
            # it does not: some states read all of p's bits, some only part
            body = And((random_body(rng, 3, props=props),
                        WeakUntil(random_body(rng, 2, props=props),
                                  Not(And(tuple(same.values()))))))
        else:
            # p agrees with q on a and b, and p's c and d each choose a next
            # step: several live values, each read off all of p's bits
            match = And((same["a"], same["b"]))
            rest = And(tuple(
                Implies(Atom(AtomRef(x, "p")), Next(random_body(rng, 2, props=props)))
                for x in ("c", "d")
            ))
            body = Implies(match, rest) if rng.random() < 0.5 else And((match, rest))
        auto = build_template(desugar(body), ("p", "q")).automaton
        stored = [trace_masks(auto, "p", random_trace(rng, f"t{s}", 2, props))
                  for s in range(24)]
        fixed = [trace_masks(auto, "q", random_trace(rng, "fixed", 2, props))
                 for _ in range(2)]
        yield auto, stored, fixed


def test_pruned_walk_is_the_first_rejected_tuple_in_range(monkeypatch):
    """Nodes with more children than live values: the walk steps only the
    live ones and still finds each range's first rejected tuple, and first
    accepted one.  The cases reach states that read only some of the free
    bits, live values that lead to the state the walk looks for, and leaves
    no letter has progressed yet.  Nodes of more than ``WIDE`` children are
    pruned both ways: by looking the live values up, when the state reads
    every bit of the tree, and by filtering the children, when it does not.
    Walked again with every node filtered, a walk steps the same children in
    the same order."""
    rng = random.Random(9)
    seen = {"pruned": 0, "pruned for witnesses": 0, "partial rel": 0,
            "rejecting": 0, "accepting": 0, "unprogressed": 0,
            "wide, looked up": 0, "wide, filtered": 0}
    for auto, stored, fixed in _live_cases(rng):
        tree = PrefixTree()
        for serial, masks in enumerate(stored):
            tree.add(masks, serial)
        asked = []
        live = auto.live

        def recorded(state, letter, free, fanout, accepted):
            values = live(state, letter, free, fanout, accepted)
            if values is not None and len(values) < fanout:
                asked.append((state, letter, values, accepted))
                seen["partial rel"] += bool(free & ~auto.rel[state])
                if fanout > prefix_tree.WIDE:
                    filtered = free & ~auto.rel[state]
                    seen["wide, filtered" if filtered else "wide, looked up"] += 1
                seen["unprogressed"] += any(
                    node[0] < 0 and node[1] is None for node in auto.nodes.values()
                )
            return values

        auto.live = recorded
        stepped, step = [], auto.step
        auto.step = lambda state, letter: stepped.append((state, letter)) or step(state, letter)
        for word, accepted in itertools.product(fixed, (False, True)):
            for lo in range(len(stored)):
                for hi in range(lo, len(stored)):
                    expected = next(
                        (s for s in range(lo, hi + 1)
                         if run_masks(auto, [stored[s], word]) == accepted),
                        None,
                    )
                    least, stepped[:] = tree.least, []
                    assert tree.first_serial(auto, word, lo, hi, accepted) == expected
                    if not tree.wide:
                        continue
                    walked, stepped[:] = stepped[:], []
                    tree.least = least
                    with monkeypatch.context() as patched:
                        patched.setattr(prefix_tree, "WIDE", len(stored))
                        assert tree.first_serial(auto, word, lo, hi, accepted) == expected
                    assert stepped == walked
        seen["pruned"] += len(asked)
        seen["pruned for witnesses"] += sum(accepted for *_, accepted in asked)
        for state, letter, values, accepted in asked:
            found = auto.true_sid if accepted else auto.false_sid
            hits = sum(auto.step(state, letter | value) == found for value in values)
            seen["accepting" if accepted else "rejecting"] += hits
    assert all(seen.values()), seen
