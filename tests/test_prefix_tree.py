"""Prefix trees against brute force: leaves and serial bounds under inserts,
and the walk against running each tuple on its own."""

import random

from hypermon.circuits import independence_property, random_traces
from hypermon.formula import desugar
from hypermon.prefix_tree import PrefixTree
from hypermon.semantics import Trace
from hypermon.template import build_template, run_masks, trace_masks

from conftest import random_body, random_trace, trie_serials


def _leaf(tree, masks):
    node = tree.root
    for mask in masks:
        node = next(c for c in node.children if c.mask == mask)
    return node


def test_leaves_and_bounds_follow_inserts_and_removals():
    rng = random.Random(5)
    for _ in range(40):
        tree, held = PrefixTree(), {}
        for serial in range(40):
            masks = [rng.randrange(4) for _ in range(rng.randint(0, 4))]
            tree.add(masks, serial)
            held[serial] = masks
            assert sorted(trie_serials(tree.root)) == sorted(held)
            assert sorted(tree.leaves) == sorted(held)
            for s, masks in held.items():
                assert s in _leaf(tree, masks).ends
                assert tree.leaves[s] is _leaf(tree, masks)
                assert tree.masks(s) == masks


def test_first_violator_is_the_first_rejected_tuple_in_range():
    rng = random.Random(6)
    ranged = 0
    for _ in range(150):
        auto = build_template(desugar(random_body(rng, 3)), ("p", "q")).automaton
        held = {}
        tree = PrefixTree()
        for s in range(8):
            held[s] = trace_masks(auto, "p", random_trace(rng, f"t{s}", 4))
            tree.add(held[s], s)
        fixed = trace_masks(auto, "q", random_trace(rng, "fixed", 4))
        for lo in range(8):
            for hi in range(lo, 8):
                expected = next(
                    (s for s in sorted(held)
                     if lo <= s <= hi and not run_masks(auto, [held[s], fixed])),
                    None,
                )
                assert tree.first_violator(auto, fixed, lo, hi) == expected
                ranged += expected is not None and expected > lo
    assert ranged  # some violators sit above the range's first serial


def _live_cases(rng):
    """(automaton, stored masks of p, fixed words of q) with more stored
    traces than a node's live sets usually hold: the xor4 body, whose fixed
    words flip an output of a stored trace, then random bodies over three
    propositions."""
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


def test_pruned_walk_is_the_first_rejected_tuple_in_range():
    """Nodes with more children than live values: the walk steps only the
    live ones and still finds each range's first rejected tuple.  The cases
    reach states that read only some of the free bits, live values that
    lead to the rejecting state, and leaves no letter has progressed yet."""
    rng = random.Random(9)
    seen = {"pruned": 0, "partial rel": 0, "rejecting": 0, "unprogressed": 0}
    for auto, stored, fixed in _live_cases(rng):
        tree = PrefixTree()
        for serial, masks in enumerate(stored):
            tree.add(masks, serial)
        asked = []
        live = auto.live

        def recorded(state, letter, free, fanout):
            values = live(state, letter, free, fanout)
            if values is not None and len(values) < fanout:
                asked.append((state, letter, values))
                seen["partial rel"] += bool(free & ~auto.rel[state])
                seen["unprogressed"] += any(
                    node[0] < 0 and node[1] is None for node in auto.nodes.values()
                )
            return values

        auto.live = recorded
        for word in fixed:
            for lo in range(len(stored)):
                for hi in range(lo, len(stored)):
                    expected = next(
                        (s for s in range(lo, hi + 1)
                         if not run_masks(auto, [stored[s], word])),
                        None,
                    )
                    assert tree.first_violator(auto, word, lo, hi) == expected
        seen["pruned"] += len(asked)
        seen["rejecting"] += sum(
            auto.step(state, letter | value) == auto.false_sid
            for state, letter, values in asked
            for value in values
        )
    assert all(seen.values()), seen
