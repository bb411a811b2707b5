"""Prefix trees against brute force: leaves and serial bounds under inserts,
and the walk against running each tuple on its own."""

import random

from hypermon.formula import desugar
from hypermon.prefix_tree import PrefixTree
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
