"""Prefix trees of the stored traces' projected masks, and the walk that runs
a family of tuples over one of them at once.

The design follows Finkbeiner, Hahn, Stenger & Tentrup, "Efficient monitoring
of hyperproperties using prefix trees" (STTT 2020).  A session keeps one tree
per variable a stored trace can take in a tuple.  A node is one step of mask
values shared by the traces below it; the traces whose masks end at a node
are listed there by their serial, the trace's position in the store.  The
store is append-only, so the trees only grow: a node's smallest serial is
the one of the trace that created it, its largest is the last one inserted
below it, and a trace's masks can be read back off the path to its leaf.

:meth:`PrefixTree.first_violator` runs the joint word of the fixed slots
against every trace of the tree in one depth-first walk: at most one
automaton step per node, not one per tuple, and a subtree is settled as a
whole once the state is decided (``true_sid`` or ``false_sid``).  A node
with many children first asks the automaton for its live set
(``TemplateAutomaton.live``): the free slot's mask values that the state's
transition diagram, restricted to the fixed slots' letter, does not already
send to ``true_sid``.  Only children whose masks are in it are stepped; the
rest would step to ``true_sid`` and be skipped anyway.  The answer equals
running each tuple on its own with ``template.run_masks``: a trace past its
end contributes mask 0, and a trace that ends early runs the rest of the
fixed letters with ``template.accepts_from``.
"""

from .template import accepts_from


class Node:
    """One step of mask values; ``ends`` lists, ascending, the serials of the
    traces that end here, and ``first``/``last`` bound the serials below:
    ``first`` is fixed when the node is created."""

    __slots__ = ("mask", "parent", "children", "ends", "first", "last")

    def __init__(self, mask, parent, serial):
        self.mask = mask
        self.parent = parent
        self.children = ()
        self.ends = ()
        self.first = self.last = serial


class PrefixTree:
    """The masks of the stored traces for one variable, as a trie; ``leaves``
    maps each serial to the node its trace ends at."""

    def __init__(self):
        self.root = Node(None, None, None)
        self.leaves = {}
        # every bit some mask in the tree sets: the free bits of a live set;
        # a bit of the variable that no mask sets is 0 in every child
        self.bits = 0
        # the smallest live set a walk has seen (a fallback counts as the
        # node's fan-out), None before the first
        self.least = None

    def add(self, masks, serial) -> None:
        """Insert a trace's masks; ``serial`` exceeds every serial held."""
        node = self.root
        if node.first is None:
            node.first = serial
        node.last = serial
        for mask in masks:
            for child in node.children:
                if child.mask == mask:
                    break
            else:
                child = Node(mask, node, serial)
                node.children += (child,)
                self.bits |= mask
            child.last = serial
            node = child
        node.ends += (serial,)
        self.leaves[serial] = node

    def masks(self, serial) -> list:
        """The masks of the trace with this serial, read off its path."""
        node, masks = self.leaves[serial], []
        while node is not self.root:
            masks.append(node.mask)
            node = node.parent
        masks.reverse()
        return masks

    def first_violator(self, auto, word, lo, hi):
        """Smallest serial in [lo, hi] whose trace, in the free slot, makes
        the tuple's joint word with ``word`` (the fixed slots' letters)
        rejected by ``auto``; None when every such tuple is accepted.

        A subtree whose serials cannot beat the best violator found so far,
        or lie below ``lo``, is not entered.  A node asks for its live set
        only when it has more children than the smallest live set seen.
        """
        step, live, rel = auto.step, auto.live, auto.rel
        # both decided states absorb, so a walk that meets one before it is
        # registered (still -1 here) only runs longer, to the same answer
        true_sid, false_sid = auto.true_sid, auto.false_sid
        size = len(word)
        best = hi + 1
        bits, least = self.bits, self.least
        node, state, depth = self.root, auto.initial_state, 0
        # one frame per node on the path: its children not yet tried, its
        # state, the next letter of the fixed slots and the children's depth;
        # children are tried oldest first and entered at once, so a young
        # sibling is stepped only if it can still beat the best violator
        frames = []
        while True:
            # the free slot's trace ends here: the fixed letters run on
            if node.ends and not accepts_from(auto, state, word[depth:]):
                for serial in node.ends:
                    if serial >= lo:
                        best = min(best, serial)
                        break
            letter = word[depth] if depth < size else 0
            children = node.children
            fanout = len(children)
            # before any live set is seen, a lone child is not worth a walk
            if fanout > (1 if least is None else least):
                values = live(state, letter, bits, fanout)
                if values is None:
                    seen = fanout
                else:
                    seen = len(values)
                    within = rel[state]
                    children = [c for c in children if c.mask & within in values]
                least = seen if least is None else min(least, seen)
            frames.append((iter(children), state, letter, depth + 1))
            while frames:
                children, state, letter, depth = frames[-1]
                for node in children:
                    if node.first >= best or node.last < lo:
                        continue
                    succ = step(state, letter | node.mask)
                    if succ == true_sid:
                        continue
                    if succ == false_sid and node.first >= lo:
                        best = node.first
                        continue
                    state = succ
                    break
                else:
                    frames.pop()
                    continue
                break
            else:
                self.least = least
                return best if best <= hi else None
