"""Prefix trees of the stored traces' projected masks, and the walk that runs
a family of tuples over one of them at once.

The design follows Finkbeiner, Hahn, Stenger & Tentrup, "Efficient monitoring
of hyperproperties using prefix trees" (STTT 2020).  A session keeps one tree
per variable whose stored traces a walk runs over.  A node is one step of mask
values shared by the traces below it; the traces whose masks end at a node
are listed there by their serial, the trace's position in the store.  The
store is append-only, so the trees only grow: a node's smallest serial is
the one of the trace that created it, its largest is the last one inserted
below it, and a trace's masks can be read back off the path to its leaf.

A node is an int, the root 0, that indexes the tree's flat lists.  An
object per node, with its tuple of children, was most of what the cyclic
garbage collector walked; a dict of ints is never tracked, and a tuple of
ints is untracked once it survives a collection.

:meth:`PrefixTree.first_serial` runs the joint word of the fixed slots
against every trace of the tree in one depth-first walk, for a goal: the
first rejected tuple (a violator: universal tuple loops, ∀ rows) or the
first accepted one (a witness: ∃ rows).  It takes at most one automaton
step per node, not one per tuple, and a subtree is settled as a whole once
the state is decided: the state of the goal (``false_sid`` for a violator,
``true_sid`` for a witness) makes the subtree's first serial a candidate,
the other one rules the subtree out.  A node with many children first asks
the automaton for its live set (``TemplateAutomaton.live``): the free
slot's mask values that the state's transition diagram, restricted to the
fixed slots' letter, does not already send to the ruling-out state.  Only
children whose masks are in it are stepped; the rest would be skipped
anyway.  A node of more than ``WIDE`` children is also entered in the
tree's ``wide`` map, from the node to a dict of its children by mask:
:meth:`PrefixTree.add` looks a child up there instead of scanning, and so
does a walk whose state reads every bit the tree's masks set, taking the
live values' children oldest first (smallest node first), the order the
scan gives.  When the state leaves one of those bits unread, one live value
stands for several masks, and the walk filters the children as a narrow
node does.  A walk for a witness usually ends at the first child it steps,
so it asks for live sets only once it has met a dead end: building one
would cost more than the step it saves.  The answer equals running each
tuple on its own with ``template.run_masks``: a trace past its end
contributes mask 0, and a trace that ends early runs the rest of the fixed
letters with ``template.accepts_from``.
"""

from .template import accepts_from

WIDE = 8  # children a node scans; past it, the tree maps its masks to them


class PrefixTree:
    """The masks of the stored traces for one variable, as a trie: node
    ``n`` has ``mask[n]``, ``parent[n]``, ``kids[n]`` (oldest first),
    ``ends[n]`` (ascending) and the serials below it in
    ``first[n]``..``last[n]``; ``leaves`` maps each serial to its leaf."""

    def __init__(self):
        self.mask = [None]
        self.parent = [None]
        self.first = [None]
        self.last = [None]
        self.kids = [()]
        self.ends = [()]
        self.leaves = {}
        # node with more than WIDE children -> {mask: child}
        self.wide = {}
        # every bit some mask in the tree sets: the free bits of a live set;
        # a bit of the variable that no mask sets is 0 in every child
        self.bits = 0
        # the smallest live set a walk has seen (a fallback counts as the
        # node's fan-out), None before the first
        self.least = None

    def add(self, masks, serial) -> None:
        """Insert a trace's masks; ``serial`` exceeds every serial held."""
        mask, first, last, kids = self.mask, self.first, self.last, self.kids
        if first[0] is None:
            first[0] = serial
        last[0] = serial
        wide = self.wide
        node = 0
        for value in masks:
            children = kids[node]
            if len(children) > WIDE:
                index = wide[node]
                child = index.get(value)
            else:
                index = None
                for child in children:
                    if mask[child] == value:
                        break
                else:
                    child = None
            if child is None:
                child = len(mask)
                mask.append(value)
                self.parent.append(node)
                first.append(serial)
                last.append(serial)
                kids.append(())
                self.ends.append(())
                kids[node] = children = children + (child,)
                self.bits |= value
                if index is not None:
                    index[value] = child
                elif len(children) > WIDE:
                    wide[node] = {mask[c]: c for c in children}
            else:
                last[child] = serial
            node = child
        self.ends[node] += (serial,)
        self.leaves[serial] = node

    def masks(self, serial) -> list:
        """The masks of the trace with this serial, read off its path."""
        mask, parent = self.mask, self.parent
        node, masks = self.leaves[serial], []
        while node:
            masks.append(mask[node])
            node = parent[node]
        masks.reverse()
        return masks

    def first_serial(self, auto, word, lo, hi, accepted):
        """Smallest serial in [lo, hi] whose trace, in the free slot, makes
        the tuple's joint word with ``word`` (the fixed slots' letters)
        accepted by ``auto`` when ``accepted`` (a witness), rejected when
        not (a violator); None when no such tuple exists.

        A subtree whose serials cannot beat the best serial found so far,
        or lie below ``lo``, is not entered, and a serial of ``lo`` ends the
        walk.  A node asks for its live set only when it has more children
        than the smallest live set seen, and in a walk for a witness only
        once the walk has met a dead end.
        """
        step, live, rel = auto.step, auto.live, auto.rel
        # the decided state that settles a subtree as found, and the one that
        # settles it as not found; both absorb, so a walk that meets one
        # before it is registered (still -1 here) only runs longer, to the
        # same answer
        if accepted:
            found, lost = auto.true_sid, auto.false_sid
        else:
            found, lost = auto.false_sid, auto.true_sid
        size = len(word)
        best = hi + 1
        bits, least, wide = self.bits, self.least, self.wide
        mask, first, last, kids, ends = self.mask, self.first, self.last, self.kids, self.ends
        node, state, depth = 0, auto.initial_state, 0
        # a walk for a witness usually ends at the first child it steps, so
        # it asks for live sets only from its first dead end on
        ask = not accepted
        # one frame per node on the path: its children not yet tried, its
        # state, the next letter of the fixed slots and the children's depth;
        # children are tried oldest first and entered at once, so a young
        # sibling is stepped only if it can still beat the best serial
        frames = []
        while True:
            # the free slot's trace ends here: the fixed letters run on
            if ends[node] and accepts_from(auto, state, word[depth:]) == accepted:
                for serial in ends[node]:
                    if serial >= lo:
                        best = min(best, serial)
                        break
            letter = word[depth] if depth < size else 0
            children = kids[node]
            fanout = len(children)
            # before any live set is seen, a lone child is not worth a walk
            if ask and fanout > (1 if least is None else least):
                values = live(state, letter, bits, fanout, accepted)
                if values is None:
                    seen = fanout
                else:
                    seen = len(values)
                    within = rel[state]
                    if fanout > WIDE and not bits & ~within:
                        # every mask is a live value as it stands: look the
                        # values up, oldest child first
                        index = wide[node]
                        children = sorted([index[v] for v in values if v in index])
                    else:
                        children = [c for c in children if mask[c] & within in values]
                least = seen if least is None else min(least, seen)
            frames.append((iter(children), state, letter, depth + 1))
            while frames:
                children, state, letter, depth = frames[-1]
                for node in children:
                    at = first[node]
                    if at >= best or last[node] < lo:
                        continue
                    succ = step(state, letter | mask[node])
                    if succ == lost:
                        ask = True
                        continue
                    if succ == found and at >= lo:
                        best = at
                        if best == lo:  # nothing in range comes before it
                            self.least = least
                            return best
                        continue
                    state = succ
                    break
                else:
                    ask = True
                    frames.pop()
                    continue
                break
            else:
                self.least = least
                return best if best <= hi else None
