"""Explicit deterministic finite-word automata over indexed-atom alphabets.

A letter is a subset of the automaton's support (an ordered list of indexed
atoms), encoded as a bitmask int: bit i set means support[i] is present.
Letters are ordered by that integer; witness searches break ties by it.
"""

from dataclasses import dataclass

from .errors import SupportMismatchError


def letter_to_atoms(letter: int, support) -> frozenset:
    return frozenset(ref for i, ref in enumerate(support) if letter >> i & 1)


def atoms_to_letter(atoms, support) -> int:
    index = {ref: i for i, ref in enumerate(support)}
    letter = 0
    for ref in atoms:
        letter |= 1 << index[ref]
    return letter


def format_letter(letter: int, support) -> str:
    atoms = sorted(letter_to_atoms(letter, support))
    return "{" + ",".join(str(a) for a in atoms) + "}"


@dataclass(frozen=True)
class Dfa:
    """Complete DFA: transitions[s][letter] is defined for every letter."""

    support: tuple  # tuple[AtomRef, ...]
    initial: int
    accepting: frozenset
    transitions: tuple  # tuple[tuple[int, ...], ...], one row per state

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    @property
    def num_letters(self) -> int:
        return 1 << len(self.support)

    def step(self, state: int, letter: int) -> int:
        return self.transitions[state][letter]

    def accepts(self, word) -> bool:
        state = self.initial
        for letter in word:
            state = self.transitions[state][letter]
        return state in self.accepting

    def accepts_atom_word(self, word) -> bool:
        return self.accepts(atoms_to_letter(a, self.support) for a in word)


def _shortest_word(start, expand, goal):
    """Breadth-first search for a shortest word leading from ``start`` to a goal.

    ``expand(state)`` yields (letter, successor) pairs in ascending letter
    order, so among the shortest words the one with the smallest letters
    first wins.  Returns the word as a tuple of letters (``()`` when ``start``
    is a goal), or None when no goal is reachable.
    """
    if goal(start):
        return ()
    parent = {start: None}
    queue = [start]
    while queue:
        next_queue = []
        for state in queue:
            for letter, succ in expand(state):
                if succ in parent:
                    continue
                parent[succ] = (state, letter)
                if goal(succ):
                    word = []
                    cur = succ
                    while parent[cur] is not None:
                        cur, letter = parent[cur]
                        word.append(letter)
                    word.reverse()
                    return tuple(word)
                next_queue.append(succ)
        queue = next_queue
    return None


def is_empty(d: Dfa):
    """(True, None) if no accepting state is reachable, else (False, witness).

    The witness is the shortest accepting word (lexicographically smallest by
    letter ints among the shortest), decoded to atom sets.
    """
    word = _shortest_word(
        d.initial,
        lambda state: enumerate(d.transitions[state]),
        d.accepting.__contains__,
    )
    if word is None:
        return True, None
    return False, tuple(letter_to_atoms(l, d.support) for l in word)


def language_included(a: Dfa, b: Dfa):
    """(True, None) if L(a) is a subset of L(b), else (False, counterexample).

    The counterexample is the shortest word in L(a) but not L(b).
    """
    word = _uncovered_word(a, b)
    if word is None:
        return True, None
    return False, tuple(letter_to_atoms(l, a.support) for l in word)


def _uncovered_word(a: Dfa, b: Dfa):
    """Shortest word in L(a) but not L(b) as letter ints, or None if none."""
    if a.support != b.support:
        raise SupportMismatchError(
            f"automata have different supports: {a.support} vs {b.support}"
        )

    def expand(pair):
        return enumerate(zip(a.transitions[pair[0]], b.transitions[pair[1]]))

    def bad(pair):
        return pair[0] in a.accepting and pair[1] not in b.accepting

    return _shortest_word((a.initial, b.initial), expand, bad)


def _reachable(d: Dfa) -> "Dfa":
    order = [d.initial]
    seen = {d.initial: 0}
    for state in order:
        for letter in range(d.num_letters):
            succ = d.transitions[state][letter]
            if succ not in seen:
                seen[succ] = len(order)
                order.append(succ)
    transitions = tuple(
        tuple(seen[d.transitions[s][l]] for l in range(d.num_letters)) for s in order
    )
    accepting = frozenset(seen[s] for s in d.accepting if s in seen)
    return Dfa(d.support, 0, accepting, transitions)


def minimize(d: Dfa) -> Dfa:
    """Hopcroft partition refinement; states renumbered in reachability order."""
    d = _reachable(d)
    n = d.num_states
    letters = range(d.num_letters)
    inverse = [[[] for _ in range(n)] for _ in letters]
    for s in range(n):
        for l in letters:
            inverse[l][d.transitions[s][l]].append(s)

    accepting = set(d.accepting)
    rest = set(range(n)) - accepting
    partition = [p for p in (accepting, rest) if p]
    index_of = {}
    for i, block in enumerate(partition):
        for s in block:
            index_of[s] = i
    work = {(i, l) for i in range(len(partition)) for l in letters}

    while work:
        block_idx, letter = work.pop()
        splitter = partition[block_idx]
        preimage = set()
        for s in splitter:
            preimage.update(inverse[letter][s])
        touched = {}
        for s in preimage:
            touched.setdefault(index_of[s], set()).add(s)
        for i, hit in touched.items():
            block = partition[i]
            if len(hit) == len(block):
                continue
            remainder = block - hit
            smaller, larger = (hit, remainder) if len(hit) <= len(remainder) else (remainder, hit)
            partition[i] = larger
            partition.append(smaller)
            j = len(partition) - 1
            for s in smaller:
                index_of[s] = j
            # the new block at j is the smaller half, so queueing it suffices
            # whether or not (i, l) is still pending
            for l in letters:
                work.add((j, l))

    # renumber blocks in reachability order from the initial block
    block_trans = {}
    for i, block in enumerate(partition):
        rep = next(iter(block))
        block_trans[i] = [index_of[d.transitions[rep][l]] for l in letters]
    start = index_of[d.initial]
    order = [start]
    seen = {start: 0}
    for b in order:
        for l in letters:
            succ = block_trans[b][l]
            if succ not in seen:
                seen[succ] = len(order)
                order.append(succ)
    transitions = tuple(
        tuple(seen[block_trans[b][l]] for l in letters) for b in order
    )
    accepting_blocks = frozenset(
        seen[i]
        for i, block in enumerate(partition)
        if i in seen and next(iter(block)) in d.accepting
    )
    return Dfa(d.support, 0, accepting_blocks, transitions)


def to_dot(d: Dfa, name: str = "monitor") -> str:
    """GraphViz rendering; edges with the same endpoints share one label."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  start [shape=point, label=""];']
    for s in range(d.num_states):
        shape = "doublecircle" if s in d.accepting else "circle"
        lines.append(f'  q{s} [shape={shape}, label="q{s}"];')
    lines.append(f"  start -> q{d.initial};")
    grouped = {}
    for s in range(d.num_states):
        for letter in range(d.num_letters):
            succ = d.transitions[s][letter]
            grouped.setdefault((s, succ), []).append(letter)
    for (s, succ), letters in sorted(grouped.items()):
        label = "\\n".join(format_letter(l, d.support) for l in letters)
        lines.append(f'  q{s} -> q{succ} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
