"""Monitor templates: deterministic automata compiled from bodies by progression.

States are canonically simplified residual formulas; reading a letter rewrites
the residual.  A state accepts when its residual holds on the all-empty
assignment, which makes word acceptance coincide with the finite-trace
semantics for tuples of unequal length (traces past their end contribute no
atoms).

Automata are explored lazily.  Each state only depends on the atoms occurring
in its residual, so exploration fans out over subsets of those atoms rather
than the full alphabet; the per-state subset count is guarded by
:data:`ATOM_LIMIT`.  :func:`materialize` converts a lazy automaton into an
explicit :class:`~hypermon.automata.Dfa` for the algebra operations.

Transitions come from a lazily grown tree of atom reads per state.
Progression stops at the first child that decides an or, an and or an until,
so the atoms one letter makes it read are a path of decisions, and every
letter that agrees with it on those atoms has the same successor.  A letter
the tree does not cover yet runs progression once and grafts its reads below
the point where the walk fell off; so progression runs once per leaf (a
letter class), not once per distinct letter.
"""

from itertools import zip_longest

from .automata import Dfa, _shortest_word
from .errors import MonitorError, ResourceLimitError, SupportMismatchError
from .formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    FalseF,
    Formula,
    Not,
    Or,
    Next,
    TrueF,
    Until,
    atom_refs,
    free_variables,
    mk_and,
    mk_not,
    mk_or,
    simplify,
)
from .semantics import Trace, eps_eval

DEFAULT_STATE_LIMIT = 100_000
# widest explicit alphabet, in atoms, that letter enumeration may cover
ATOM_LIMIT = 14
_DNF_TERM_CAP = 4096

_STATE_TYPES = (Atom, TrueF, FalseF, Not, Or, And, Next, Until)


def _dnf(f: Formula, neg: bool):
    """Disjunctive normal form as a set of frozensets of (node, positive)
    literals, where atoms, next- and until-nodes are opaque literals.

    Residuals of progression only combine such literals with not/or/and, so
    this puts every automaton state into a canonical, provably finite shape
    (an antichain of literal sets drawn from the body's subformulas).
    """
    if isinstance(f, TrueF):
        return frozenset() if neg else frozenset({frozenset()})
    if isinstance(f, FalseF):
        return frozenset({frozenset()}) if neg else frozenset()
    if isinstance(f, Not):
        return _dnf(f.sub, not neg)
    if isinstance(f, (Or, And)):
        parts = [_dnf(a, neg) for a in f.args]
        if isinstance(f, Or) != neg:  # disjunction
            out = set()
            for p in parts:
                out |= p
            return frozenset(out)
        terms = frozenset({frozenset()})
        for p in parts:
            new_terms = set()
            for t1 in terms:
                for t2 in p:
                    if any((node, not pos) in t1 for node, pos in t2):
                        continue
                    new_terms.add(t1 | t2)
                    if len(new_terms) > _DNF_TERM_CAP:
                        raise ResourceLimitError(
                            f"residual formula exceeds {_DNF_TERM_CAP} terms"
                        )
            terms = new_terms
        return frozenset(terms)
    if isinstance(f, (Atom, Next, Until)):
        return frozenset({frozenset({(f, not neg)})})
    raise MonitorError(
        f"automaton states must be desugared bodies, got {type(f).__name__}"
    )


def _subsume(terms):
    kept = []
    for t in sorted(terms, key=len):
        if not any(k <= t for k in kept):
            kept.append(t)
    return kept


def canonical_state(f: Formula) -> Formula:
    """Boolean-equivalent canonical form used as the automaton state space."""
    terms = _subsume(_dnf(f, False))
    return mk_or(
        mk_and(node if pos else Not(node) for node, pos in term) for term in terms
    )


def prog(f: Formula, letter: int, bits: dict, reads=None) -> Formula:
    """Residual of f after reading one letter (bitmask over ``bits``).

    Or stops at its first true child, And at its first false one, and Until
    when its right-hand side progresses to true: exactly where ``mk_or`` and
    ``mk_and`` would return the absorbing constant, so skipping the rest
    changes no result.  When ``reads`` is a list, the bit of every atom read
    is appended to it in order.  Which atom is read next then depends only on
    the values of the atoms read before it.
    """
    if isinstance(f, Atom):
        bit = bits[f.ref]
        if reads is not None:
            reads.append(bit)
        return TRUE if letter >> bit & 1 else FALSE
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Not):
        return mk_not(prog(f.sub, letter, bits, reads))
    if isinstance(f, Or):
        args = []
        for a in f.args:
            r = prog(a, letter, bits, reads)
            if isinstance(r, TrueF):
                return r
            args.append(r)
        return mk_or(args)
    if isinstance(f, And):
        args = []
        for a in f.args:
            r = prog(a, letter, bits, reads)
            if isinstance(r, FalseF):
                return r
            args.append(r)
        return mk_and(args)
    if isinstance(f, Next):
        return f.sub
    if isinstance(f, Until):
        rhs = prog(f.rhs, letter, bits, reads)
        if isinstance(rhs, TrueF):
            return rhs
        return mk_or((rhs, mk_and((prog(f.lhs, letter, bits, reads), f))))
    raise MonitorError(f"automaton states must be desugared bodies, got {type(f).__name__}")


class TemplateAutomaton:
    """Lazy deterministic automaton over the indexed-atom alphabet.

    States are ints indexing a table of residual formulas.  ``bits`` maps each
    support atom to its bit position; letters are ints in that bit space.
    ``delta`` caches the successor of each (state, relevant letter).
    ``trees[state]`` is that state's tree of atom reads: None where nothing
    is known yet, a successor sid at a leaf, and ``[bit, lo, hi]`` at a node
    that reads ``bit`` and goes to ``lo`` when it is 0, ``hi`` when it is 1.
    """

    def __init__(self, body, support, state_limit=DEFAULT_STATE_LIMIT):
        self.support = tuple(support)
        self.bits = {ref: i for i, ref in enumerate(self.support)}
        self.support_mask = (1 << len(self.support)) - 1
        self.state_limit = state_limit
        self.formulas = []
        self.index = {}
        self.acc = []
        self.rel = []
        self.delta = {}
        self.trees = []
        self.true_sid = -1
        self.false_sid = -1
        # deep-simplify once so every residual literal is already canonical
        self.initial_state = self._register(canonical_state(simplify(body)))

    def _register(self, f: Formula) -> int:
        sid = self.index.get(f)
        if sid is not None:
            return sid
        if len(self.formulas) >= self.state_limit:
            raise ResourceLimitError(
                f"monitor automaton exceeds {self.state_limit} states"
            )
        sid = len(self.formulas)
        self.formulas.append(f)
        self.acc.append(eps_eval(f))
        mask = 0
        for ref in atom_refs(f):
            mask |= 1 << self.bits[ref]
        self.rel.append(mask)
        self.trees.append(None)
        if isinstance(f, TrueF):
            self.true_sid = sid
        elif isinstance(f, FalseF):
            self.false_sid = sid
        self.index[f] = sid
        return sid

    def step(self, state: int, letter: int) -> int:
        key = (state, letter & self.rel[state])
        sid = self.delta.get(key)
        if sid is None:
            sid = self._successor(state, key[1])
            self.delta[key] = sid
        return sid

    def _successor(self, state: int, letter: int) -> int:
        """Walk the state's tree of atom reads; on falling off, progress once
        and graft the reads the walk had not covered."""
        parent, side, node = self.trees, state, self.trees[state]
        depth = 0
        while type(node) is list:
            parent = node
            side = 2 if letter >> node[0] & 1 else 1
            node = node[side]
            depth += 1
        if node is not None:
            return node
        reads = []
        sid = self._register(
            canonical_state(prog(self.formulas[state], letter, self.bits, reads))
        )
        # grafted only now, so a tripped resource guard leaves the tree intact
        node = sid
        for bit in reversed(list(dict.fromkeys(reads))[depth:]):
            node = [bit, None, node] if letter >> bit & 1 else [bit, node, None]
        parent[side] = node
        return sid

    def accepting(self, state: int) -> bool:
        return self.acc[state]

    def relevant(self, state: int) -> int:
        return self.rel[state]

    def is_dead(self, state: int) -> bool:
        return state == self.false_sid

    def is_universal(self, state: int) -> bool:
        return state == self.true_sid


class InstantiatedAutomaton:
    """Product of a lazy automaton with one concrete trace bound to a variable.

    States are (base state, position in the bound trace); a decided base
    state (universal or dead) takes the end position, since the rest of the
    bound trace cannot change it.  Letters live in the same global bit space
    as the base, restricted to the remaining atoms.
    """

    def __init__(self, base, var: str, trace: Trace):
        self.base = base
        self.bits = base.bits
        self.support = tuple(r for r in base.support if r.variable != var)
        mask = 0
        for ref in self.support:
            mask |= 1 << self.bits[ref]
        self.support_mask = mask
        self.tmasks = tuple(trace_masks(base, var, trace))
        self.nsteps = len(self.tmasks)
        self.initial_state = (base.initial_state, 0)
        self._acc_memo = {}

    def step(self, state, letter: int):
        s, j = state
        letter &= self.support_mask
        if j == self.nsteps:
            return (self.base.step(s, letter), j)
        s = self.base.step(s, letter | self.tmasks[j])
        if self.base.is_universal(s) or self.base.is_dead(s):
            return (s, self.nsteps)
        return (s, j + 1)

    def accepting(self, state) -> bool:
        memo = self._acc_memo
        # run the rest of the bound trace until a state already decided;
        # every state passed on the way gets the same answer
        chain = []
        while state not in memo:
            chain.append(state)
            s, j = state
            if j == self.nsteps:
                memo[state] = self.base.accepting(s)
                break
            state = self.step(state, 0)
        out = memo[state]
        for passed in chain:
            memo[passed] = out
        return out

    def relevant(self, state) -> int:
        return self.base.relevant(state[0]) & self.support_mask

    def is_dead(self, state) -> bool:
        return self.base.is_dead(state[0])

    def is_universal(self, state) -> bool:
        return self.base.is_universal(state[0])


def _project(step, prop_bits: dict) -> int:
    mask = 0
    for prop in step:
        bit = prop_bits.get(prop)
        if bit is not None:
            mask |= 1 << bit
    return mask


def _submasks_ascending(mask: int):
    """All submasks of ``mask`` in increasing numeric order."""
    positions = [i for i in range(mask.bit_length()) if mask >> i & 1]
    for i in range(1 << len(positions)):
        sub = 0
        for b, pos in enumerate(positions):
            if i >> b & 1:
                sub |= 1 << pos
        yield sub


def lazy_is_empty(auto, start=None):
    """Emptiness of the language from ``start`` (default: initial state).

    Returns (True, None) or (False, witness) where the witness is the
    shortest accepting letter sequence (global bitmask ints), smallest letters
    first among equals.  Raises ResourceLimitError when some state's relevant
    atom set is wider than :data:`ATOM_LIMIT`.
    """
    if start is None:
        start = auto.initial_state

    def expand(state):
        rel = auto.relevant(state)
        if rel.bit_count() > ATOM_LIMIT:
            raise ResourceLimitError(
                f"state fan-out over {rel.bit_count()} atoms exceeds the "
                f"limit of {ATOM_LIMIT}"
            )
        for letter in _submasks_ascending(rel):
            yield letter, auto.step(state, letter)

    word = _shortest_word(start, expand, auto.accepting)
    if word is None:
        return True, None
    return False, word


def materialize(auto) -> Dfa:
    """Explicit DFA over the automaton's own support with contiguous bits."""
    support = tuple(auto.support)
    k = len(support)
    if k > ATOM_LIMIT:
        raise ResourceLimitError(
            f"explicit alphabet over {k} atoms exceeds the limit of {ATOM_LIMIT}"
        )
    scatter = [1 << auto.bits[ref] for ref in support]
    # local letter -> the same letter in the global bit space
    global_letters = [
        sum(bit for i, bit in enumerate(scatter) if local >> i & 1)
        for local in range(1 << k)
    ]

    order = [auto.initial_state]
    ids = {auto.initial_state: 0}
    rows = []
    for state in order:
        rel = auto.relevant(state)
        succ_of_class = {}
        for cls in _submasks_ascending(rel):
            succ = auto.step(state, cls)
            if succ not in ids:
                ids[succ] = len(order)
                order.append(succ)
            succ_of_class[cls] = ids[succ]
        rows.append(tuple(succ_of_class[g & rel] for g in global_letters))
    accepting = frozenset(i for i, st in enumerate(order) if auto.accepting(st))
    return Dfa(support, 0, accepting, tuple(rows))


def joint_word(mask_lists):
    """Letters of the joint word of per-variable mask sequences, lazily.

    A sequence past its end contributes no atoms.  Masks of distinct
    variables occupy disjoint bits, so summing a step's masks unions them.
    """
    return map(sum, zip_longest(*mask_lists, fillvalue=0))


def run_masks(auto, mask_lists) -> bool:
    """Run the joint word of per-variable mask sequences; True iff accepted."""
    state = auto.initial_state
    for letter in joint_word(mask_lists):
        state = auto.step(state, letter)
        if auto.is_dead(state):
            return False
        if auto.is_universal(state):
            return True
    return auto.accepting(state)


def trace_masks(auto, var: str, trace: Trace):
    """Project a trace onto the automaton's atoms for one variable."""
    prop_bits = {
        ref.proposition: auto.bits[ref]
        for ref in auto.support
        if ref.variable == var
    }
    return [_project(step, prop_bits) for step in trace.steps]


class MonitorTemplate:
    """A compiled body with free trace variables, instantiable at runtime."""

    def __init__(self, automaton, free_vars):
        self.automaton = automaton
        self.free_variables = tuple(free_vars)
        self._dfa = None

    @property
    def support(self):
        return self.automaton.support

    @property
    def dfa(self) -> Dfa:
        """Explicit automaton over the remaining support (built on demand)."""
        if self._dfa is None:
            self._dfa = materialize(self.automaton)
        return self._dfa

    def accepts(self, assignment: dict) -> bool:
        """Acceptance of a tuple covering exactly the free variables."""
        if set(assignment) != set(self.free_variables):
            raise MonitorError(
                f"assignment covers {sorted(assignment)}, "
                f"template needs {sorted(self.free_variables)}"
            )
        mask_lists = [
            trace_masks(self.automaton, var, trace)
            for var, trace in assignment.items()
        ]
        return run_masks(self.automaton, mask_lists)

    def instantiate(self, trace: Trace, var: str) -> "MonitorTemplate":
        if var not in self.free_variables:
            raise MonitorError(f"variable {var!r} is not free in this template")
        auto = InstantiatedAutomaton(self.automaton, var, trace)
        free = tuple(v for v in self.free_variables if v != var)
        return MonitorTemplate(auto, free)


def build_template(body: Formula, variables, support=None,
                   state_limit=DEFAULT_STATE_LIMIT) -> MonitorTemplate:
    """Compile a desugared body into a monitor template.

    ``support`` defaults to the atoms of the body; when given it must cover
    them.  The automaton is built lazily; ``state_limit`` caps distinct
    residuals.
    """
    _check_state_types(body)
    variables = tuple(variables)
    missing = free_variables(body) - set(variables)
    if missing:
        raise MonitorError(f"body mentions unbound variables {sorted(missing)}")
    atoms = sorted(atom_refs(body))
    if support is None:
        support = tuple(atoms)
    else:
        support = tuple(support)
        if not set(atoms) <= set(support):
            raise SupportMismatchError(
                f"support is missing atoms {sorted(set(atoms) - set(support))}"
            )
    bad = {r.variable for r in support} - set(variables)
    if bad:
        raise SupportMismatchError(f"support mentions unknown variables {sorted(bad)}")
    auto = TemplateAutomaton(body, support, state_limit)
    return MonitorTemplate(auto, variables)


def _check_state_types(f: Formula) -> None:
    stack = [f]
    while stack:
        node = stack.pop()
        if not isinstance(node, _STATE_TYPES):
            raise MonitorError(
                f"body must be desugared before compilation, got {type(node).__name__}"
            )
        if isinstance(node, (Not, Next)):
            stack.append(node.sub)
        elif isinstance(node, (Or, And)):
            stack.extend(node.args)
        elif isinstance(node, Until):
            stack.append(node.lhs)
            stack.append(node.rhs)


def rejecting_position(auto, letters) -> int:
    """Length of the shortest prefix after which no extension can be accepted.

    Falls back to ``len(letters)`` when no such prefix exists (the rejection
    then hinges on the traces ending where they do) or when an emptiness
    check trips a resource guard.
    """
    state = auto.initial_state
    empties = {}
    for consumed in range(len(letters) + 1):
        known = empties.get(state)
        if known is None:
            try:
                known, _ = lazy_is_empty(auto, start=state)
            except ResourceLimitError:
                known = False
            empties[state] = known
        if known:
            return consumed
        if consumed < len(letters):
            state = auto.step(state, letters[consumed])
    return len(letters)
