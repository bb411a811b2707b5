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

Transitions come from a decision diagram per state, grown lazily and shared
the way reduced ordered BDDs share subgraphs (Bryant 1986).  A node holds a
pending formula: the state's residual with the atoms read so far fixed and
constants folded, an until unrolled to ``rhs | lhs & X until`` when one of
its atoms is first fixed.  It reads the lowest bit still present, and nodes
are hash-consed on (state, pending formula), so paths that leave the same
formula meet.  A node with no current-step atom left is a leaf; the first
letter to reach it runs progression once, so progression runs once per
distinct pending residual, not once per letter or per read path.
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
    children,
    mk_and,
    mk_not,
    mk_or,
    simplify,
    subformulas,
)
from .semantics import Trace, eps_eval

DEFAULT_STATE_LIMIT = 100_000
# widest explicit alphabet, in atoms, that letter enumeration may cover
ATOM_LIMIT = 14
_DNF_TERM_CAP = 4096


def _dnf(f: Formula, neg: bool, memo: dict):
    """Disjunctive normal form as a set of frozensets of (node, positive)
    literals, where atoms, next- and until-nodes are opaque literals.

    Residuals of progression only combine such literals with not/or/and, so
    this puts every automaton state into a canonical, provably finite shape
    (an antichain of literal sets drawn from the body's subformulas).
    ``memo`` keeps each and/or node's form per polarity for one call of
    :func:`canonical_state`, so a shared operand is expanded once there.
    """
    if isinstance(f, TrueF):
        return frozenset() if neg else frozenset({frozenset()})
    if isinstance(f, FalseF):
        return frozenset({frozenset()}) if neg else frozenset()
    if isinstance(f, Not):
        return _dnf(f.sub, not neg, memo)
    if isinstance(f, (Or, And)):
        out = memo.get((f, neg))
        if out is None:
            parts = [_dnf(a, neg, memo) for a in f.args]
            if isinstance(f, Or) != neg:  # disjunction
                out = frozenset().union(*parts)
            else:
                out = _product(parts)
            memo[f, neg] = out
        return out
    if isinstance(f, (Atom, Next, Until)):
        return frozenset({frozenset({(f, not neg)})})
    raise MonitorError(
        f"automaton states must be desugared bodies, got {type(f).__name__}"
    )


def _product(parts):
    """The conjunction of disjunctive normal forms: every union of one term
    from each part that holds no literal in both polarities."""
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


def _subsume(terms):
    kept = []
    for t in sorted(terms, key=len):
        if not any(k <= t for k in kept):
            kept.append(t)
    return kept


def canonical_state(f: Formula) -> Formula:
    """Boolean-equivalent canonical form used as the automaton state space."""
    terms = _subsume(_dnf(f, False, {}))
    return mk_or(
        mk_and(node if pos else Not(node) for node, pos in term) for term in terms
    )


def prog(f: Formula) -> Formula:
    """Residual of a diagram leaf's formula, whose current-step atoms are
    all fixed, after its step.

    Or stops at its first true child, And at its first false one, and Until
    when its right-hand side progresses to true: exactly where ``mk_or`` and
    ``mk_and`` would return the absorbing constant, so skipping the rest
    changes no result.  The residual depends on nothing but the node, so it
    is kept on the node and every automaton shares it.
    """
    out = getattr(f, "_prog", None)
    if out is None:
        out = _progress(f)
        object.__setattr__(f, "_prog", out)
    return out


def _progress(f: Formula) -> Formula:
    kind = type(f)
    if kind is Not:
        return mk_not(prog(f.sub))
    if kind is Or or kind is And:
        stop = TrueF if kind is Or else FalseF
        args = []
        for a in f.args:
            a = prog(a)
            if type(a) is stop:
                return a
            args.append(a)
        return mk_or(args) if kind is Or else mk_and(args)
    if kind is Until:
        rhs = prog(f.rhs)
        if type(rhs) is TrueF:
            return rhs
        return mk_or((rhs, mk_and((prog(f.lhs), f))))
    if kind is Next:
        return f.sub
    if kind is TrueF or kind is FalseF:
        return f
    raise MonitorError(f"a diagram leaf holds a {kind.__name__} of the current step")


class TemplateAutomaton:
    """Lazy deterministic automaton over the indexed-atom alphabet.

    States are ints indexing a table of residual formulas.  ``bits`` maps each
    support atom to its bit position; letters are ints in that bit space.
    ``delta`` caches the successor of each (state, relevant letter); a miss
    walks the state's transition diagram from ``roots[state]``.  ``nodes``
    maps (state, pending formula) to ``[bit, lo, hi, pending]``: a node that
    reads ``bit`` and goes to ``lo`` when it is 0, ``hi`` when it is 1 (None
    until a walk needs it).  A leaf has no atom left to read: its bit is -1
    and ``lo`` holds the successor, None until a letter first reaches it.
    The body comes simplified, so every residual literal is canonical.
    """

    def __init__(self, body, support, state_limit=DEFAULT_STATE_LIMIT):
        self.support = tuple(support)
        self.bits = {ref: i for i, ref in enumerate(self.support)}
        self.state_limit = state_limit
        self.formulas = []
        self.index = {}
        self.acc = []
        self.rel = []
        self.delta = {}
        self.nodes = {}
        self.roots = []
        self._now = {}  # formula -> bits of the atoms it reads this step
        self._fixed = {}  # (formula, bit, value) -> _fix's result
        self._live = {}  # (free bits, state, letter) -> live's answer
        self.true_sid = -1
        self.false_sid = -1
        # state -> whether its language is empty; a state's language never
        # changes, so every rejecting_position call shares the answers
        self.empties = {}
        self._prop_bits = {}  # variable -> {proposition: bit}, see prop_bits
        self.initial_state = self._register(canonical_state(body))

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
        # only current-step atoms pick a successor; none below a next does
        self.rel.append(self._reads(f))
        self.roots.append(self._node(sid, f))
        if isinstance(f, TrueF):
            self.true_sid = sid
        elif isinstance(f, FalseF):
            self.false_sid = sid
        self.index[f] = sid
        return sid

    def prop_bits(self, var: str) -> dict:
        """Proposition -> bit of ``var``'s atoms, built once per variable."""
        out = self._prop_bits.get(var)
        if out is None:
            out = self._prop_bits[var] = {
                ref.proposition: self.bits[ref]
                for ref in self.support
                if ref.variable == var
            }
        return out

    def step(self, state: int, letter: int) -> int:
        letter &= self.rel[state]
        sid = self.delta.get((state, letter))
        if sid is None:
            # walk the state's diagram, building the nodes the walk reaches
            node = self.roots[state]
            while node[0] >= 0:
                node = self._child(state, node, 2 if letter >> node[0] & 1 else 1)
            if node[1] is None:
                # the first letter to reach a leaf progresses its formula; stored
                # only now, so a tripped resource guard leaves the leaf open
                node[1] = self._register(canonical_state(prog(node[3])))
            sid = self.delta[state, letter] = node[1]
        return sid

    def _child(self, state: int, node: list, side: int) -> list:
        """``node[side]`` (1: its bit is 0, 2: it is 1), built on first use."""
        child = node[side]
        if child is None:
            child = node[side] = self._node(
                state, self._fix(node[3], node[0], side - 1)
            )
        return child

    def live(self, state: int, letter: int, free: int, fanout: int):
        """The values of the ``free`` bits within ``rel[state]`` that do not
        lead from ``state`` to a leaf already progressed to ``true_sid``
        when every other bit follows ``letter``, as a frozenset.  A leaf not
        yet progressed counts as live.

        The walk restricts the state's diagram to the letter's fixed bits
        and enumerates its paths, branching on the free bits.  It returns
        None, for the caller to step every value, when a live path leaves a
        free bit unread or when the paths would number ``fanout``, so it
        never reaches more leaves than the caller has values to step.  It
        builds diagram nodes but progresses no leaf, so it registers no
        state.  Answers are kept per (free bits, state, letter); a later
        progression to ``true_sid`` only leaves a kept set a value too many,
        which the caller steps to the same answer.
        """
        rel = self.rel[state]
        free &= rel
        key = (free, state, letter & rel)
        known = self._live.get(key, 0)
        if type(known) is frozenset:
            return known if len(known) < fanout else None
        # None: a live path skips a free bit; an int: at least that many paths
        if known is None or known >= fanout:
            return None
        true_sid = self.true_sid
        values, paths = [], 0
        stack = [(self.roots[state], 0, 0)]
        while stack:
            node, value, read = stack.pop()
            bit = node[0]
            while bit >= 0 and not free >> bit & 1:
                side = 2 if letter >> bit & 1 else 1
                node = node[side] or self._child(state, node, side)
                bit = node[0]
            if bit >= 0:
                read |= 1 << bit
                stack.append((node[2] or self._child(state, node, 2), value | 1 << bit, read))
                stack.append((node[1] or self._child(state, node, 1), value, read))
                continue
            paths += 1
            if paths >= fanout:
                self._live[key] = paths
                return None
            if node[1] != true_sid:
                if read != free:
                    answer = None
                    break
                values.append(value)
        else:
            answer = frozenset(values)
        self._live[key] = answer
        return answer

    def _node(self, state: int, pending: Formula) -> list:
        node = self.nodes.get((state, pending))
        if node is None:
            now = self._reads(pending)
            bit = (now & -now).bit_length() - 1  # the lowest; -1 when none is left
            node = self.nodes[state, pending] = [bit, None, None, pending]
        return node

    def _reads(self, f: Formula) -> int:
        """Bits of the atoms ``f`` reads in the current step (none below a next)."""
        mask = self._now.get(f)
        if mask is None:
            mask = 1 << self.bits[f.ref] if type(f) is Atom else 0
            for sub in () if type(f) is Next else children(f):
                mask |= self._reads(sub)
            self._now[f] = mask
        return mask

    def _fix(self, f: Formula, bit: int, value: int) -> Formula:
        """``f``, which reads ``bit``, with that atom fixed to ``value`` and
        constants folded; an until that reads it is unrolled to
        ``rhs | lhs & X until``.  Kept per (formula, bit, value), since the
        diagram nodes of many states share subformulas."""
        key = (f, bit, value)
        out = self._fixed.get(key)
        if out is None:
            out = self._fixed[key] = self._fix_now(f, bit, value)
        return out

    def _fix_now(self, f: Formula, bit: int, value: int) -> Formula:
        kind = type(f)
        if kind is Atom:
            return TRUE if value else FALSE
        if kind is Not:
            return mk_not(self._fix(f.sub, bit, value))
        if kind is Until:
            f, kind = Or((f.rhs, And((f.lhs, Next(f))))), Or
        stop = TrueF if kind is Or else FalseF
        args = []
        for a in f.args:
            if self._reads(a) >> bit & 1:
                a = self._fix(a, bit, value)
                if type(a) is stop:
                    return a
                if isinstance(a, (TrueF, FalseF)):
                    continue
            args.append(a)
        if len(args) > 1:
            return kind(tuple(args))
        return args[0] if args else (FALSE if kind is Or else TRUE)

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
        self.var = var
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

    def prop_bits(self, var: str) -> dict:
        # the base's map, except that the bound variable's atoms are not here
        return {} if var == self.var else self.base.prop_bits(var)

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


def _submasks_ascending(mask: int):
    """All submasks of ``mask`` in increasing numeric order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        # the next submask: carry through the bits outside ``mask``
        sub = (sub - mask) & mask


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
    return accepts_from(auto, auto.initial_state, joint_word(mask_lists))


def accepts_from(auto, state, letters) -> bool:
    """Acceptance of ``letters`` read from ``state``; stops at a decided
    state."""
    for letter in letters:
        state = auto.step(state, letter)
        if auto.is_dead(state):
            return False
        if auto.is_universal(state):
            return True
    return auto.accepting(state)


def step_mask(prop_bits: dict, step) -> int:
    """A step's letter bits, with ``prop_bits`` from ``auto.prop_bits(var)``."""
    mask = 0
    for prop in step:
        bit = prop_bits.get(prop)
        if bit is not None:
            mask |= 1 << bit
    return mask


def trace_masks(auto, var: str, trace: Trace):
    """Project a trace onto the automaton's atoms for one variable."""
    prop_bits = auto.prop_bits(var)
    return [step_mask(prop_bits, step) for step in trace.steps]


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
    variables = tuple(variables)
    for node in subformulas(body):
        if type(node) not in (Atom, TrueF, FalseF, Not, Or, And, Next, Until):
            raise MonitorError(
                f"body must be desugared before compilation, got {type(node).__name__}"
            )
    atoms = atom_refs(body)
    missing = {ref.variable for ref in atoms} - set(variables)
    if missing:
        raise MonitorError(f"body mentions unbound variables {sorted(missing)}")
    if support is None:
        support = tuple(sorted(atoms))
    else:
        support = tuple(support)
        if not atoms <= set(support):
            raise SupportMismatchError(
                f"support is missing atoms {sorted(atoms - set(support))}"
            )
    bad = {r.variable for r in support} - set(variables)
    if bad:
        raise SupportMismatchError(f"support mentions unknown variables {sorted(bad)}")
    auto = TemplateAutomaton(simplify(body), support, state_limit)
    return MonitorTemplate(auto, variables)


def rejecting_position(auto, letters) -> int:
    """Length of the shortest prefix after which no extension can be accepted.

    Falls back to ``len(letters)`` when no such prefix exists (the rejection
    then hinges on the traces ending where they do) or when an emptiness
    check trips a resource guard.  Each state's emptiness is decided once and
    kept in ``auto.empties`` for later calls; a state whose check tripped a
    guard counts as non-empty for this call only and is retried on the next.
    """
    state = auto.initial_state
    empties = auto.empties
    tripped = set()
    for consumed in range(len(letters) + 1):
        known = empties.get(state)
        if known is None and state not in tripped:
            try:
                known = empties[state] = lazy_is_empty(auto, start=state)[0]
            except ResourceLimitError:
                tripped.add(state)
        if known:
            return consumed
        if consumed < len(letters):
            state = auto.step(state, letters[consumed])
    return len(letters)
