"""Monitoring sessions: per-trace tuple checking with optional reductions.

A session compiles the specification's body into a monitor template once.
Each incoming trace is checked in every new tuple it forms with the stored
traces; a rejected tuple is reported as a counterexample.  Specification
analysis removes tuple orders (symmetry: one tuple per permutation class, at
any number of quantifiers), the all-same tuple (reflexivity) or all but one
comparison partner (transitivity); trace analysis discards a trace whose
projected steps copy a stored trace's.  ``tuples_with_last`` alone applies
the spec-analysis reductions.  All of them shrink the tuple loop, so they
run only where it pairs traces: on all-universal prefixes of two or more
quantifiers.

It describes the tuples as families: fixed slots (the fresh trace or stored
heads) plus at most one free slot that ranges over a run of stored traces.
The session keeps a prefix tree of the stored traces' masks for each
variable a stored trace takes (``prefix_tree``), and runs a family in one
walk of the free slot's tree, at most one automaton step per node instead
of one per tuple.  The counterexample is still the first violating tuple in
expansion order.

On universal prefixes a fresh trace goes through three steps, in this order:
the store's copy index drops an exact projected copy of a stored trace
(dominance is reflexive, so a copy changes no verdict); the violator table
answers a repeat of an earlier violator; the tuple loop runs the rest.  A
trace that passes it is appended to the store, entered in the copy index
and added to the tries.  The store never evicts.  No inclusion check runs:
``trace_analysis.DominanceChecker`` is library API only, since on every
corpus measured it cost more than the tuples it saved.

The violator table maps a violating trace's projected steps to the serial
of its first violator, when the tuple loop found it in the first family,
``(stored[0], ..., None, fresh)`` walked from serial 0.  That family comes
first in every run over a non-empty store, and the store only appends, so a
later trace with those steps violates there again, at the same serial: the
entry is its answer, with no walk.  A violator found in any other family
writes no entry, and its repeats run the whole tuple loop.  The table is a
memo of a deterministic computation, not a reduction: it changes no output,
so it runs with or without trace analysis, and it is cleared at
``TABLE_SIZE`` entries.

Universal prefixes get definitive verdicts (violations never flip back).
Other prefixes get provisional verdicts: a later trace can change them.
``_Rows`` decides them per fresh trace from the tuples that hold it and the
rows that are still open, never from every tuple of the store, on the same
template and tries: a family of tuples is one walk of its free slot's trie,
for the first accepted tuple under ∃ and the first rejected one under ∀,
and a tuple with no free slot runs with ``run_masks``.  The direct
evaluator (``semantics.eval_quantified``) is the tests' oracle only.

Provisional prefixes of two or more variables store every trace and index
it in the tries their walks read.  A prefix of fewer than two variables
pairs no two traces, so it stores none, on either path.

Intake projects each distinct step once per session: bounded tables map a
raw step to its projection, one shared object, and that to each variable's
mask; the copy index compares shared steps by identity.
"""

import functools
import itertools
import logging
import time
from dataclasses import dataclass

from .formula import (
    QuantifiedFormula,
    classify_prefix,
    collect_alphabet,
    desugar,
    validate_quantified,
)
from .prefix_tree import PrefixTree
from .semantics import Trace
# no code here calls it: perfbench/child.py wraps ``engine.eval_quantified``
# by attribute, and every traced benchmark run fails without the name
from .semantics import eval_quantified  # noqa: F401
from .spec_analysis import analyze
from .template import (
    DEFAULT_STATE_LIMIT,
    build_template,
    joint_word,
    rejecting_position,
    run_masks,
    step_mask,
)
from .trace_analysis import TraceStore

log = logging.getLogger(__name__)

TABLE_SIZE = 4096  # distinct steps a session table keeps before it is cleared


class _Table(dict):
    """``table[key]`` is ``make(key)``, made on the first lookup and kept
    until the table holds ``TABLE_SIZE`` keys; then it is cleared."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self.make(key)
        if len(self) >= TABLE_SIZE:
            self.clear()
        self[key] = value
        return value


@dataclass
class MonitorOptions:
    """Session knobs."""

    trace_analysis: bool = True
    spec_analysis: bool = True
    continue_after_violation: bool = False
    state_limit: int = DEFAULT_STATE_LIMIT


class CounterExample:
    """A rejected tuple: (variable, trace name) pairs in prefix order.

    rejecting_position is the length of the shortest joint-word prefix after
    which acceptance was impossible (None for provisional verdicts, where no
    joint run exists).  A session's tuple loop gives it as a thunk, run on
    the first read and then kept, so a counterexample nobody reads costs no
    emptiness search.  Equality, hash and repr are by value, and read it.
    """

    __slots__ = ("assignment", "_position", "_compute")

    def __init__(self, assignment: tuple, rejecting_position: int = None):
        self.assignment = assignment
        self._position = rejecting_position
        self._compute = None

    @classmethod
    def deferred(cls, assignment: tuple, compute) -> "CounterExample":
        """A counterexample whose position is ``compute()``, run on first read."""
        ce = cls(assignment)
        ce._compute = compute
        return ce

    @property
    def rejecting_position(self) -> int:
        if self._compute is not None:
            self._position, self._compute = self._compute(), None
        return self._position

    def _key(self):
        return self.assignment, self.rejecting_position

    def __eq__(self, other):
        if type(other) is not CounterExample:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"CounterExample(assignment={self.assignment!r}, "
                f"rejecting_position={self.rejecting_position!r})")

    def __reduce__(self):  # pickles and copies by value, as the dataclass did
        return CounterExample, self._key()


@dataclass(frozen=True)
class Verdict:
    """Either clean (no violation so far) or a violation with a counterexample."""

    counterexample: CounterExample = None

    @property
    def is_violation(self) -> bool:
        return self.counterexample is not None


CLEAN = Verdict()


@dataclass
class MonitorStats:
    """Cumulative session counters.

    With no reductions a fresh trace adds (k+1)**n - k**n instances against a
    store of k traces; symmetry keeps one tuple per permutation class,
    C(k+n-1, n-1) of them (k+1 pairs for two quantifiers), reflexivity
    removes the all-fresh tuple, and transitivity drops all but the
    representative comparison.  ``instances_run`` counts the tuples decided,
    including the ones a prefix-tree walk decides together in one subtree;
    a violating trace counts its tuples up to the counterexample.  A
    session runs no inclusion check, so ``inclusion_checks`` stays 0.
    """

    traces_seen: int = 0
    traces_stored: int = 0
    instances_run: int = 0
    inclusion_checks: int = 0
    wall_time: float = 0.0

    def as_dict(self) -> dict:
        return {
            "traces_seen": self.traces_seen,
            "traces_stored": self.traces_stored,
            "instances_run": self.instances_run,
            "inclusion_checks": self.inclusion_checks,
            "wall_time": self.wall_time,
        }


def tuples_with_last(stored, last, n: int, skip_self: bool = False,
                     ordered: bool = False, k: int = None):
    """The n-tuples over ``stored[:k]`` and ``last`` that hold ``last``, less
    the all-last tuple when ``skip_self``, as families; ``k`` defaults to
    ``len(stored)``.  The pool is ``stored[:k] + [last]``, and nothing is
    copied to make it: ``stored`` is read by index.

    A family ``(fixed, slot, start)`` stands for the tuples ``fixed`` with
    position ``slot`` (None in ``fixed``) set to each of ``stored[start:k]``
    in turn; a ``slot`` of None means ``fixed`` is one tuple.  Expanded in
    order, unordered families give the tuples in ``itertools.product``
    order: the final position is ``last`` unless the rest already holds it.
    ``ordered`` keeps one tuple per permutation class: the ones whose
    positions never decrease in pool order, so ``last`` ends each tuple.
    They come in ``combinations_with_replacement`` order, whose all-last
    tuple comes last.  The free slot is one of the last two positions, the
    second-to-last one when ``ordered``.  Two positions have one head, the
    empty one, and their families are yielded directly; more positions
    build their heads over ``range(k + 1)``.
    """
    if n == 0:
        return
    if k is None:
        k = len(stored)
    if n == 1:
        if not skip_self:
            yield (last,), None, 0
        return
    if n == 2:
        if k:
            yield (None, last), 0, 0
            if not ordered:
                yield (last, None), 1, 0
        if not skip_self:
            yield (last, last), None, 0
        return

    def at(i):
        return stored[i] if i < k else last

    if ordered:
        for head in itertools.combinations_with_replacement(range(k + 1), n - 2):
            prefix = tuple(map(at, head))
            if head[-1] < k:
                yield prefix + (None, last), n - 2, head[-1]
            if not (skip_self and head[0] == k):
                yield prefix + (last, last), None, 0
        return
    for head in itertools.product(range(k + 1), repeat=n - 2):
        prefix = tuple(map(at, head))
        if k not in head:
            if k:
                yield prefix + (None, last), n - 2, 0
                yield prefix + (last, None), n - 1, 0
            yield prefix + (last, last), None, 0
            continue
        all_last = all(i == k for i in head)
        for j in range(k + 1):
            if k:
                yield prefix + (at(j), None), n - 1, 0
            if not (skip_self and all_last and j == k):
                yield prefix + (at(j), last), None, 0


def _level(prefix):
    """``(exists, var, block, below)``, built once per session: the first
    quantifier; for a prefix of one kind, its variables last first and
    None; for any other, None and the rest's level.  Read in that order,
    ``tuples_with_last`` gives a fresh trace's row (its tuples at the
    block's first variable) before its column."""
    quant, var = prefix[0]
    if all(q == quant for q, _ in prefix):
        return quant == "exists", var, tuple(v for _, v in reversed(prefix)), None
    return quant == "exists", var, None, _level(prefix[1:])


class _Rows:
    """A quantifier prefix over a growing store; ``trace`` is the trace the
    row binds (None at the root) and ``masks`` the masks of each trace bound
    outside the prefix, outermost first.

    A prefix of one kind keeps a flag, ``settled``, that a deciding tuple
    sets for good (∃: an accepted one, ∀: a rejected one); each trace it
    has not read adds the tuples that hold it.  Any other prefix keeps one
    row per stored trace, the rest of the prefix with that trace bound,
    made and read in store order up to the first that decides (later rows
    catch up when read).  A settled row is dropped, or settles the prefix
    when it decides the first quantifier.
    """

    __slots__ = ("level", "trace", "masks", "read", "rows", "settled")

    def __init__(self, level, trace, masks):
        self.level, self.trace, self.masks = level, trace, masks
        self.read, self.rows, self.settled = 0, [], False

    def holds(self, session, pool, masks_of) -> bool:
        """The prefix's value over ``pool``, the store so far; ``masks_of``
        comes from :meth:`Session._mask_source`."""
        exists, var, block, below = self.level
        if self.settled:
            return exists
        if block is not None:
            if self.read < len(pool):
                self.settled = session._decides(
                    block, exists, self.masks, pool, self.read, masks_of
                )
                self.read = len(pool)
            return self.settled == exists
        i = 0
        while i < len(self.rows) or self.read < len(pool):
            if i == len(self.rows):
                trace = pool[self.read]
                self.rows.append(_Rows(below, trace, self.masks + [masks_of(trace, var)]))
                self.read += 1
            row = self.rows[i]
            if row.holds(session, pool, masks_of) == exists:
                self.settled = row.settled  # a settled row settles the prefix
                return exists
            if row.settled:
                del self.rows[i]
            else:
                i += 1
        return not exists


class Session:
    """Monitoring state for one specification.

    A violating tuple's counterexample carries its assignment at once; its
    ``rejecting_position`` runs on first read (see :class:`CounterExample`),
    so with ``continue_after_violation`` the violations nobody reads cost
    no emptiness search and register no automaton state.
    """

    def __init__(self, qf: QuantifiedFormula, options: MonitorOptions = None):
        begin = time.perf_counter()
        validate_quantified(qf)
        self.qf = qf
        self.variables = qf.variables
        self.options = options or MonitorOptions()
        self.qclass = classify_prefix(qf)
        self.body = desugar(qf.body)
        self.alphabet = collect_alphabet(qf)
        self.propositions = {ref.proposition for ref in self.alphabet}
        self.template = build_template(
            self.body,
            self.variables,
            self.alphabet,
            state_limit=self.options.state_limit,
        )
        self.universal = self.qclass.is_universal
        self.provisional = not self.universal
        # both analyses shrink the tuple loop, which pairs traces only here
        tupled = self.universal and self.qclass.n >= 2
        self.analysis = None
        if self.options.spec_analysis and tupled:
            self.analysis = analyze(qf, self.options.state_limit)
        # trace analysis is the store's copy index, built only when it runs
        self.trace_analysis = self.options.trace_analysis and tupled
        self.store = TraceStore()
        self.stats = MonitorStats()
        self._seen_names = set()
        self._warned_extra = set()
        self._new_extra = set()  # first met in the trace being projected
        # raw step -> projected step, and per variable projected step ->
        # mask; equal projections are one shared object
        self._projection = _Table(self._project_step)
        auto = self.template.automaton
        self._mask_tables = {
            var: _Table(functools.partial(step_mask, auto.prop_bits(var)))
            for var in self.variables
        }
        # tries of the stored traces' masks: on universal prefixes one per
        # variable a stored trace takes in a tuple (all but the last one,
        # which is the fresh trace's when tuples are ordered); on other
        # prefixes one per variable a walk reads, the free slots of the
        # innermost block.  A stored trace's serial is its position in the
        # store, which only grows
        held = ()
        if tupled:
            held = self.variables[:-1] if self.symmetric else self.variables
        if self.provisional:
            self._root = _Rows(_level(qf.prefix), None, [])
            level = self._root.level
            while level[2] is None:  # down to the innermost block
                level = level[3]
            if self.qclass.n >= 2:
                held = level[2][-2:]  # its free slots: its first two variables
        self._tries = {var: PrefixTree() for var in held}
        self._serials = {}  # stored trace name -> serial
        # violating projected steps -> the serial of their first violator in
        # the first family (see _run_tuples); an int adds no container for
        # the collector to trace
        self._violators = {}
        self._verdict = CLEAN
        if self.universal and self.qclass.n == 0:
            # degenerate empty prefix: the single empty tuple decides everything
            if not self.template.accepts({}):
                self._verdict = Verdict(CounterExample((), 0))
        self.stats.wall_time += time.perf_counter() - begin

    # -- reduction flags ---------------------------------------------------

    @property
    def symmetric(self) -> bool:
        return self.analysis is not None and self.analysis.symmetric

    @property
    def reflexive(self) -> bool:
        return self.analysis is not None and self.analysis.reflexive

    @property
    def transitive(self) -> bool:
        return (
            self.analysis is not None
            and self.analysis.transitive
            and self.symmetric
            and self.reflexive
        )

    # -- trace intake ------------------------------------------------------

    def _project_step(self, step):
        """``step`` within the spec's propositions; equal projections are one
        object, the table's.  Runs only on a table miss, which is where a
        proposition outside the spec is first met: a hit is a step met
        before."""
        dropped = step - self.propositions
        if not dropped:
            return step
        self._new_extra |= dropped - self._warned_extra
        return self._projection[step - dropped]

    def _project(self, trace: Trace) -> Trace:
        steps = tuple(map(self._projection.__getitem__, trace.steps))
        if self._new_extra:
            unseen, self._new_extra = self._new_extra, set()
            self._warned_extra |= unseen
            log.warning(
                "trace %s carries propositions %s not in the specification; "
                "ignoring them here and in later traces",
                trace.name,
                sorted(unseen),
            )
        # a projection that drops something is a smaller set, so unequal
        return trace if steps == trace.steps else Trace(steps, trace.name)

    def process_trace(self, trace: Trace) -> Verdict:
        if trace.name in self._seen_names:
            raise ValueError(f"duplicate trace name {trace.name!r}")
        self._seen_names.add(trace.name)
        if (
            self.universal
            and self._verdict.is_violation
            and not self.options.continue_after_violation
        ):
            return self._verdict
        begin = time.perf_counter()
        trace = self._project(trace)
        self.stats.traces_seen += 1
        if self.universal:
            verdict = self._process_universal(trace)
            if verdict.is_violation:
                self._verdict = verdict
        else:
            # provisional verdicts track the current trace set and may flip
            verdict = self._process_provisional(trace)
            self._verdict = verdict
        self.stats.traces_stored = len(self.store)
        self.stats.wall_time += time.perf_counter() - begin
        return verdict

    # -- universal fragment (tuple loop) ------------------------------------

    def _process_universal(self, fresh: Trace) -> Verdict:
        if self.trace_analysis and self.store.drop_if_copy(fresh):
            return CLEAN
        masks_of = self._mask_source(fresh)
        violating = self._run_tuples(fresh, masks_of)
        if violating is not None:
            return Verdict(self._build_counterexample(violating, masks_of))
        if self.qclass.n >= 2:
            self.store.add(fresh, index=self.trace_analysis)
            self._index(fresh, masks_of)
        return CLEAN

    def _mask_source(self, fresh: Trace):
        """``masks_of(trace, var)``: the fresh trace's masks are read off the
        variable's mask table once, on first use; a stored trace's are read
        off its trie, or off the table when the variable has no trie."""
        tables, tries, serials = self._mask_tables, self._tries, self._serials
        kept = {}

        def masks_of(trace, var):
            if trace is fresh:
                if var not in kept:
                    kept[var] = list(map(tables[var].__getitem__, fresh.steps))
                return kept[var]
            if var in tries:
                return tries[var].masks(serials[trace.name])
            return list(map(tables[var].__getitem__, trace.steps))

        return masks_of

    def _index(self, fresh: Trace, masks_of) -> None:
        """Add ``fresh``, the store's last trace, to the tries."""
        serial = self._serials[fresh.name] = len(self.store) - 1
        for var, tree in self._tries.items():
            tree.add(masks_of(fresh, var), serial)

    def _run_tuples(self, fresh: Trace, masks_of):
        """The first violating tuple the fresh trace forms with the store, or
        None; ``masks_of`` comes from :meth:`_mask_source`.

        A family runs its free slot over that variable's trie in one walk.
        ``instances_run`` counts the tuples decided: all of a clean family,
        and of a violating one the tuples up to the violator.

        A violator found in the first family, ``(stored[0], ..., None,
        fresh)`` from serial 0, enters the violator table under its steps.
        That family comes first whenever the store is non-empty, so a later
        trace with the same steps gets the same tuple from its entry.
        """
        stored = self.store.traces[:1] if self.transitive else self.store.traces
        if self._violators:
            at = self._violators.get(fresh.steps)
            if at is not None:
                self.stats.instances_run += at + 1
                return (stored[0],) * (self.qclass.n - 2) + (stored[at], fresh)
        auto = self.template.automaton
        variables = self.variables
        families = tuples_with_last(
            stored, fresh, self.qclass.n, self.reflexive, self.symmetric
        )
        first = True
        for fixed, slot, start in families:
            fixed_masks = [
                masks_of(trace, var)
                for var, trace in zip(variables, fixed)
                if trace is not None
            ]
            if slot is None:
                self.stats.instances_run += 1
                if not run_masks(auto, fixed_masks):
                    return fixed
                first = False
                continue
            # a single fixed slot's masks are the word already
            if len(fixed_masks) == 1:
                word = fixed_masks[0]
            else:
                word = list(joint_word(fixed_masks))
            # serials are store positions
            at = self._tries[variables[slot]].first_serial(
                auto, word, start, len(stored) - 1, False
            )
            if at is None:
                self.stats.instances_run += len(stored) - start
                first = False
                continue
            self.stats.instances_run += at - start + 1
            if first:
                table = self._violators
                if len(table) >= TABLE_SIZE:
                    table.clear()
                table[fresh.steps] = at
            return fixed[:slot] + (stored[at],) + fixed[slot + 1:]
        return None

    def _build_counterexample(self, tup, masks_of) -> CounterExample:
        """The counterexample of ``tup``; its rejecting position is worked
        out on first read.  That gives the value a read right now would:
        stored traces keep their trie paths, the fresh trace's masks stay in
        ``masks_of``, and every letter was already stepped by the tuple
        loop."""
        pairs = tuple(zip(self.variables, tup))
        auto = self.template.automaton

        def position():
            letters = list(joint_word(masks_of(trace, var) for var, trace in pairs))
            return rejecting_position(auto, letters)

        return CounterExample.deferred(
            tuple((var, trace.name) for var, trace in pairs), position
        )

    # -- other fragments (rows over the tries) -------------------------------

    def _process_provisional(self, fresh: Trace) -> Verdict:
        # no copy index here: every trace is stored and indexed
        masks_of = self._mask_source(fresh)
        if self.qclass.n >= 2:
            self.store.add(fresh)
            self._index(fresh, masks_of)
            pool = self.store.traces
        else:
            # one variable stores nothing: the root reads the fresh trace alone
            pool, self._root.read = [fresh], 0
        if self._root.holds(self, pool, masks_of):
            return CLEAN
        if self.qclass.kind == "forall_exists":
            # the first stored trace with no witness: every open ∃ row is false
            trace = self._root.rows[0].trace
            return Verdict(CounterExample(((self.variables[0], trace.name),), None))
        return Verdict(CounterExample((), None))

    def _decides(self, block, accepted, masks, pool, read, masks_of) -> bool:
        """Whether a tuple over ``pool`` that holds one of ``pool[read:]``,
        its traces bound to ``block``'s variables in order and ``masks``
        the outer traces' masks, is accepted (``accepted``) or rejected
        (not ``accepted``).

        One variable's new tuples are the new traces: the fresh trace alone
        is run with ``run_masks``, more (a row made over a store) are one
        walk of its trie.  More variables read each new trace's tuples as
        families; a family runs its free slot in one walk.
        """
        auto = self.template.automaton
        if len(block) == 1:
            if read == len(pool) - 1:
                return run_masks(auto, masks + [masks_of(pool[-1], block[0])]) == accepted
            tree = self._tries[block[0]]
            word = masks[0] if len(masks) == 1 else list(joint_word(masks))
            return tree.first_serial(auto, word, read, len(pool) - 1, accepted) is not None
        for j in range(read, len(pool)):
            for fixed, slot, start in tuples_with_last(pool, pool[j], len(block), k=j):
                tuple_masks = masks + [
                    masks_of(trace, var) for var, trace in zip(block, fixed)
                    if trace is not None
                ]
                if slot is None:
                    if run_masks(auto, tuple_masks) == accepted:
                        return True
                    continue
                word = list(joint_word(tuple_masks))
                tree = self._tries[block[slot]]
                if tree.first_serial(auto, word, start, j - 1, accepted) is not None:
                    return True
        return False

    def verdict(self) -> Verdict:
        return self._verdict

    def trace_analysis_counts(self) -> dict:
        """How often trace analysis dropped a trace: copy-index hits."""
        return {"copy_hits": self.store.copy_hits}
