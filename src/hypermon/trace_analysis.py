"""Redundancy elimination for stored traces via language-inclusion dominance.

A trace the store already covers can be discarded without changing any
present or future verdict.  Coverage is fragment-specific:

* all-universal prefixes: t1 dominates t2 when, for every variable, the
  language of the template with t1 plugged in is included in the one with t2
  plugged in;
* two existentials: both inclusions point the other way (t2's languages
  inside t1's);
* forall-exists: t1's language is included in t2's on the universal variable
  and t2's is included in t1's on the existential variable.

Inclusion is decided exactly, by a shortest-word search on explicit instance
automata; these are not minimised, but their decided states do not depend on
the position in the bound trace, which keeps them close to minimal.  Each is
built in one pass over (monitor state, position in the bound trace) from the
template's cached transitions and the trace's masks
(:func:`~hypermon.template.instance_dfa`), the same DFA, state for state, as
``materialize`` on the instantiated template.  Two cheaper paths sit in
front of the search, and neither can change an answer:

* **copy index**: dominance is reflexive, so a fresh trace whose projected
  steps equal those of a trace the store admitted is dropped at once, logged
  against that trace, with no inclusion check;
* **last refuting word**: the checker keeps, per variable, the last word a
  search found in one language and not the other, and runs it on the next
  pair first.  During one scan the fresh trace's automaton sits on the same
  side of every check, so that word often refutes the next check too.  Each
  cached automaton keeps the last word it ran and that run's answer, so a
  word runs once per automaton: on the fresh trace's side once per scan,
  not once per stored trace.

:meth:`TraceStore.add` is the one insertion routine: copy index, then the
scan for a dominator, and it frees the cached automata of a trace it drops.
The store is append-only: a fresh trace that dominates stored ones does not
evict them.  Dominance is transitive and a dominating trace violates
wherever the dominated one does, so each trace's verdict and every drop
decision are the same as with eviction; only the stored set may keep a
dominated trace, which a counterexample or a dropped entry may then name.
On universal prefixes the session asks the copy index alone first, with
:meth:`TraceStore.drop_if_copy`, and calls ``add`` only for a trace whose
tuples pass (see ``engine.Session``): a dominated trace cannot violate, so
a violator needs no inclusion check.
"""

from dataclasses import dataclass, field

from .automata import _uncovered_word
from .errors import FragmentError, ResourceLimitError
from .formula import QuantifierClass
from .semantics import Trace
from .template import ATOM_LIMIT, MonitorTemplate, instance_dfa

# language_included, minimize and materialize stay importable from here,
# unused: perfbench/child.py wraps all three under this module's name
from .automata import language_included, minimize  # noqa: F401
from .template import materialize  # noqa: F401

@dataclass
class TraceStore:
    """Ordered traces plus a log of dropped ones.

    Names are not checked here; the session checks them before a trace
    reaches the store.  :meth:`add` is the one insertion routine; on
    universal prefixes the session also asks :meth:`drop_if_copy` before it
    runs a trace's tuples.  A ``checker`` of None means trace analysis is
    off.

    The copy index maps projected steps to the stored trace that has them.
    It holds every trace :meth:`add` appended with a checker: no trace
    stored before it dominates it (it would have been dropped), so it is the
    first dominator of any copy in insertion order.  :meth:`copy` carries
    the index along with the traces, in the same order.  Traces passed to
    the constructor are not indexed; copies of them are found by the linear
    scan.
    """

    traces: list = field(default_factory=list)
    dropped: list = field(default_factory=list)  # (dropped name, dominator name)
    _copies: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def names(self):
        return [t.name for t in self.traces]

    def drop_if_copy(self, fresh: Trace, checker: "DominanceChecker") -> bool:
        """Log ``fresh`` as dropped if the copy index holds its steps."""
        if checker is None:
            return False
        copy = self._copies.get(fresh.steps)
        if copy is None:
            return False
        checker.copy_hits += 1
        self.dropped.append((fresh.name, copy.name))
        return True

    def add(self, fresh: Trace, checker: "DominanceChecker" = None) -> bool:
        """Store ``fresh`` unless a stored trace dominates it.

        The copy index is asked first; then stored traces are tried in
        insertion order, and the first dominator is logged as the covering
        trace and the checker's automata of ``fresh`` are freed.  Otherwise
        ``fresh`` is appended and indexed; no stored trace is removed.

        Returns whether ``fresh`` was stored.
        """
        if checker is None:
            self.traces.append(fresh)
            return True
        if self.drop_if_copy(fresh, checker):
            return False
        for old in self.traces:
            if checker.dominates(old, fresh):
                self.dropped.append((fresh.name, old.name))
                checker.forget(fresh)
                return False
        self.traces.append(fresh)
        self._copies[fresh.steps] = fresh
        return True

    def copy(self) -> "TraceStore":
        out = TraceStore(list(self.traces), list(self.dropped))
        out._copies = dict(self._copies)
        return out

    def __len__(self) -> int:
        return len(self.traces)


class DominanceChecker:
    """Caches per-(trace, variable) instantiated automata across queries.

    Each instance DFA is built by :func:`~hypermon.template.instance_dfa`
    from the template's own automaton, so the template must come from
    :func:`~hypermon.template.build_template`, not from ``instantiate``.
    :meth:`TraceStore.add` frees the entries of a trace it drops with
    :meth:`forget`; the cache is then bounded by the store.
    Raises FragmentError for a prefix with no dominance rule, and
    ResourceLimitError when an instance alphabet (the support minus one
    variable's atoms) is wider than :data:`~hypermon.template.ATOM_LIMIT`.
    """

    def __init__(self, template: MonitorTemplate, qclass: QuantifierClass):
        if qclass.kind == "exists_n" and qclass.n != 2:
            raise FragmentError(
                "existential dominance is only defined for two quantifiers"
            )
        if qclass.kind == "other":
            raise FragmentError(f"no dominance rule for prefix shape {qclass.shape!r}")
        if qclass.kind in ("forall_n", "exists_n") and qclass.n < 1:
            raise FragmentError("dominance needs at least one quantifier")
        for var in template.free_variables:
            width = sum(ref.variable != var for ref in template.support)
            if width > ATOM_LIMIT:
                raise ResourceLimitError(
                    f"instance alphabet over {width} atoms exceeds the limit "
                    f"of {ATOM_LIMIT}"
                )
        self.template = template
        self.qclass = qclass
        self.inclusion_checks = 0
        self.copy_hits = 0  # drops found in the store's copy index
        self.witness_refutations = 0  # refuted by the last refuting word
        # (steps, variable) -> [instance DFA, last word it ran, its answer]
        self._cache = {}
        # variable -> the last word a search found in L(a) \ L(b); one per
        # variable, since instance alphabets of two variables may differ
        self._witness = {}
        # (variable, whether the pair is swapped): t1 dominates t2 when
        # L(t1) ⊆ L(t2) on each unswapped variable, L(t2) ⊆ L(t1) on the rest
        variables = template.free_variables
        if qclass.kind == "forall_n":
            self._sides = tuple((v, False) for v in variables)
        elif qclass.kind == "exists_n":
            self._sides = tuple((v, True) for v in variables)
        else:  # forall-exists: first variable universal, second existential
            self._sides = ((variables[0], False), (variables[1], True))

    def _entry(self, trace: Trace, var: str) -> list:
        key = (trace.steps, var)
        entry = self._cache.get(key)
        if entry is None:
            dfa = instance_dfa(self.template.automaton, var, trace)
            entry = self._cache[key] = [dfa, None, False]
        return entry

    def _instance(self, trace: Trace, var: str):
        return self._entry(trace, var)[0]

    def _included(self, t1: Trace, t2: Trace, var: str) -> bool:
        self.inclusion_checks += 1
        a, b = self._entry(t1, var), self._entry(t2, var)
        word = self._witness.get(var)
        if word is not None and _accepts(a, word) and not _accepts(b, word):
            self.witness_refutations += 1
            return False
        word = _uncovered_word(a[0], b[0])
        if word is None:
            return True
        self._witness[var] = word
        return False

    def forget(self, trace: Trace) -> None:
        """Free the cached automata of ``trace``'s steps."""
        for var in self.template.free_variables:
            self._cache.pop((trace.steps, var), None)

    def dominates(self, t1: Trace, t2: Trace) -> bool:
        """True when t1 dominates t2 (t2 is redundant while t1 is stored)."""
        for var, swapped in self._sides:
            a, b = (t2, t1) if swapped else (t1, t2)
            if not self._included(a, b, var):
                return False
        return True


def _accepts(entry: list, word) -> bool:
    """Whether a cache entry's DFA accepts ``word``, run at most once per
    word: the entry keeps the last word it ran and that run's answer."""
    if entry[1] is not word:
        entry[1] = word
        entry[2] = entry[0].accepts(word)
    return entry[2]


def dominates(template: MonitorTemplate, qclass: QuantifierClass,
              t1: Trace, t2: Trace) -> bool:
    """One-shot dominance query (no cross-call caching)."""
    return DominanceChecker(template, qclass).dominates(t1, t2)


def minimize_store(template, qclass, store: TraceStore, fresh: Trace,
                   checker: DominanceChecker = None) -> TraceStore:
    """Insert a fresh trace unless a stored trace dominates it.

    Returns a new store; the one passed in is left unchanged.  If any stored
    trace dominates the fresh one, the fresh trace is only logged as dropped
    against the first such trace in insertion order; otherwise it is
    appended.  No stored trace is removed, so the result may hold a trace
    that a later one dominates.
    """
    if checker is None:
        checker = DominanceChecker(template, qclass)
    out = store.copy()
    out.add(fresh, checker)
    return out
