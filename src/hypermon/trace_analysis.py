"""Redundancy elimination for stored traces: the copy index and dominance.

A trace the store already covers can be discarded without changing any
present or future verdict.  Coverage is fragment-specific:

* all-universal prefixes: t1 dominates t2 when, for every variable, the
  language of the template with t1 plugged in is included in the one with t2
  plugged in;
* two existentials: both inclusions point the other way (t2's languages
  inside t1's);
* forall-exists: t1's language is included in t2's on the universal variable
  and t2's is included in t1's on the existential variable.

Dominance is reflexive, so a trace whose projected steps equal those of a
stored trace is always covered.  The store's **copy index** finds such a
copy with one dict lookup (:meth:`TraceStore.drop_if_copy`), and this is
all the trace analysis a monitoring session runs: on every corpus measured,
deciding inclusion for the traces that are not copies cost more than the
tuples it saved (see the README's "Trace analysis" section).

:class:`DominanceChecker`, :func:`dominates` and :func:`minimize_store`
decide the full relation, as library API.  Inclusion is decided exactly, by
a shortest-word search (``automata._uncovered_word``) on explicit instance
automata, ``materialize`` of the template with one trace plugged in.
:func:`minimize_store` asks the copy index first, then scans the store in
insertion order for a dominator.  The store is append-only: a fresh trace
that dominates stored ones does not evict them.  Dominance is transitive and
a dominating trace violates wherever the dominated one does, so each
trace's verdict and every drop decision are the same as with eviction; only
the stored set may keep a dominated trace, which a dropped entry may then
name.
"""

from dataclasses import dataclass, field

from .automata import _uncovered_word
from .errors import FragmentError, ResourceLimitError
from .formula import QuantifierClass
from .semantics import Trace
from .template import ATOM_LIMIT, MonitorTemplate, materialize

# language_included and minimize stay importable from here, unused:
# perfbench/child.py wraps both under this module's name
from .automata import language_included, minimize  # noqa: F401


@dataclass
class TraceStore:
    """Ordered traces plus a log of dropped ones.

    Names are not checked here; the session checks them before a trace
    reaches the store.  The store never removes a trace.

    The copy index maps projected steps to the first trace appended with
    ``index=True`` that has them.  :func:`minimize_store` indexes a trace
    only when no stored trace dominates it, so that entry is the first
    dominator, in insertion order, of any later copy.  :meth:`copy` carries
    the index along with the traces.  Traces passed to the constructor are
    not indexed; :func:`minimize_store`'s scan finds copies of them.
    """

    traces: list = field(default_factory=list)
    dropped: list = field(default_factory=list)  # (dropped name, dominator name)
    copy_hits: int = 0  # drops found in the copy index
    _copies: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def names(self):
        return [t.name for t in self.traces]

    def drop_if_copy(self, fresh: Trace) -> bool:
        """Log ``fresh`` as dropped if the copy index holds its steps."""
        copy = self._copies.get(fresh.steps)
        if copy is None:
            return False
        self.copy_hits += 1
        self.dropped.append((fresh.name, copy.name))
        return True

    def add(self, fresh: Trace, index: bool = False) -> None:
        """Append ``fresh``, and with ``index`` enter its steps in the copy
        index unless a trace there already has them."""
        self.traces.append(fresh)
        if index:
            self._copies.setdefault(fresh.steps, fresh)

    def copy(self) -> "TraceStore":
        out = TraceStore(list(self.traces), list(self.dropped), self.copy_hits)
        out._copies = dict(self._copies)
        return out

    def __len__(self) -> int:
        return len(self.traces)


class DominanceChecker:
    """Decides dominance, caching one explicit instance DFA per (steps,
    variable) across queries.

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
        self._cache = {}  # (steps, variable) -> instance DFA
        # (variable, whether the pair is swapped): t1 dominates t2 when
        # L(t1) ⊆ L(t2) on each unswapped variable, L(t2) ⊆ L(t1) on the rest
        variables = template.free_variables
        if qclass.kind == "forall_n":
            self._sides = tuple((v, False) for v in variables)
        elif qclass.kind == "exists_n":
            self._sides = tuple((v, True) for v in variables)
        else:  # forall-exists: first variable universal, second existential
            self._sides = ((variables[0], False), (variables[1], True))

    def _instance(self, trace: Trace, var: str):
        key = (trace.steps, var)
        dfa = self._cache.get(key)
        if dfa is None:
            instance = self.template.instantiate(trace, var)
            dfa = self._cache[key] = materialize(instance.automaton)
        return dfa

    def _included(self, t1: Trace, t2: Trace, var: str) -> bool:
        self.inclusion_checks += 1
        a, b = self._instance(t1, var), self._instance(t2, var)
        return _uncovered_word(a, b) is None

    def dominates(self, t1: Trace, t2: Trace) -> bool:
        """True when t1 dominates t2 (t2 is redundant while t1 is stored)."""
        for var, swapped in self._sides:
            a, b = (t2, t1) if swapped else (t1, t2)
            if not self._included(a, b, var):
                return False
        return True


def dominates(template: MonitorTemplate, qclass: QuantifierClass,
              t1: Trace, t2: Trace) -> bool:
    """One-shot dominance query (no cross-call caching)."""
    return DominanceChecker(template, qclass).dominates(t1, t2)


def minimize_store(template, qclass, store: TraceStore, fresh: Trace,
                   checker: DominanceChecker = None) -> TraceStore:
    """Insert a fresh trace unless a stored trace dominates it.

    Returns a new store; the one passed in is left unchanged.  The copy
    index is asked first; then stored traces are tried in insertion order.
    If any stored trace dominates the fresh one, the fresh trace is only
    logged as dropped against the first such trace; otherwise it is
    appended and indexed.  No stored trace is removed, so the result may
    hold a trace that a later one dominates.
    """
    if checker is None:
        checker = DominanceChecker(template, qclass)
    out = store.copy()
    if out.drop_if_copy(fresh):
        return out
    for old in out.traces:
        if checker.dominates(old, fresh):
            out.dropped.append((fresh.name, old.name))
            return out
    out.add(fresh, index=True)
    return out
