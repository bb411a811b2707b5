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

Inclusion checks run on explicit minimized automata, so they are exact.
"""

from dataclasses import dataclass, field

from .automata import language_included, minimize
from .errors import FragmentError
from .formula import QuantifierClass
from .semantics import Trace
from .template import MonitorTemplate, materialize


@dataclass(frozen=True)
class DominanceJudgment:
    """Outcome of one dominance query, for reporting."""

    dominator: str
    dominated: str
    fragment: QuantifierClass
    inclusion_checks: int


@dataclass
class TraceStore:
    """Ordered traces plus a log of dropped ones.

    Names are not checked here; the session checks them before a trace
    reaches the store.  A fresh trace goes in by :meth:`drop_if_covered`,
    then, if not dropped, :meth:`add`; the session runs its tuple loop in
    between.  A ``checker`` of None means trace analysis is off.
    """

    traces: list = field(default_factory=list)
    dropped: list = field(default_factory=list)  # (dropped name, dominator name)

    def names(self):
        return [t.name for t in self.traces]

    def drop_if_covered(self, fresh: Trace, checker: "DominanceChecker") -> bool:
        """Log ``fresh`` as dropped if a stored trace dominates it.

        Stored traces are tried in insertion order; the first dominator is
        logged as the covering trace.
        """
        if checker is not None:
            for old in self.traces:
                if checker.dominates(old, fresh):
                    self.dropped.append((fresh.name, old.name))
                    return True
        return False

    def add(self, fresh: Trace, checker: "DominanceChecker" = None) -> None:
        """Evict every stored trace ``fresh`` dominates, then append it."""
        if checker is not None:
            kept = []
            for old in self.traces:
                if checker.dominates(fresh, old):
                    self.dropped.append((old.name, fresh.name))
                else:
                    kept.append(old)
            self.traces = kept
        self.traces.append(fresh)

    def copy(self) -> "TraceStore":
        return TraceStore(list(self.traces), list(self.dropped))

    def __len__(self) -> int:
        return len(self.traces)


class DominanceChecker:
    """Caches per-(trace, variable) instantiated automata across queries."""

    def __init__(self, template: MonitorTemplate, qclass: QuantifierClass):
        if qclass.kind == "exists_n" and qclass.n != 2:
            raise FragmentError(
                "existential dominance is only defined for two quantifiers"
            )
        if qclass.kind == "other":
            raise FragmentError(f"no dominance rule for prefix shape {qclass.shape!r}")
        if qclass.kind in ("forall_n", "exists_n") and qclass.n < 1:
            raise FragmentError("dominance needs at least one quantifier")
        self.template = template
        self.qclass = qclass
        self.inclusion_checks = 0
        self._cache = {}

    def _instance(self, trace: Trace, var: str):
        key = (trace.steps, var)
        dfa = self._cache.get(key)
        if dfa is None:
            dfa = minimize(materialize(self.template.instantiate(trace, var).automaton))
            self._cache[key] = dfa
        return dfa

    def _included(self, t1: Trace, t2: Trace, var: str) -> bool:
        self.inclusion_checks += 1
        ok, _ = language_included(self._instance(t1, var), self._instance(t2, var))
        return ok

    def dominates(self, t1: Trace, t2: Trace) -> bool:
        """True when t1 dominates t2 (t2 is redundant while t1 is stored)."""
        variables = self.template.free_variables
        if self.qclass.kind == "forall_n":
            return all(self._included(t1, t2, v) for v in variables)
        if self.qclass.kind == "exists_n":
            return all(self._included(t2, t1, v) for v in variables)
        # forall-exists: first variable universal, second existential
        univ, exis = variables
        return self._included(t1, t2, univ) and self._included(t2, t1, exis)

    def judge(self, t1: Trace, t2: Trace):
        """DominanceJudgment when t1 dominates t2, else None."""
        before = self.inclusion_checks
        if not self.dominates(t1, t2):
            return None
        return DominanceJudgment(
            dominator=t1.name,
            dominated=t2.name,
            fragment=self.qclass,
            inclusion_checks=self.inclusion_checks - before,
        )


def dominates(template: MonitorTemplate, qclass: QuantifierClass,
              t1: Trace, t2: Trace) -> bool:
    """One-shot dominance query (no cross-call caching)."""
    return DominanceChecker(template, qclass).dominates(t1, t2)


def minimize_store(template, qclass, store: TraceStore, fresh: Trace,
                   checker: DominanceChecker = None) -> TraceStore:
    """Insert a fresh trace, keeping the store redundancy-free.

    Returns a new store; the one passed in is left unchanged.  If any stored
    trace dominates the fresh one, the fresh trace is only logged as dropped.
    Otherwise every stored trace the fresh one dominates is removed, and the
    fresh trace appended.  Stored traces are visited in insertion order.
    """
    if checker is None:
        checker = DominanceChecker(template, qclass)
    out = store.copy()
    if not out.drop_if_covered(fresh, checker):
        out.add(fresh, checker)
    return out
