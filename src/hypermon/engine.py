"""Monitoring sessions: per-trace tuple checking with optional reductions.

A session compiles the specification's body into a monitor template once.
Each incoming trace is checked in every new tuple it forms with the stored
traces; a rejected tuple is reported as a counterexample.  Specification
analysis removes tuple orders (symmetry), self-pairs (reflexivity) or all but
one comparison partner (transitivity); trace analysis discards traces that a
stored trace dominates.

Universal prefixes get definitive verdicts (violations never flip back).
Other prefixes are evaluated directly against the stored trace set and their
verdicts are provisional: a later trace can change them.
"""

import itertools
import logging
import time
from dataclasses import dataclass

from .errors import FragmentError
from .formula import (
    QuantifiedFormula,
    classify_prefix,
    collect_alphabet,
    desugar,
    validate_quantified,
)
from .semantics import Trace, eval_body, eval_quantified
from .spec_analysis import analyze
from .template import (
    DEFAULT_ATOM_LIMIT,
    DEFAULT_STATE_LIMIT,
    build_template,
    joint_word,
    rejecting_position,
    run_masks,
    trace_masks,
)
from .trace_analysis import DominanceChecker, TraceStore

log = logging.getLogger(__name__)


@dataclass
class MonitorOptions:
    """Session knobs."""

    trace_analysis: bool = True
    spec_analysis: bool = True
    continue_after_violation: bool = False
    state_limit: int = DEFAULT_STATE_LIMIT
    atom_limit: int = DEFAULT_ATOM_LIMIT


@dataclass(frozen=True)
class CounterExample:
    """A rejected tuple: (variable, trace name) pairs in prefix order.

    rejecting_position is the length of the shortest joint-word prefix after
    which acceptance was impossible (None for provisional verdicts, where no
    joint run exists).
    """

    assignment: tuple
    rejecting_position: int = None


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
    store of k traces; reflexivity removes the self-tuple, symmetry (two
    quantifiers) halves pairs to k, and transitivity drops all but the
    representative comparison.
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


class Session:
    """Monitoring state for one specification."""

    def __init__(self, qf: QuantifiedFormula, options: MonitorOptions = None):
        begin = time.perf_counter()
        validate_quantified(qf)
        self.qf = qf
        self.options = options or MonitorOptions()
        self.qclass = classify_prefix(qf)
        self.body = desugar(qf.body)
        self.alphabet = collect_alphabet(qf)
        self.propositions = {ref.proposition for ref in self.alphabet}
        self.template = build_template(
            self.body,
            qf.variables,
            self.alphabet,
            state_limit=self.options.state_limit,
            atom_limit=self.options.atom_limit,
        )
        self.universal = self.qclass.kind == "forall_n"
        self.provisional = not self.universal
        self.analysis = None
        if self.options.spec_analysis and self.universal and self.qclass.n >= 2:
            self.analysis = analyze(
                qf, self.options.state_limit, self.options.atom_limit
            )
        self.store = TraceStore()
        self.stats = MonitorStats()
        self.checker = None
        if self.options.trace_analysis:
            try:
                self.checker = DominanceChecker(self.template, self.qclass)
            except FragmentError:
                self.checker = None  # no dominance rule for this prefix shape
        self._seen_names = set()
        self._warned_extra = frozenset()
        self._masks = {}
        self._verdict = CLEAN
        if self.universal and self.qclass.n == 0:
            # degenerate empty prefix: the single empty tuple decides everything
            if not eval_body({}, qf.body):
                self._verdict = Verdict(CounterExample((), 0))
        self.stats.wall_time += time.perf_counter() - begin

    # -- reduction flags ---------------------------------------------------

    @property
    def symmetric(self) -> bool:
        return (
            self.analysis is not None
            and self.analysis.symmetric
            and self.qclass.n == 2
        )

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

    def _project(self, trace: Trace) -> Trace:
        extra = set()
        for step in trace.steps:
            extra |= step - self.propositions
        if not extra:
            return trace
        unseen = frozenset(extra) - self._warned_extra
        if unseen:
            self._warned_extra |= unseen
            log.warning(
                "trace %s carries propositions %s not in the specification; "
                "ignoring them here and in later traces",
                trace.name,
                sorted(unseen),
            )
        return Trace(
            tuple(frozenset(step & self.propositions) for step in trace.steps),
            trace.name,
        )

    def process_trace(self, trace: Trace) -> Verdict:
        if (
            self.universal
            and self._verdict.is_violation
            and not self.options.continue_after_violation
        ):
            return self._verdict
        begin = time.perf_counter()
        if trace.name in self._seen_names:
            raise ValueError(f"duplicate trace name {trace.name!r}")
        self._seen_names.add(trace.name)
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
        if self.checker is not None:
            self.stats.inclusion_checks = self.checker.inclusion_checks
        self.stats.wall_time += time.perf_counter() - begin
        return verdict

    # -- universal fragment (tuple loop) ------------------------------------

    def _mask(self, trace: Trace, var: str):
        key = (trace.name, var)
        masks = self._masks.get(key)
        if masks is None:
            masks = trace_masks(self.template.automaton, var, trace)
            self._masks[key] = masks
        return masks

    def _forget(self, trace: Trace) -> None:
        # only stored traces appear in later tuples and dominance checks
        for var in self.qf.variables:
            self._masks.pop((trace.name, var), None)
        if self.checker is not None:
            self.checker.forget(trace, self.store.traces)

    def _tuple_masks(self, tup):
        return [self._mask(trace, var) for var, trace in zip(self.qf.variables, tup)]

    def _new_tuples(self, fresh: Trace):
        """Tuples involving the fresh trace, in deterministic order."""
        n = self.qclass.n
        stored = self.store.traces
        if self.transitive:
            if stored:
                yield (stored[0], fresh)
            return
        if self.symmetric:
            for old in stored:
                yield (old, fresh)
            if not self.reflexive:
                yield (fresh, fresh)
            return
        pool = stored + [fresh]
        fresh_idx = len(pool) - 1
        skip_self = self.reflexive
        for combo in itertools.product(range(len(pool)), repeat=n):
            if fresh_idx not in combo:
                continue
            if skip_self and len(set(combo)) == 1:
                continue
            yield tuple(pool[i] for i in combo)

    def _process_universal(self, fresh: Trace) -> Verdict:
        if self.store.drop_if_covered(fresh, self.checker):
            self._forget(fresh)
            return CLEAN
        violating = self._scan_tuples(fresh)
        if violating is not None:
            verdict = Verdict(self._build_counterexample(violating))
            self._forget(fresh)
            return verdict
        self._add(fresh)
        return CLEAN

    def _add(self, fresh: Trace) -> None:
        for evicted in self.store.add(fresh, self.checker):
            self._forget(evicted)

    def _scan_tuples(self, fresh: Trace):
        auto = self.template.automaton
        for tup in self._new_tuples(fresh):
            self.stats.instances_run += 1
            if not run_masks(auto, self._tuple_masks(tup)):
                return tup
        return None

    def _build_counterexample(self, tup) -> CounterExample:
        letters = list(joint_word(self._tuple_masks(tup)))
        position = rejecting_position(self.template.automaton, letters)
        assignment = tuple(
            (var, trace.name) for var, trace in zip(self.qf.variables, tup)
        )
        return CounterExample(assignment, position)

    # -- other fragments (direct evaluation) --------------------------------

    def _process_provisional(self, fresh: Trace) -> Verdict:
        if self.store.drop_if_covered(fresh, self.checker):
            self._forget(fresh)
        else:
            self._add(fresh)
        if eval_quantified(self.store.traces, self.qf):
            return CLEAN
        return Verdict(self._provisional_counterexample())

    def _provisional_counterexample(self) -> CounterExample:
        if self.qclass.kind == "forall_exists":
            univ, exis = self.qf.variables
            for t in self.store.traces:
                if not any(
                    eval_body({univ: t, exis: s}, self.qf.body)
                    for s in self.store.traces
                ):
                    return CounterExample(((univ, t.name),), None)
        return CounterExample((), None)

    def verdict(self) -> Verdict:
        return self._verdict


def new_session(qf: QuantifiedFormula, options: MonitorOptions = None) -> Session:
    return Session(qf, options)


def process_trace(session: Session, trace: Trace) -> Verdict:
    return session.process_trace(trace)


def stats(session: Session) -> MonitorStats:
    return session.stats
