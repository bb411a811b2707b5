"""The oracle harness's generators, reference and twins, which
``tests/test_oracle.py`` runs.  The reference is the paper's semantics
(:class:`Reference`, :func:`tuple_reference`); each shortcut has a twin
that forces it off (:data:`TWINS`), and a new fast path joins with one
entry there.

Seeds and sizes: ``SEED`` 2032.  Per non-empty prefix shape, :data:`SIZES`
gives the specs and the traces per corpus: 20 specs of 10 traces for one or
two quantifiers, 14 of 7 for three, 10 of 5 for ``AEAE``.  Each shape of two
or more quantifiers adds :data:`JOINED` (4) specs of :func:`joined_spec`
over corpora of the same size.  The empty prefix runs each of
:data:`CLOSED_BODIES` over 4 traces, and :data:`FIXED_CASES` adds 4 cases:
304 in all.  The harness takes 3.6–4.0 s on a shared 2-core host (Python
3.11).
"""

import itertools
import operator
import random
from collections import Counter

import pytest

from hypermon import engine, prefix_tree, semantics, template
from hypermon.engine import MonitorOptions, Session
from hypermon.errors import ResourceLimitError
from hypermon.formula import (
    And,
    Atom,
    AtomRef,
    Iff,
    Implies,
    Not,
    Or,
    QuantifiedFormula,
    classify_prefix,
    collect_alphabet,
    desugar,
    rename_variables,
)
from hypermon.parser import parse_formula
from hypermon.semantics import Trace, eval_body

from conftest import random_body, random_trace, trie_serials

# taken at import: the harness patches the module's name to refuse calls
# from the session
eval_quantified = semantics.eval_quantified

SEED = 2032
SHAPES = tuple("".join(s) for n in range(4) for s in itertools.product("AE", repeat=n))
SHAPES += ("AEAE",)  # rows inside rows
SIZES = {1: (20, 10), 2: (20, 10), 3: (14, 7), 4: (10, 5)}  # specs, traces
JOINED = 4  # joined specs per prefix shape of two or more quantifiers
VARIABLES = ("p", "q", "r", "s")
PROPS = ("a", "b", "c")
CLOSED_BODIES = ("true", "false", "X false", "G true", "F false", "true U X true")
# (engine.TABLE_SIZE, prefix_tree.WIDE), in turn from spec to spec: a table
# of 1 is cleared before every miss, and a WIDE of 1 or 2 makes almost every
# branching node a wide one
TABLE_AND_WIDE = ((engine.TABLE_SIZE, prefix_tree.WIDE), (1, 2), (4, 1))
CONFIGS = tuple(
    MonitorOptions(trace_analysis=ta, spec_analysis=sa, continue_after_violation=True)
    for ta in (False, True) for sa in (False, True)
)


# -- generators -------------------------------------------------------------

def random_spec(rng, shape) -> QuantifiedFormula:
    """A spec of the given prefix shape (``A`` for ∀, ``E`` for ∃) whose
    body, past one variable, may also be a conjunction over variable
    subsets, symmetric, or guarded by two traces agreeing on ``a`` (most
    trie children then settle at once)."""
    variables = VARIABLES[:len(shape)]
    prefix = tuple(("forall" if q == "A" else "exists", v) for q, v in zip(shape, variables))
    pick = rng.random() if len(variables) > 1 else 1
    if pick < 0.2:
        body = And(tuple(
            random_body(rng, 2, PROPS, rng.sample(variables, rng.randint(1, 2)))
            for _ in range(rng.randint(2, 3))
        ))
    elif pick < 0.4:
        part = random_body(rng, 2, PROPS, variables)
        body = And(tuple(
            rename_variables(part, dict(zip(variables, order)))
            for order in itertools.permutations(variables)
        ))
    elif pick < 0.6:
        first, second = (Atom(AtomRef("a", v)) for v in variables[:2])
        body = Implies(Iff(first, second), random_body(rng, 3, PROPS, variables))
    else:
        body = random_body(rng, 3, PROPS, variables)
    return QuantifiedFormula(prefix, body)


def joined_spec(rng, shape) -> QuantifiedFormula:
    """A spec of the given prefix shape, of two or more quantifiers, whose
    body is ``c(v) & !c(w)`` or ``c(v) | !c(w)``, for a random condition
    ``c`` and two of the variables.  Which trace takes which variable
    decides each tuple, and a trace paired with itself decides none
    (``&`` is false there, ``|`` true), so a tuple tried in one order only
    shows."""
    variables = VARIABLES[:len(shape)]
    prefix = tuple(("forall" if q == "A" else "exists", v) for q, v in zip(shape, variables))
    v, w = rng.sample(variables, 2)
    cond = random_body(rng, 1, PROPS, (v,), allow_constants=False)
    parts = (cond, Not(rename_variables(cond, {v: w})))
    return QuantifiedFormula(prefix, rng.choice((And, Or))(parts))


def random_corpus(rng, count):
    """``count`` traces ``t0``, ``t1``, ...: random ones of 0..4 steps and
    empty ones; exact copies of earlier traces, renamed (repeats of
    violators among them); projected copies, which add ``z`` to every
    step; and planted violators, earlier traces with one proposition of
    the first step flipped."""
    traces = []
    for j in range(count):
        pick = rng.random()
        if not traces or pick < 0.4:
            steps = random_trace(rng, "", 4, PROPS).steps
        elif pick < 0.5:
            steps = ()
        else:
            steps = rng.choice(traces).steps
            if pick >= 0.85:
                steps = ((steps[0] if steps else frozenset()) ^ {rng.choice(PROPS)},) + steps[1:]
            elif pick >= 0.7:
                steps = tuple(step | {"z"} for step in steps)
        traces.append(Trace(steps, f"t{j}"))
    return traces


def _traces(*rows):
    return [Trace.of(steps, f"t{j}") for j, steps in enumerate(rows)]


# corner cases that random specs meet too rarely
FIXED_CASES = (
    # under G (a@p -> b@q), t1 violates with t0 outside the first family;
    # its repeat t3 violates with t2, stored since, in the first
    ("forall p. forall q. G (a@p -> b@q)",
     _traces([set(), {"b"}], [{"a"}, set()], [{"b"}, {"a", "b"}], [{"a"}, set()])),
    # transitive: one comparison per fresh trace
    ("forall p. forall q. G ((a@p <-> a@q) & (b@p <-> b@q))",
     _traces([{"a"}], [{"a"}, set()], [{"a"}], [{"b"}], [{"a"}, {"b"}], [{"b"}])),
    ("forall p. forall q. (a@p <-> a@q) & X (b@p <-> b@q)",
     _traces([{"a"}, {"b"}], [{"a"}, {"b"}, {"a"}], [set(), {"b"}], [{"a"}, set()])),
    # rows catch up on several traces at once: at t2 the root stops at
    # p = t0, and t2 refutes the row of p = t1 that t3 reads next
    ("forall p. exists q. forall r. (a@p <-> a@q) & (z@r -> w@q)",
     _traces([{"a"}], [set()], [{"z", "a"}], [{"a", "w"}])),
)


def cases():
    """``(shape, spec, traces)`` of every harness case, seeded."""
    rng = random.Random(SEED)
    for text in CLOSED_BODIES:
        yield "", parse_formula(text), random_corpus(rng, 4)
    for shape in SHAPES[1:]:
        specs, count = SIZES[len(shape)]
        for _ in range(specs):
            yield shape, random_spec(rng, shape), random_corpus(rng, count)
    for shape in SHAPES:
        if len(shape) > 1:
            for _ in range(JOINED):
                yield shape, joined_spec(rng, shape), random_corpus(rng, SIZES[len(shape)][1])
    for text, traces in FIXED_CASES:
        qf = parse_formula(text)
        yield classify_prefix(qf).shape, qf, traces


# -- the reference ----------------------------------------------------------

class Reference:
    """The paper's semantics on one spec and corpus, after every trace j.
    Universal prefixes: ``final[j]``, some tuple over traces 0..j is
    rejected (a violation stays final); ``own[j]``, trace j forms one with
    the earlier traces that formed none.  A reported tuple falsifies the
    body, at ``template.rejecting_position`` over a fresh template.  Other
    prefixes: ``eval_quantified`` over traces 0..j, naming under ∀∃ the
    first trace with no witness."""

    def __init__(self, qf, traces):
        self.qf, self.by_name = qf, {t.name: t for t in traces}
        self.universal = classify_prefix(qf).is_universal
        self.fresh = template.build_template(desugar(qf.body), qf.variables).automaton
        self.positions = {}
        if not self.universal:
            self.verdicts = [self._verdict(traces[:j + 1]) for j in range(len(traces))]
            return
        kept, self.own = [], []
        for t in traces:
            # an empty prefix holds no trace in a tuple
            self.own.append(bool(qf.prefix) and not eval_quantified(kept + [t], qf))
            if not self.own[-1]:
                kept.append(t)
        initial = not qf.prefix and not eval_quantified([], qf)
        self.final = list(itertools.accumulate(self.own, operator.or_, initial=initial))[1:]

    def _verdict(self, traces):
        qf = self.qf
        if eval_quantified(traces, qf):
            return engine.CLEAN
        if classify_prefix(qf).kind == "forall_exists":
            (_, univ), (_, exis) = qf.prefix
            for t in traces:
                if not any(eval_body({univ: t, exis: s}, qf.body) for s in traces):
                    return engine.Verdict(engine.CounterExample(((univ, t.name),), None))
        return engine.Verdict(engine.CounterExample((), None))

    def position(self, assignment):
        if assignment not in self.positions:
            bound = {var: self.by_name[name] for var, name in assignment}
            assert not eval_body(bound, self.qf.body), assignment
            letters = list(template.joint_word(
                template.trace_masks(self.fresh, var, trace) for var, trace in bound.items()
            ))
            self.positions[assignment] = template.rejecting_position(self.fresh, letters)
        return self.positions[assignment]

    def check(self, got, where):
        """Assert that the :class:`Run` ``got`` says what the reference does."""
        continuing = got.session.options.continue_after_violation
        for j, (assignment, position, _, violated) in enumerate(got.outputs):
            if not self.universal:
                ce = self.verdicts[j].counterexample
                assert (assignment, position) == (ce and ce.assignment, None), (where, j)
                assert violated == self.verdicts[j].is_violation, (where, j)
                continue
            assert violated == self.final[j], (where, j)
            assert (assignment is not None) == (self.own[j] if continuing else violated), (where, j)
            if assignment is not None:
                assert position == self.position(assignment), (where, j)
            if violated and not continuing:
                # the first violation is final: every later trace returns it
                first = got.outputs[self.final.index(True)]
                assert (assignment, position) == first[:2], (where, j)


def expand_families(families, pool):
    """The tuples of ``tuples_with_last`` families, in order."""
    for fixed, slot, start in families:
        if slot is None:
            yield fixed
            continue
        for member in pool[start:-1]:
            yield fixed[:slot] + (member,) + fixed[slot + 1:]


def tuple_reference(session):
    """Replace ``session``'s tuple loop by the reference one: expand every
    family, in order, and judge each tuple with ``eval_body``."""

    def run_tuples(fresh, masks_of):
        stored = session.store.traces[:1] if session.transitive else session.store.traces
        families = engine.tuples_with_last(
            stored, fresh, session.qclass.n, session.reflexive, session.symmetric
        )
        for tup in expand_families(families, stored + [fresh]):
            session.stats.instances_run += 1
            if not eval_body(dict(zip(session.variables, tup)), session.qf.body):
                return tup
        return None

    session._run_tuples = run_tuples


# -- forced-off twins -------------------------------------------------------

class _Misses(dict):
    """A violator table whose lookups always miss: every trace runs the
    whole tuple loop, as without the table."""

    def get(self, key, default=None):
        return default


def _step_every_child(m, session, traces):
    m.setattr(template.TemplateAutomaton, "live", lambda auto, *args: None)
    return traces


def _table_misses(m, session, traces):
    session._violators = _Misses()
    return traces


def _no_wide_node(m, session, traces):
    m.setattr(prefix_tree, "WIDE", len(traces))
    return traces


def _unshared_steps(m, session, traces):
    # runs read their traces through traceio, where equal steps are one
    # object; here each step is its own
    return [Trace.of([set(step) for step in t.steps], t.name) for t in traces]


# name -> patch(monkeypatch, session, traces), which returns the traces to feed
TWINS = {
    "live sets": _step_every_child,
    "violator table": _table_misses,
    "wide nodes": _no_wide_node,
    "shared steps": _unshared_steps,
}
# a twin of a shortcut that skips walks outright: its walk for a repeat can
# enter a subtree grown since the first walk and register one more residual
# (a ∀∀ case of an earlier seed set did), so the run's residuals need only
# be among the twin's
SKIPS_WALKS = {"violator table"}


# -- runs -------------------------------------------------------------------

class Run:
    """One session over a corpus: per trace processed, ``(assignment,
    rejecting position, instances_run, session verdict is a violation)``;
    the processed traces that violated; whether a ``ResourceLimitError``
    stopped it."""

    def __init__(self, session, outputs=(), violations=0, tripped=False):
        self.session, self.outputs = session, list(outputs)
        self.violations, self.tripped = violations, tripped
        self.store = session.store.names() if session else []
        self.dropped = list(session.store.dropped) if session else []
        self.residuals = list(session.template.automaton.formulas) if session else []

    def key(self):
        return self.outputs, self.store, self.dropped, self.residuals


def run(qf, options, traces, twin=None, reference=False, seen=None):
    """Feed ``traces`` to a fresh session, checking after each one that its
    tables keep within ``engine.TABLE_SIZE``; ``twin`` names a :data:`TWINS`
    entry to force off, ``reference`` runs :func:`tuple_reference`, and
    ``seen``, a Counter, counts how the violator table answered."""
    seen = Counter() if seen is None else seen
    with pytest.MonkeyPatch.context() as patched:
        try:
            session = Session(qf, options)
        except ResourceLimitError:
            return Run(None, tripped=True)
        if twin is not None:
            traces = TWINS[twin](patched, session, traces)
        if reference:
            tuple_reference(session)
        table, props = session._violators, session.propositions
        written, wrote, outputs, violations = {}, {}, [], 0
        for t in traces:
            key = tuple(step & props for step in t.steps)
            before, size, processed = table.get(key), len(session.store), session.stats.traces_seen
            try:
                ce = session.process_trace(t).counterexample
                position = ce and ce.rejecting_position
            except ResourceLimitError:
                return Run(session, outputs, violations, tripped=True)
            outputs.append((ce and ce.assignment, position,
                            session.stats.instances_run, session.verdict().is_violation))
            tables = [table, session._projection, *session._mask_tables.values()]
            assert all(len(table) <= engine.TABLE_SIZE for table in tables), t.name
            violations += ce is not None and session.stats.traces_seen > processed
            after = table.get(key)
            if before is not None:
                seen["table answered a repeat", session.qclass.n] += 1
                seen["table answered after the store grew"] += size > written[key]
            elif wrote.get(key) is False:
                # it violated outside the first family before; a trace stored
                # since makes it violate in the first
                seen["table entry overtaken"] += after is not None
            if after != before:
                written[key] = size
            if ce is not None:
                wrote[key] = after is not None
        return Run(session, outputs, violations)


def tries_hold_the_store(session) -> bool:
    """Each trie has exactly one leaf per stored trace, and the serials run
    in store order."""
    serials = [session._serials[name] for name in session.store.names()]
    return len(session._serials) == len(serials) and serials == sorted(serials) and all(
        sorted(trie_serials(tree.root)) == sorted(tree.leaves) == serials
        for tree in session._tries.values()
    )


def drops_are_copies(qf, traces, stored, dropped) -> bool:
    """Each dropped entry names a stored trace whose steps, projected on the
    spec's propositions, equal the dropped trace's."""
    props = {ref.proposition for ref in collect_alphabet(qf)}
    steps = {t.name: tuple(step & props for step in t.steps) for t in traces}
    return all(dom in stored and steps[name] == steps[dom] for name, dom in dropped)
