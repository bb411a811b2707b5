"""Runtime monitoring of multi-trace (hyper) properties over finite traces."""

from .automata import Dfa, is_empty, language_included, minimize, to_dot
from .circuits import (
    CircuitModel,
    CircuitTrace,
    independence_property,
    input_bits,
    output_bits,
    random_traces,
    simulate,
    step,
)
from .engine import (
    CLEAN,
    CounterExample,
    MonitorOptions,
    MonitorStats,
    Session,
    Verdict,
    new_session,
    process_trace,
    stats,
)
from .errors import (
    CircuitInputError,
    DuplicateBinderError,
    FormulaSyntaxError,
    FragmentError,
    MonitorError,
    ResourceLimitError,
    SupportMismatchError,
    TraceFormatError,
    UnboundVariableError,
    UncoveredVariableError,
)
from .formula import (
    AtomRef,
    Formula,
    QuantifiedFormula,
    QuantifierClass,
    classify_prefix,
    collect_alphabet,
    desugar,
    pretty,
    pretty_quantified,
    rename_variables,
    simplify,
)
from .parser import parse_formula
from .semantics import (
    Trace,
    eps_eval,
    eval_body,
    eval_quantified,
    shift_assignment,
    subsequence,
)
from .spec_analysis import (
    SpecAnalysisResult,
    analyze,
    check_reflexivity,
    check_symmetry,
    check_transitivity,
)
from .template import MonitorTemplate, build_template, materialize
from .trace_analysis import (
    DominanceChecker,
    TraceStore,
    dominates,
    minimize_store,
)

__version__ = "0.1.0"
