"""While-dt: a stagewise interpreter and hyperreal analyzer.

The language is a plain imperative While language extended with an
infinitesimal time step `dt`, an `infinity` constant, exact real
constants backed by oracle digit streams, and exact comparisons.  Running
a program at stage n interprets dt as 1/(n+1); the per-stage results are
classified as hyperreals and the per-stage resource consumption separates
good supertasks (bounded) from bad ones (divergent).
"""

from .errors import (
    BitfileRange,
    BoundExceeded,
    DivisionByZero,
    EvalError,
    InsufficientStages,
    MacroError,
    NotHypernatural,
    OracleQueryLimit,
    ParseError,
    RecursionNotSupported,
    UnboundVariable,
    UnknownMacro,
    UnknownOracle,
    UnresolvedComparison,
    WhdtError,
)
from .exactnum import (
    EQ,
    GT,
    LT,
    Affine,
    ExactReal,
    Interval,
    OracleReal,
    SymExpr,
    compare,
    digit_extract,
    exact,
    floor_value,
    oracle_const,
    refine,
)
from .hyperreal import (
    ConvergentNonconstant,
    EventuallyConstant,
    Irregular,
    NoStandardPart,
    PeriodicPattern,
    Unbounded,
    classify_value,
    standard_part,
    ultrafilter_report,
)
from .oracles import (
    LimitSpec,
    OracleSet,
    bitfile_set,
    builtin_set,
    cantor_pair,
    cantor_unpair,
    encode_set,
    finite_set,
    graph_oracle,
    macro_callable,
    run_limit,
)
from .report import Report, verdict_descriptor
from .resources import (
    BounceSummary,
    CostModel,
    Meter,
    ResourceLedger,
    SupertaskClass,
    SupertaskVerdicts,
    bounce_count,
    classify_supertask,
)
from .semantics import (
    DEFAULT_SCHEDULE,
    HaltStatus,
    StageContext,
    StageResult,
    StageSequence,
    eval_stage,
    eval_stages,
    expand_macros,
)
from .syntax import Diagnostic, Program, check, parse, parse_module, pretty_print

__version__ = "0.1.0"
