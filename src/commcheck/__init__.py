"""Protocol checking for SPMD message-passing programs.

The pipeline: write a global communication protocol once, check it
well-formed under concrete parameters, project it onto each rank's
local view, then either verify a program's statements against those
views rank by rank or search every interleaving of the ensemble for
deadlocks under synchronous (unbuffered) semantics.
"""

from .checker import CheckReport, IllFormedProtocol, check_compliance, erase_to_trace
from .exprs import (
    Env,
    ExprError,
    Pos,
    check_refinement,
    eval_expr,
    eval_pred,
)
from .lexer import ParseError
from .parser import parse_local_term, parse_protocol
from .printer import format_atom, format_expr, format_kind, format_pred, format_protocol, format_term
from .program import Program, parse_program
from .projection import ProjectionResult, project, project_all
from .sim import (
    AllDone,
    Deadlock,
    DEFAULT_STATE_LIMIT,
    SimState,
    SimVerdict,
    StateSpaceExceeded,
    TapeExhausted,
    explore_all_tapes,
    format_trail,
    loop_tape,
    parse_trail,
    replay,
    simulate,
    trace_to_term,
)
from .terms import (
    Comm,
    DataKind,
    GlobalType,
    LocalType,
    Protocol,
    ReduceOp,
    TypeTerm,
    concat,
    ground_term,
    is_ground,
)
from .typestate import NotAPrefix, StepError, choice_branches, first, loop_body, next_type, step
from .wf import Diagnostic, WfReport, check_wf

__version__ = "0.1.0"

__all__ = [
    "AllDone",
    "CheckReport",
    "Comm",
    "DataKind",
    "Deadlock",
    "DEFAULT_STATE_LIMIT",
    "Diagnostic",
    "Env",
    "ExprError",
    "GlobalType",
    "IllFormedProtocol",
    "LocalType",
    "NotAPrefix",
    "ParseError",
    "Pos",
    "Program",
    "ProjectionResult",
    "Protocol",
    "ReduceOp",
    "SimState",
    "SimVerdict",
    "StateSpaceExceeded",
    "StepError",
    "TapeExhausted",
    "TypeTerm",
    "WfReport",
    "check_compliance",
    "check_refinement",
    "check_wf",
    "choice_branches",
    "concat",
    "erase_to_trace",
    "eval_expr",
    "eval_pred",
    "explore_all_tapes",
    "first",
    "format_atom",
    "format_expr",
    "format_kind",
    "format_pred",
    "format_protocol",
    "format_term",
    "format_trail",
    "ground_term",
    "is_ground",
    "loop_body",
    "loop_tape",
    "next_type",
    "parse_local_term",
    "parse_program",
    "parse_protocol",
    "parse_trail",
    "project",
    "project_all",
    "replay",
    "simulate",
    "step",
    "trace_to_term",
]
