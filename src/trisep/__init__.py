"""trisep: contradiction-separation deduction over propositional and
first-order clause sets.

The construction engine builds multi-clause contradictions column by column
around a main boundary line and separates the leftover literals into a new
clause; a deliberately naive brute-force oracle certifies every derived
contradiction, model, and trace independently.
"""

__version__ = "0.1.0"

from .logic import (
    Clause,
    ClauseSet,
    Constant,
    FIRST_ORDER,
    Function,
    Literal,
    PROPOSITIONAL,
    Variable,
    clause_set,
    complement,
    is_tautology,
    merge_duplicate_literals,
    neg,
    pos,
)
from .unify import Substitution, apply, compose, mgu, rename_apart, rename_clause
from .oracle import (
    Column,
    ProofTrace,
    RoundRecord,
    is_standard_contradiction,
    is_unsatisfiable_bruteforce,
    propositional_shadow,
    shadow_contradiction_check,
    standard_contradiction_counterexample,
    VerificationResult,
    verify_model,
    verify_trace,
)
from .triangle import (
    Triangle,
    close,
    extend,
    normalize_stairs,
    prune_redundant_columns,
    start,
)
from .fol import (
    greedy_pull,
    preprocess,
    redundancy_guard,
)
from .engine import (
    EngineConfig,
    LinearDeduction,
    Outcome,
    linear_resolvent,
    linear_to_etc,
    prove,
    should_stop,
)
from .dimacs import parse_dimacs, render_dimacs
from .problems import ProblemSource, load_problem, load_problem_file
from .tptp import parse_tptp_cnf, render_tptp
from .render import parse_trace_document, render_trace

__all__ = [
    "Clause", "ClauseSet", "Column", "Constant", "EngineConfig",
    "FIRST_ORDER", "Function", "LinearDeduction", "Literal", "Outcome",
    "PROPOSITIONAL", "ProofTrace", "RoundRecord", "Substitution", "Triangle",
    "VerificationResult", "Variable", "apply", "clause_set", "close",
    "complement", "compose", "extend", "greedy_pull",
    "is_standard_contradiction", "is_tautology",
    "is_unsatisfiable_bruteforce", "linear_resolvent", "linear_to_etc",
    "merge_duplicate_literals", "mgu", "neg", "normalize_stairs",
    "ProblemSource", "load_problem", "load_problem_file",
    "parse_dimacs", "parse_tptp_cnf", "parse_trace_document", "pos",
    "preprocess", "propositional_shadow", "prove", "prune_redundant_columns",
    "redundancy_guard", "rename_apart", "rename_clause", "render_dimacs",
    "render_tptp", "render_trace",
    "shadow_contradiction_check", "should_stop", "standard_contradiction_counterexample",
    "start", "verify_model", "verify_trace",
]
