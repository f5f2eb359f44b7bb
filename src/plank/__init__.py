"""plank: higher-order rewriting with sorts, syntactic variables, and
first-class environments.

The package is organized bottom-up: ``terms`` defines the AST and binding
utilities, ``parser`` converts text to and from the AST, ``env`` builds the
global sort environment and infers per-rule environments, ``checker``
implements the sorting discipline, ``rewrite`` implements matching,
contraction, and normalization, and ``cli`` wires everything into the
``plank`` command.
"""

from .checker import ScriptCheck, check_ground_subject, check_script
from .env import (
    ConSig,
    GlobalEnv,
    MetaForm,
    RuleEnv,
    build_global_env,
    infer_rule_env,
)
from .parser import ParseFailure, parse_script, parse_term, render
from .rewrite import (
    Abstraction,
    EngineError,
    NormalizeResult,
    NormalStatus,
    RewriteRule,
    RewriteStep,
    Valuation,
    contract,
    match_term,
    normalize,
    prepare_rules,
    rewrite_step,
    substitute,
)
from .terms import (
    AssocForm,
    AssocPiece,
    Association,
    CatchAll,
    Construction,
    DataDecl,
    Declaration,
    Diagnostic,
    Form,
    Ident,
    MapEntry,
    MetaApp,
    NotKey,
    Piece,
    RuleDecl,
    SchemeDecl,
    ScopeForm,
    ScopePiece,
    Script,
    Sort,
    SortCons,
    SortVar,
    Span,
    Term,
    Var,
    VariableDecl,
    alpha_equal,
    free_vars,
    fresh_var,
    non_assoc_vars,
)

__version__ = "0.1.0"
