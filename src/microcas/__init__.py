"""An exact micro computer-algebra kernel that keeps syntax and
semantics apart.

Terms are inert trees; each algorithm (integer factoring, rational
normalization, function quasinormalization, symbolic differentiation)
maps trees to trees, and a separate evaluation layer relates trees to
the values they denote.  Every operation carries an executable
contract; the harness module runs them as property suites over seeded
random terms.

Importing the package loads every operator module, which fills the
typed-constant registry as a side effect; evaluate or parse nothing
before this module finishes importing.
"""

from . import terms  # noqa: F401
from . import factoring  # noqa: F401
from . import polynomials  # noqa: F401
from . import rational  # noqa: F401
from . import differentiation  # noqa: F401
from . import parser  # noqa: F401
from . import printing  # noqa: F401
from . import harness  # noqa: F401
from . import cli  # noqa: F401

from .terms import (
    App,
    Arrow,
    Const,
    IntLit,
    Lambda,
    Quote,
    RatLit,
    SynTerm,
    Var,
    eval_as,
    infer_type,
    quote,
)
from .polynomials import Poly
from .factoring import PrimeFactorization, factor, factor_int, remult
from .rational import (
    CanonicalFraction,
    compile_rat,
    frac_value,
    is_norm,
    is_quasinorm,
    is_rat_expr,
    is_rat_fun,
    norm_rat_expr,
    norm_rat_fun,
    quasinorm_rat_expr,
    singular_points,
)
from .differentiation import (
    compile_real,
    deriv_numeric,
    diff,
    domain_sample,
    eval_real,
    is_diff_expr,
    simplify,
)
from .parser import ParseError, PredicateViolation, parse
from .printing import format_term, to_infix, to_json, to_sexpr
from .harness import GenConfig, Report, check_all

__version__ = "0.1.0"

__all__ = [
    "App",
    "Arrow",
    "CanonicalFraction",
    "Const",
    "GenConfig",
    "IntLit",
    "Lambda",
    "ParseError",
    "Poly",
    "PredicateViolation",
    "PrimeFactorization",
    "Quote",
    "RatLit",
    "Report",
    "SynTerm",
    "Var",
    "check_all",
    "compile_rat",
    "compile_real",
    "deriv_numeric",
    "diff",
    "domain_sample",
    "eval_as",
    "eval_real",
    "factor",
    "factor_int",
    "format_term",
    "frac_value",
    "infer_type",
    "is_diff_expr",
    "is_norm",
    "is_quasinorm",
    "is_rat_expr",
    "is_rat_fun",
    "norm_rat_expr",
    "norm_rat_fun",
    "parse",
    "quasinorm_rat_expr",
    "quote",
    "remult",
    "simplify",
    "singular_points",
    "to_infix",
    "to_json",
    "to_sexpr",
    "__version__",
]
