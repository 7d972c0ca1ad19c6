"""An exact micro computer-algebra kernel that keeps syntax and
semantics apart.

Terms are inert trees; each algorithm (integer factoring, rational
normalization, function quasinormalization, symbolic differentiation)
maps trees to trees, and a separate evaluation layer relates trees to
the values they denote.  Every operation carries an executable
contract; the harness module runs them as property suites over seeded
random terms.

Importing the package loads no submodule.  A public name, or a
submodule, is loaded from the module that defines it when it is first
reached (PEP 562).  The package keeps a name it has looked up when
the value is that module's own definition (its ``__module__`` names
the module).  A replacement bound in the module at run time, such as a
tracer's wrapper, is not kept but read through the module on every
access, so it does not outlive its removal.  The signature of every language lives in ``terms``, so any
term can be built, typed and printed without its algorithms; ``parse``
loads a language's own module the first time it reads that language,
and ``eval_as`` the module that registers a type's evaluator the first
time a term is read at that type.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_OWNERS = {
    "terms": ("App", "Arrow", "Const", "IntLit", "Lambda", "Quote", "RatLit", "RealLit", "SynTerm", "Var",
              "eval_as", "infer_type", "quote"),
    "polynomials": ("Poly",),
    "factoring": ("PrimeFactorization", "factor", "factor_int", "remult"),
    "rational": ("CanonicalFraction", "compile_rat", "frac_value", "is_norm", "is_quasinorm",
                 "is_rat_expr", "is_rat_fun", "norm_rat_expr", "norm_rat_fun", "quasinorm_rat_expr",
                 "singular_points"),
    "differentiation": ("compile_real", "deriv_numeric", "diff", "domain_sample", "eval_real",
                        "is_diff_expr", "simplify"),
    "parser": ("ParseError", "PredicateViolation", "parse"),
    "printing": ("format_term", "to_infix", "to_json", "to_sexpr"),
    "harness": ("GenConfig", "Report", "check_all"),
    "cli": (),
}
_OWNER = {name: f"{__name__}.{module}" for module, names in _OWNERS.items() for name in names}

__all__ = sorted(_OWNER) + ["__version__"]


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is not None:
        value = getattr(sys.modules.get(module) or import_module(module), name)
        if getattr(value, "__module__", None) == module:
            globals()[name] = value
        return value
    if name in _OWNERS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_OWNERS})
