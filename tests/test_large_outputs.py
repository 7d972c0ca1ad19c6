"""Byte-identity gate for large normalization inputs.

The contract-suite gates draw small terms; these inputs reach the
degrees, term counts, linear-factor counts and coefficient sizes where
the polynomial kernel does its real work.  Every printed output must be
byte for byte the one recorded in tests/data/large_outputs.json.

Regenerate the file (only when an output change is intended) with
    PYTHONPATH=src python tests/test_large_outputs.py > tests/data/large_outputs.json
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from microcas.parser import parse
from microcas.printing import to_infix
from microcas.rational import norm_rat_expr, norm_rat_fun

RECORDED = Path(__file__).parent / "data" / "large_outputs.json"

# Root magnitudes p/q of the linear-factor functions, small first.
_MAGNITUDES = [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3), (4, 1), (1, 4), (4, 3),
               (3, 4), (5, 1), (1, 5), (5, 2), (2, 5), (5, 3), (3, 5), (5, 4), (4, 5), (6, 1)]

# The four largest 32-bit primes.
_PRIMES = (4294967291, 4294967279, 4294967231, 4294967197)


def _linear(r: Fraction) -> str:
    """'(q*x - p)' for the root p/q."""
    xs = "x" if r.denominator == 1 else f"{r.denominator}*x"
    p = r.numerator
    return f"({xs} - {p})" if p >= 0 else f"({xs} + {-p})"


def _plus(n: int) -> str:
    return f"+ {n}" if n >= 0 else f"- {-n}"


def norm_expr_inputs() -> list[str]:
    srcs = [f"(x {s} 1)^{k}" for k in (25, 50, 100, 200) for s in "+-"]
    terms = [f"{(37 * i) % 99 + 1}*x^{(5 * i) % 8 + 1}" for i in range(160)]
    srcs.append(" + ".join(terms) + " - 58")
    return srcs


def norm_fun_inputs() -> list[str]:
    srcs = []
    for k in (8, 12, 16, 20):
        roots = sorted(Fraction(p, q) * (-1) ** i for i, (p, q) in enumerate(_MAGNITUDES[:k]))
        den = " * ".join(_linear(r) for r in roots)
        srcs.append(f"fun x -> {_linear(roots[0])} / ({den})")
    # 1/((a x - b)(c x + d)) expanded: 64-bit leading and constant terms.
    a, b, c, d = _PRIMES
    A, B, C = a * c, a * d - b * c, -b * d
    srcs.append(f"fun x -> 1 / ({A}*x^2 {_plus(B)}*x {_plus(C)})")
    return srcs


def outputs() -> dict[str, dict[str, str]]:
    return {
        "norm-expr": {s: to_infix(norm_rat_expr(parse(s, "ratexpr"))) for s in norm_expr_inputs()},
        "norm-fun": {s: to_infix(norm_rat_fun(parse(s, "ratfun"))) for s in norm_fun_inputs()},
    }


@pytest.fixture(scope="module")
def recorded() -> dict[str, dict[str, str]]:
    return json.loads(RECORDED.read_text())


@pytest.mark.parametrize("src", norm_expr_inputs())
def test_norm_expr_output_matches_recorded(src, recorded):
    assert to_infix(norm_rat_expr(parse(src, "ratexpr"))) == recorded["norm-expr"][src]


@pytest.mark.parametrize("src", norm_fun_inputs())
def test_norm_fun_output_matches_recorded(src, recorded):
    assert to_infix(norm_rat_fun(parse(src, "ratfun"))) == recorded["norm-fun"][src]


if __name__ == "__main__":
    print(json.dumps(outputs(), indent=1))
