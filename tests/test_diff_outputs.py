"""Differentiation gate: every input's derivative and simplified form, recorded.

The inputs are about two thousand harness draws of the differentiable
language (seeds 0-4, depths 6 and 7), the nested sin/exp ladder of the
benchmark's ``large`` workload, hand-picked powers, literals and
logarithms, and hand-built negations of negations that the simplifier
has to collapse.  For each input the outcome is a
short digest of ``to_sexpr`` and of ``to_json`` of the input, of
``diff(t)`` and of ``simplify(t)``, and each must be the one recorded in
tests/data/diff_outputs.json.
Simplification must also be idempotent on every input.

Regenerate the file (only when an output change is intended) with
    PYTHONPATH=src python tests/test_diff_outputs.py > tests/data/diff_outputs.json
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from microcas.differentiation import (
    X_R,
    diff,
    r_cos,
    r_lit,
    r_mul,
    r_neg,
    r_sin,
    r_sub,
    simplify,
)
from microcas.harness import GenConfig, draw_diff_expr
from microcas.parser import parse
from microcas.printing import to_json, to_sexpr

RECORDED = Path(__file__).parent / "data" / "diff_outputs.json"

SEEDS = range(5)
DEPTHS = (6, 7)
DRAWS = 200


def _nest(depth: int, inner: str) -> str:
    """sin(exp(sin(...(inner)...))) with ``depth`` function calls."""
    s = inner
    for i in range(depth):
        s = f"exp({s})" if i % 2 else f"sin({s})"
    return s


# Powers with the exponents the harness never draws, literal bases, and
# ln of exp(w) beside ln of terms that only simplify to an exp.
_HAND_PICKED = [
    "x^0", "x^1", "sin(x)^1", "(0 * x)^0", "x^(1/2)", "x^(-1/3)", "(x^2)^(3/2)", "0^2", "2^-2",
    "(-2)^3", "(1/2)^-1", "inv(0)", "inv(-2)", "inv(x^0)", "0 - 0", "x - x", "0 - x", "x * -1",
    "ln(exp(x))", "ln(1 * exp(x))", "ln(--exp(x))", "ln(exp(2))", "exp(ln(x))", "ln(exp(x^0))",
    "-(0)", "--(-x)", "tan(-x)", "cos(0 * x)", "1 * (0 + x)^1 - 0",
]


def _hand_built() -> list:
    minus_one = r_neg(r_lit(1))
    out = [parse(src, "diffexpr") for src in _HAND_PICKED]
    for u in (X_R, r_sin(X_R), r_mul(X_R, r_cos(X_R))):
        out += [
            r_mul(minus_one, r_neg(u)),
            r_mul(r_neg(u), minus_one),
            r_sub(r_lit(0), r_neg(u)),
            r_neg(r_mul(minus_one, r_neg(u))),
            r_mul(r_sub(r_lit(0), r_neg(u)), minus_one),
        ]
    return out


def inputs() -> list:
    terms = []
    for seed in SEEDS:
        for depth in DEPTHS:
            rng = random.Random(f"diff-outputs/{seed}/{depth}")
            cfg = GenConfig(seed=seed, max_depth=depth)
            terms += [draw_diff_expr(rng, cfg) for _ in range(DRAWS)]
    terms += [parse(_nest(d, f"x/{k}"), "diffexpr") for d in (25, 50) for k in range(2, 10)]
    return terms + _hand_built()


def _digest(s: str) -> str:
    return hashlib.sha256(s.encode()).hexdigest()[:16]


def outcome(t) -> list[str]:
    """The digests of the input, its derivative and its simplified form,
    in s-expression and then in JSON form ("None" for no derivative)."""
    terms = (t, diff(t), simplify(t))
    return ["None" if u is None else _digest(write(u)) for write in (to_sexpr, to_json) for u in terms]


@pytest.fixture(scope="module")
def terms() -> list:
    return inputs()


def test_diff_and_simplify_outputs_match_recorded(terms):
    recorded = json.loads(RECORDED.read_text())
    got = [outcome(t) for t in terms]
    assert [row[0] for row in got] == [row[0] for row in recorded], "the input builder changed"
    mismatches = [(i, want, have) for i, (want, have) in enumerate(zip(recorded, got)) if want != have]
    assert not mismatches, mismatches[:5]


def test_simplify_is_idempotent(terms):
    for t in terms:
        once = simplify(t)
        assert to_sexpr(simplify(once)) == to_sexpr(once)


if __name__ == "__main__":
    print(json.dumps([outcome(t) for t in inputs()], indent=0))
