"""Parse-outcome gate: every input's outcome in every language, recorded.

For about a thousand inputs per language the outcome of ``parse`` is
either the error, as its class and ``line:col: message`` text, or a
short digest of the tree's s-expression.  The inputs are built here
from a fixed seed: random token strings, printed harness draws of every
language, mutations and truncations of those, and hand-picked inputs
that reach every error the parser can raise.  Each outcome must be the
one recorded in tests/data/parse_outcomes.json.

Regenerate the file (only when an outcome change is intended) with
    PYTHONPATH=src python tests/test_parse_outcomes.py > tests/data/parse_outcomes.json
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from microcas.harness import GenConfig, draw_diff_expr, draw_int_expr, draw_rat_expr, draw_rat_fun
from microcas.parser import LANGS, ParseError, parse
from microcas.printing import to_infix, to_sexpr

RECORDED = Path(__file__).parent / "data" / "parse_outcomes.json"

_DRAWS = {"int": draw_int_expr, "ratexpr": draw_rat_expr, "ratfun": draw_rat_fun, "diffexpr": draw_diff_expr}

_TOKENS = (
    "x", "x", "1", "2", "0", "12", "1.5", "3/2", "+", "-", "-", "*", "/", "^", "^",
    "(", "(", ")", ")", "sin(", "inv(", "exp(", "ln(", "cos(", "tan(", "foo(", "y",
    "fun", "->", "fun x ->", ",", "\n",
)

# One or more inputs for each error the parser raises, and the sugar
# around them.
_HAND_PICKED = [
    "x + $", "1 # 2", "x +\n  $", "(x + 1", "sin(x", "sin x", "x )", "x x", "1 1", "1 / 2 3",
    "x^(1/2)", "x^(-3/2)", "x^(1/x)", "x^(1/1.5)", "x^(1/0)", "x^(1", "x^1.5", "x^x", "x^",
    "x^--2", "x^-2", "x^2^3", "-x^2", "x^0", "+", ")", "x + *", "", "foo(x)", "fun(x)", "sin(x)",
    "inv(x)", "inv(0)", "sin(1)", "1.5", "3/2", "1/0", "0/0", "1 / 2", "6/4/3", "x", "-(-x)",
    "fun x -> x / x", "fun y -> y", "fun x x", "fun x -> ", "fun", "fun x", "x -> 1",
    "fun x -> sin(x)", "1 - 2 - 3", "2^3^", "((x))", "(x)(x)", "x - -1", "2 * -x", "1 -> 2",
]


def _tokens(rng: random.Random, head: str) -> str:
    sep = rng.choice((" ", ""))
    body = sep.join(rng.choice(_TOKENS) for _ in range(rng.randint(1, 12)))
    return head + body if rng.random() < 0.75 else body


def _mutate(rng: random.Random, s: str) -> str:
    i = rng.randrange(len(s) + 1)
    roll = rng.random()
    if roll < 0.4:
        return s[:i] + s[i + 1:]
    if roll < 0.8:
        return s[:i] + rng.choice(_TOKENS) + s[i:]
    j = rng.randrange(len(s) + 1)
    return s[:min(i, j)] + s[max(i, j):]


def inputs(lang: str) -> list[str]:
    rng = random.Random(f"parse-outcomes/{lang}")
    cfg = GenConfig(seed=0, max_depth=5)
    own = [to_infix(_DRAWS[lang](rng, cfg)) for _ in range(150)]
    foreign = [to_infix(_DRAWS[other](rng, cfg)) for other in LANGS if other != lang for _ in range(50)]
    if lang == "ratfun":
        foreign = ["fun x -> " + s for s in foreign]
    srcs = list(_HAND_PICKED)
    srcs += [_tokens(rng, "fun x -> " if lang == "ratfun" else "") for _ in range(350)]
    srcs += own + foreign
    srcs += [_mutate(rng, s) for s in own]
    srcs += [s[:rng.randrange(len(s) + 1)] for s in own]
    return srcs


def outcome(src: str, lang: str) -> str:
    try:
        t = parse(src, lang)
    except ParseError as e:
        return f"{type(e).__name__}: {e}"
    return "ok " + hashlib.sha256(to_sexpr(t).encode()).hexdigest()[:16]


def outcomes(lang: str) -> list[list[str]]:
    return [[src, outcome(src, lang)] for src in inputs(lang)]


@pytest.fixture(scope="module")
def recorded() -> dict[str, list[list[str]]]:
    return json.loads(RECORDED.read_text())


@pytest.mark.parametrize("lang", LANGS)
def test_parse_outcomes_match_recorded(lang, recorded):
    got = outcomes(lang)
    assert [src for src, _ in got] == [src for src, _ in recorded[lang]], "the input builder changed"
    mismatches = [(s, want, have) for (s, want), (_, have) in zip(recorded[lang], got) if want != have]
    assert not mismatches, mismatches[:5]


if __name__ == "__main__":
    print(json.dumps({lang: outcomes(lang) for lang in LANGS}, indent=0))
