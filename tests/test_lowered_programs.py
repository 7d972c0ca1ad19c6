"""Lowering gate: every lowered program of the harness's draws, recorded.

The inputs are 400 draws of each kind per seed at seeds 0-4: rational
functions from ``draw_rat_fun`` and terms of the differentiable
language from ``draw_diff_expr``.  For each rational function the
outcome is a short digest of ``to_sexpr`` of its body, of the ``repr``
of ``compile_rat`` of the body, and of the ``repr`` of ``compile_rat``
of the body of its normal form ``norm_rat_fun``.  For each real term it
is the digest of the term, of ``compile_real`` of the term and of
``compile_real`` of its derivative ``diff``.  A program's repr shows
its registers and every ``(op, i, j)`` step, so equal digests mean the
same straight-line code, register for register.  Every outcome must be
the one recorded in tests/data/lowered_programs.json.

Regenerate the file (only when a program change is intended) with
    PYTHONPATH=src python tests/test_lowered_programs.py > tests/data/lowered_programs.json
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from microcas.differentiation import compile_real, diff
from microcas.harness import GenConfig, draw_diff_expr, draw_rat_fun
from microcas.printing import to_sexpr
from microcas.rational import compile_rat, norm_rat_fun

RECORDED = Path(__file__).parent / "data" / "lowered_programs.json"

SEEDS = range(5)
DRAWS = 400


def _digest(s: str) -> str:
    return hashlib.sha256(s.encode()).hexdigest()[:16]


def _rat_outcome(f) -> list[str]:
    return [_digest(to_sexpr(f.body)), _digest(repr(compile_rat(f.body))),
            _digest(repr(compile_rat(norm_rat_fun(f).body)))]


def _real_outcome(t) -> list[str]:
    return [_digest(to_sexpr(t)), _digest(repr(compile_real(t))), _digest(repr(compile_real(diff(t))))]


def inputs() -> dict[str, list]:
    out: dict[str, list] = {"rat": [], "real": []}
    for seed in SEEDS:
        cfg = GenConfig(seed=seed)
        rng = random.Random(f"lowered-programs/rat/{seed}")
        out["rat"] += [draw_rat_fun(rng, cfg) for _ in range(DRAWS)]
        rng = random.Random(f"lowered-programs/real/{seed}")
        out["real"] += [draw_diff_expr(rng, cfg) for _ in range(DRAWS)]
    return out


OUTCOME = {"rat": _rat_outcome, "real": _real_outcome}


def outcomes(terms: dict[str, list]) -> dict[str, list]:
    return {kind: [OUTCOME[kind](t) for t in ts] for kind, ts in terms.items()}


@pytest.fixture(scope="module")
def terms() -> dict[str, list]:
    return inputs()


@pytest.mark.parametrize("kind", ["rat", "real"])
def test_lowered_programs_match_recorded(terms, kind):
    recorded = json.loads(RECORDED.read_text())[kind]
    got = [OUTCOME[kind](t) for t in terms[kind]]
    assert [row[0] for row in got] == [row[0] for row in recorded], "the input builder changed"
    mismatches = [(i, want, have) for i, (want, have) in enumerate(zip(recorded, got)) if want != have]
    assert not mismatches, mismatches[:5]


def test_recorded_real_programs_have_only_finite_literals(terms):
    """A literal too large for a float lowers to an infinite register; the
    recorded draws have none, so the record holds for every program."""
    for t in terms["real"]:
        for prog in (compile_real(t), compile_real(diff(t))):
            assert all(map(math.isfinite, prog.init))


if __name__ == "__main__":
    recorded = outcomes(inputs())
    print("{")
    for n, kind in enumerate(("rat", "real")):
        rows = ",\n".join(json.dumps(row) for row in recorded[kind])
        print(f'"{kind}": [\n{rows}\n]' + ("," if n == 0 else ""))
    print("}")
