"""Pointwise-audit gate: the diff suite's numeric reports, recorded.

The inputs are the diff suite's own draws: 200 per seed at seeds 0-4,
and 100 per seed at 1065816727, 2043115, 720394258 and 420123456, the
seeds whose suite fails one ``pointwise-agreement`` case on a right
derivative (ROADMAP item 1).  For each draw the outcome is

- the digest of ``to_sexpr(t)``, so a change to the draws shows as such;
- ``check_spec_diff(t, harness._DIFF_GRID)``'s ``checked`` and
  ``skipped`` counts;
- each violation's point, expected and got value as ``float.hex()``
  (got is None where the derivative is undefined);
- the statuses of ``domain_sample(t, -2, 2, 41)``, one character a
  point: ``d`` defined, ``u`` undefined.

Every outcome must be the one recorded in
tests/data/diff_audit_reports.json, bit for bit.  The record pins the
one false counterexample of each of the last four seeds, with its
witness; it does not bless it, and is re-recorded when the diff
contract's oracle changes.

Regenerate the file (only when an output change is intended) with
    PYTHONPATH=src python tests/test_diff_audit_reports.py > tests/data/diff_audit_reports.json
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from microcas import harness
from microcas.differentiation import check_spec_diff, domain_sample
from microcas.harness import GenConfig, draw_diff_expr
from microcas.printing import to_sexpr

RECORDED = Path(__file__).parent / "data" / "diff_audit_reports.json"

SEEDS = [(seed, 200) for seed in range(5)] + [
    (1065816727, 100), (2043115, 100), (720394258, 100), (420123456, 100),
]


def inputs() -> list:
    """Each seed's draws, in the order the diff suite draws them."""
    out = []
    for seed, draws in SEEDS:
        rng = random.Random(seed)
        cfg = GenConfig(seed=seed, cases=draws)
        out += [draw_diff_expr(rng, cfg) for _ in range(draws)]
    return out


def _hex(v) -> str | None:
    return None if v is None else float.hex(v)


def outcome(t) -> list:
    rep = check_spec_diff(t, harness._DIFF_GRID)
    violations = [[_hex(v.point), _hex(v.expected), _hex(v.got)] for v in rep.violations]
    domain = "".join("d" if e.defined else "u" for e in domain_sample(t, -2, 2, 41).entries)
    digest = hashlib.sha256(to_sexpr(t).encode()).hexdigest()[:16]
    return [digest, rep.checked, rep.skipped, violations, domain]


@pytest.fixture(scope="module")
def draws() -> list:
    return inputs()


def test_diff_audit_reports_match_recorded(draws):
    recorded = json.loads(RECORDED.read_text())
    got = [outcome(t) for t in draws]
    assert [row[0] for row in got] == [row[0] for row in recorded], "the draws changed"
    mismatches = [(i, want, have) for i, (want, have) in enumerate(zip(recorded, got)) if want != have]
    assert not mismatches, mismatches[:5]


if __name__ == "__main__":
    print(json.dumps([outcome(t) for t in inputs()], indent=0))
