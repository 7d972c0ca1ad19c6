"""The generator-backed contract checker: deterministic generation,
branch-tallied reports, and green runs for every registered check.
"""

from __future__ import annotations

import ast
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from microcas import harness
from microcas.cli import main
from microcas.harness import (
    CHECKS,
    BranchTally,
    GenConfig,
    _run,
    check_all,
    draw_diff_expr,
    draw_non_member,
    draw_numeral,
    draw_rat_expr,
    draw_rat_fun,
)
from microcas.differentiation import X_R, is_diff_expr, r_add, r_lit, r_pow
from microcas.factoring import is_numeral
from microcas.printing import to_sexpr
from microcas.rational import (
    X_Q,
    eval_pointwise,
    is_rat_expr,
    is_rat_fun,
    norm_rat_fun,
    q_add,
    q_inv,
    q_lit,
    q_mul,
    q_sub,
    singular_points,
)
from microcas.terms import RAT, REAL, IntLit, IntV, Lambda


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(seed=-1)
    with pytest.raises(ValueError):
        GenConfig(seed=0, cases=0)
    with pytest.raises(ValueError):
        GenConfig(seed=0, max_depth=0)
    cfg = GenConfig(seed=3)
    assert cfg.cases == 500 and cfg.max_depth == 6 and harness.COEFF_BOUND == 12


def _draw(draw, seed):
    return draw(random.Random(seed), GenConfig(seed=seed))


def test_generators_are_seed_deterministic():
    a = _draw(draw_rat_expr, 42)
    assert a == _draw(draw_rat_expr, 42)
    assert a != _draw(draw_rat_expr, 43)  # astronomically unlikely to collide
    for draw in (draw_diff_expr, draw_numeral, draw_rat_fun):
        assert _draw(draw, 7) == _draw(draw, 7)


def test_generators_hit_their_languages():
    cfg = GenConfig(seed=13)
    rng = random.Random(13)
    for _ in range(100):
        assert is_rat_expr(draw_rat_expr(rng, cfg))
    assert is_numeral(_draw(draw_numeral, 13))
    f = _draw(draw_rat_fun, 13)
    assert isinstance(f, Lambda) and is_rat_fun(f)
    assert is_diff_expr(_draw(draw_diff_expr, 13))


def test_non_members_stay_outside():
    rng = random.Random(99)
    gates = {
        "numeral": is_numeral,
        "ratexpr": is_rat_expr,
        "ratfun": is_rat_fun,
        "diffexpr": is_diff_expr,
    }
    for target, gate in gates.items():
        for _ in range(60):
            assert not gate(draw_non_member(rng, target))


def _group(branch, *verdicts):
    """A group whose i-th case is the witness IntLit(i) and whose one
    law, for branch, returns the i-th verdict."""
    cases = iter([(IntLit(i), v) for i, v in enumerate(verdicts)])
    return len(verdicts), lambda rng: next(cases), ((branch, lambda t, verdict: verdict),)


def test_branch_tally_records_failures_and_first_witness(monkeypatch):
    printed = []

    def counting(t):
        printed.append(t)
        return to_sexpr(t)

    monkeypatch.setattr(harness, "to_sexpr", counting)
    report = _run(
        "demo", GenConfig(seed=0),
        _group("demo", True, (False, " #1"), False),
        _group("other", True),
        _group("demo", (True, " unused"), False),
    )
    assert report.branches == (BranchTally("demo", 5, 3, "(int 1) #1"), BranchTally("other", 1, 0, None))
    assert printed == [IntLit(1)]  # the witness is built once, at the branch's first failure


def test_runner_holds_each_case_to_its_laws_in_order():
    seen = []
    laws = (
        ("second", lambda t, k: seen.append(("second", k)) or True),
        ("first", lambda t, k: seen.append(("first", k)) or True),
    )
    report = _run("demo", GenConfig(seed=4), (2, lambda rng: (IntLit(0), rng.random()), laws))
    rng = random.Random(4)
    a, b = rng.random(), rng.random()
    assert seen == [("second", a), ("first", a), ("second", b), ("first", b)]
    assert [t.name for t in report.branches] == ["second", "first"]


def test_report_ok_requires_coverage_and_zero_failures():
    def run(*groups):
        return _run("demo", GenConfig(seed=0), _group("a", True), *groups)

    assert not run(_group("b")).ok  # an unexercised branch is not a pass
    assert run(_group("b", True)).ok
    assert not run(_group("b", False)).ok


def test_report_render_and_dict_shapes():
    cfg = GenConfig(seed=5, cases=40)
    rep = CHECKS["factor"](cfg)
    text = rep.render()
    assert text.splitlines()[0].startswith("factor: PASS")
    assert "(seed=5)" in text.splitlines()[0]
    assert all("checked" in ln for ln in text.splitlines()[1:])
    d = rep.to_dict()
    assert d["check"] == "factor"
    assert d["seed"] == 5
    assert d["ok"] is True
    assert {b["name"] for b in d["branches"]} == {
        "prime-decomposition-shape",
        "value-agreement",
        "undefined-off-language",
    }


def test_failing_report_renders_counterexample():
    out = _run("demo", GenConfig(seed=1), _group("law", (False, " #0"))).render()
    assert out == (
        "demo: FAIL  (seed=1)\n"
        "  law                          1 checked, 1 failed\n"
        "    first counterexample: (int 0) #0"
    )


def test_runner_fails_a_branch_no_case_reaches():
    report = _run("demo", GenConfig(seed=0), _group("reached", True), _group("unreached"))
    assert [(b.name, b.cases) for b in report.branches] == [("reached", 1), ("unreached", 0)]
    assert not report.ok


# Rigged algorithms force each witness shape; the recorded reports under
# tests/data all pass, so these are the only gates on the strings.
_RIGGED = GenConfig(seed=2, cases=2, max_depth=2)


def _rig(monkeypatch, module, name, wrong):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: wrong(real, *args))


def _witnesses(check):
    return {b.name: b.first_counterexample for b in CHECKS[check](_RIGGED).branches}


def test_witness_is_the_input_sexpr(monkeypatch):
    from microcas import factoring

    _rig(monkeypatch, factoring, "factor", lambda real, t: None)
    assert _witnesses("factor") == {
        "prime-decomposition-shape": "(int 993869)",
        "value-agreement": "(int 993869)",
        "undefined-off-language": None,
    }
    monkeypatch.undo()
    _rig(monkeypatch, factoring, "factor", lambda real, t: real(IntLit(6)))
    assert _witnesses("factor")["undefined-off-language"] == "(var x real)"


def test_norm_fun_witness_names_the_point(monkeypatch):
    from microcas import rational

    f = "(lam x rat (app (app (const * (rat -> (rat -> rat))) (var x rat)) (var x rat)))"
    shifted = lambda real, t: real(t) and Lambda("x", RAT, q_add(real(t).body, q_lit(1)))  # noqa: E731
    _rig(monkeypatch, rational, "norm_rat_fun", shifted)
    assert _witnesses("norm-fun")["pointwise-quasi-equality"] == f"{f} at x = -31"
    # An output that is no rational function has no point to name.
    monkeypatch.undo()
    _rig(monkeypatch, rational, "norm_rat_fun", lambda real, t: real(t) and Lambda("x", REAL, X_R))
    assert _witnesses("norm-fun") == {
        "output-is-function": f,
        "body-quasinormal": f,
        "pointwise-quasi-equality": f,
        "undefined-off-language": None,
    }


def _undefined_at_small_integers(real, t):
    """norm_rat_fun's output times 1 + 0/p, p = (x + 6)(x + 5)...(x - 6):
    the body is also undefined at the integers -6..6."""
    g = real(t)
    p = q_lit(1)
    for r in range(-6, 7):
        p = q_mul(p, q_sub(X_Q, q_lit(r)) if r >= 0 else q_add(X_Q, q_lit(-r)))
    return g and Lambda("x", RAT, q_mul(g.body, q_add(q_lit(1), q_mul(q_lit(0), q_inv(p)))))


def test_norm_fun_witness_is_the_smallest_failing_point(monkeypatch):
    # Replay the suite's draws and compare at every point by Fraction:
    # the first case with a failing point has several, and passes at
    # its smallest point, so the witness must be chosen among failures.
    from microcas import rational

    first = None
    rng = random.Random(_RIGGED.seed)
    for _ in range(_RIGGED.cases):
        f = draw_rat_fun(rng, _RIGGED)
        g = _undefined_at_small_integers(norm_rat_fun, f)
        points = set(singular_points(f.body))
        points |= {Fraction(rng.randint(-60, 60), rng.randint(1, 6)) for _ in range(50)}
        values = {a: eval_pointwise(f.body, a) != eval_pointwise(g.body, a) for a in points}
        failing = sorted(a for a, differ in values.items() if differ)
        if failing and first is None:
            first = f, failing, min(points)
    f, failing, smallest = first
    assert len(failing) >= 2 and failing[0] != smallest
    _rig(monkeypatch, rational, "norm_rat_fun", _undefined_at_small_integers)
    witness = _witnesses("norm-fun")["pointwise-quasi-equality"]
    assert witness == f"{to_sexpr(f)} at x = {failing[0]}"
    assert witness.endswith(" at x = -5")


@pytest.mark.parametrize("seed, failures, point", [(0, 3, "-3"), (1, 2, "0"), (2, 7, "-1")])
def test_norm_fun_fails_a_normalizer_that_drops_singularities(monkeypatch, seed, failures, point):
    # Full normalization in place of quasinormalization gives quasinormal
    # bodies that are defined where the input is not: those rows are
    # undefined on one side only, which cross-multiplying a denominator
    # of 0 alone would pass.
    from microcas import rational

    full = lambda real, t: real(t) and Lambda("x", RAT, rational.norm_rat_expr(t.body))  # noqa: E731
    _rig(monkeypatch, rational, "norm_rat_fun", full)
    branches = {b.name: b for b in CHECKS["norm-fun"](GenConfig(seed=seed, cases=40)).branches}
    assert branches["body-quasinormal"].failures == 0
    pointwise = branches["pointwise-quasi-equality"]
    assert pointwise.failures == failures
    assert pointwise.first_counterexample.endswith(f" at x = {point}")


def test_norm_fun_lowers_and_runs_each_body_once(monkeypatch):
    # Per function case: one compile_rat per body and one column run per
    # program, and no one-point call.
    from microcas import rational

    compiled, ran, called = [], [], []
    real_compile, real_run, real_call = rational.compile_rat, rational.RatProgram.run, rational.RatProgram.__call__

    def compile_counting(t):
        compiled.append(real_compile(t))
        return compiled[-1]

    def run_counting(prog, nums, dens):
        ran.append(prog)
        return real_run(prog, nums, dens)

    def call_counting(prog, a):
        called.append(prog)
        return real_call(prog, a)

    monkeypatch.setattr(rational, "compile_rat", compile_counting)
    monkeypatch.setattr(rational.RatProgram, "run", run_counting)
    monkeypatch.setattr(rational.RatProgram, "__call__", call_counting)
    assert CHECKS["norm-fun"](GenConfig(seed=3, cases=50)).ok
    assert len(compiled) == 100 and called == []
    assert sorted(map(id, ran)) == sorted(map(id, compiled))


def test_diff_witness_names_the_point(monkeypatch):
    from microcas import differentiation

    _rig(monkeypatch, differentiation, "diff", lambda real, t: real(t) and r_add(real(t), r_lit(1)))
    assert _witnesses("diff") == {
        "derivative-in-language": None,
        "pointwise-agreement": "(app (const exp (real -> real)) (var x real)) at x = -2.5",
        "undefined-off-language": None,
    }


def test_a_derivative_outside_the_language_fails_the_diff_suite(monkeypatch, capsys):
    # A mutant diff whose derivative has no value anywhere: the suite
    # reports it, and the CLI exits 4, not with a traceback.
    from microcas import differentiation

    monkeypatch.setattr(differentiation, "diff", lambda t: r_pow(X_R, X_R))
    report = CHECKS["diff"](GenConfig(seed=0, cases=5))
    failed = {b.name for b in report.branches if b.failures}
    assert {"derivative-in-language", "pointwise-agreement"} <= failed
    assert main(["check", "diff", "--cases", "5"]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_type_mismatch_witness_names_the_type(monkeypatch):
    from microcas import harness

    _rig(monkeypatch, harness, "eval_as", lambda real, q, ty: real(q, ty) or IntV(0))
    assert _witnesses("disquote")["type-mismatch-undefined"] == "(int 646285) read at rat"


def test_registered_checks_cover_all_contracts():
    assert set(CHECKS) == {"factor", "norm-expr", "norm-fun", "diff", "disquote"}


def test_readme_and_harness_write_each_branch_name_once():
    """README's suite bullets name each suite's branches in report
    order, harness.py writes each branch name once, as the string of its
    law row, and harness.py stays under the 649-line ceiling that the
    contract suites still to come must fit in."""
    reports = dict(zip(CHECKS, check_all(GenConfig(seed=0, cases=1))))
    root = Path(__file__).resolve().parent.parent
    section = (root / "README.md").read_text().split("## Contracts and the harness\n")[1].split("\n## ")[0]
    bullets = {
        m[1]: re.findall(r"`([a-z]+(?:-[a-z]+)+)`", m[2])
        for m in re.finditer(r"^\* `([a-z-]+)`:(.*?)(?=^\* |^$)", section, re.M | re.S)
    }
    assert bullets == {name: [b.name for b in r.branches] for name, r in reports.items()}
    source = Path(harness.__file__).read_text()
    strings = Counter(
        n.value for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Constant) and isinstance(n.value, str)
    )
    names = {b.name for r in reports.values() for b in r.branches}
    assert {name: strings[name] for name in names} == dict.fromkeys(names, 1)
    assert len(source.splitlines()) < 649


def test_all_checks_pass_at_small_size():
    reports = check_all(GenConfig(seed=0, cases=60))
    assert [r.check for r in reports] == [
        "factor",
        "norm-rat-expr",
        "norm-rat-fun",
        "diff",
        "disquotation",
    ]
    for r in reports:
        assert r.ok, r.render()
        for b in r.branches:
            assert b.cases > 0


def test_diff_suite_differentiates_each_term_once(monkeypatch):
    from microcas import differentiation

    calls = []
    real_diff = differentiation.diff

    def counting(t):
        calls.append(t)
        return real_diff(t)

    monkeypatch.setattr(differentiation, "diff", counting)
    assert CHECKS["diff"](GenConfig(seed=3, cases=50)).ok
    # 50 drawn terms plus 20 off-language draws.
    assert len(calls) == 70


def test_checks_are_reproducible():
    cfg = GenConfig(seed=2024, cases=30)
    first = [r.to_dict() for r in check_all(cfg)]
    second = [r.to_dict() for r in check_all(cfg)]
    assert first == second


# The JSON cases keep their ids from before the text cases were added.
_RECORDED = [pytest.param(seed, ["--format", "json"], "json", id=str(seed)) for seed in range(5)] + [
    pytest.param(seed, [], "txt", id=f"text-{seed}") for seed in range(5)
]


@pytest.mark.parametrize("seed, fmt, suffix", _RECORDED)
def test_check_all_json_matches_recorded_output(seed, fmt, suffix, capsys):
    """A refactor keeps every contract verdict and counterexample: the
    report, as JSON and as the default text, is byte for byte the one
    recorded in tests/data."""
    assert main(["check", "all", *fmt, "--cases", "40", "--seed", str(seed)]) == 0
    recorded = Path(__file__).parent / "data" / f"check_all_seed{seed}_cases40.{suffix}"
    assert capsys.readouterr().out.encode() == recorded.read_bytes()
