"""Command-line front end: subcommands, output formats, and the exit
code contract (0 ok, 2 parse/usage error, 3 undefined result, 4 check
counterexample, 5 an integer past the int/str digit limit, a domain
grid past its cap, Python's recursion limit or memory running out).
"""

from __future__ import annotations

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from microcas import harness
from microcas.cli import build_parser, main
from microcas.harness import BranchTally, GenConfig, Report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor_infix_and_maple(capsys):
    code, out, _ = run(capsys, "factor", "12")
    assert code == 0
    assert out.strip() == "1 * (2^2 * 3^1)"
    code, out, _ = run(capsys, "factor", "12", "--maple")
    assert code == 0
    assert out.strip() == "[1, [[2, 2], [3, 1]]]"
    code, out, _ = run(capsys, "factor", "-360", "--maple")
    assert code == 0
    assert out.strip() == "[-1, [[2, 3], [3, 2], [5, 1]]]"


def test_factor_zero_has_no_maple_listing(capsys):
    code, out, _ = run(capsys, "factor", "0", "--maple")
    assert code == 3
    assert out.strip() == "undefined"
    code, out, _ = run(capsys, "factor", "0")
    assert code == 0
    assert out.strip() == "0"


def test_norm_expr_flagship_output(capsys):
    code, out, _ = run(capsys, "norm-expr", "(x^4 - 1) / (x^2 - 1)")
    assert code == 0
    assert out.strip() == "x^2 + 1"
    code, out, _ = run(capsys, "norm-expr", "1 / (x - x)")
    assert code == 0
    assert out.strip() == "1 / 0"


def test_norm_fun_keeps_singularity(capsys):
    code, out, _ = run(capsys, "norm-fun", "fun x -> x / x")
    assert code == 0
    assert out.strip() == "fun x -> x / x"
    code, out, _ = run(capsys, "norm-fun", "fun x -> (x^2 + 1) / (x^2 + 1)")
    assert code == 0
    assert out.strip() == "fun x -> 1"


def test_diff_flagship_output(capsys):
    code, out, _ = run(capsys, "diff", "sin(x^2 + x)")
    assert code == 0
    assert out.strip() == "(2 * x + 1) * cos(x^2 + x)"


def test_diff_of_log_of_exp_is_derivative_of_exponent(capsys):
    # No exp(w) / exp(w) factor is emitted, which would overflow in
    # float evaluation where the term itself is finite.
    code, out, _ = run(capsys, "diff", "ln(exp(exp(7 + inv(x))))")
    assert code == 0
    assert out.strip() == "-x^-2 * exp(7 + inv(x))"


def test_diff_suite_passes_at_former_overflow_seed(capsys):
    assert run(capsys, "check", "diff", "--cases", "100", "--seed", "1028399649")[0] == 0


def test_eval_before_and_after_normalization(capsys):
    code, out, _ = run(capsys, "eval", "(x^4-1)/(x^2-1)", "--at", "1")
    assert code == 3
    assert out.strip() == "undefined"
    code, out, _ = run(capsys, "norm-expr", "(x^4-1)/(x^2-1)")
    assert code == 0
    normalized = out.strip()
    code, out, _ = run(capsys, "eval", normalized, "--at", "1")
    assert code == 0
    assert out.strip() == "2"


def test_eval_accepts_fraction_points(capsys):
    code, out, _ = run(capsys, "eval", "x + 1/2", "--at", "1/2")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys, "eval", "1 / x", "--at", "0")
    assert code == 3
    assert out.strip() == "undefined"


def test_parse_errors_exit_2(capsys):
    code, out, err = run(capsys, "norm-expr", "x +")
    assert code == 2
    assert "parse error" in err
    code, _, err = run(capsys, "eval", "sin(x)", "--at", "0")
    assert code == 2
    code, _, err = run(capsys, "diff", "x ^")
    assert code == 2


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "factor", "twelve")[0] == 2
    assert run(capsys, "norm-expr")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "eval", "x", "--at", "half")[0] == 2
    assert run(capsys, "check", "factor", "--cases", "0")[0] == 2
    assert run(capsys, "check", "factor", "--seed", "-3")[0] == 2
    assert run(capsys)[0] == 2


_HUGE = "7" * 5000  # past the default int/str digit limit of 4300


@pytest.mark.parametrize(
    "argv",
    [
        ["norm-expr", "2^20000"],  # the output literal
        ["eval", "x^2000", "--at", "1000"],  # the printed value
        ["diff", "x^20000*2^20000"],  # a real literal, printed
        ["diff", "((2^100)^100)^100"],  # a folded literal, never printed
        ["factor", _HUGE],  # the argument itself
    ],
    ids=["norm-expr", "eval", "diff", "diff-folded", "factor"],
)
def test_digit_limit_exits_5(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 5
    assert out == ""
    assert err.count("\n") == 1
    assert "more than 4300 decimal digits" in err


def test_domain_grid_past_the_cap_exits_5_before_any_work(capsys, monkeypatch):
    """Above DOMAIN_MAX_POINTS the command stops before it parses,
    lowers or evaluates; at the cap it runs."""
    from microcas import cli, differentiation
    from microcas.differentiation import DomainPoint, DomainReport

    def refuse(*args):
        raise AssertionError("domain did work past its grid cap")

    monkeypatch.setattr(cli, "parse", refuse)
    monkeypatch.setattr(differentiation, "domain_sample", refuse)
    for n in (cli.DOMAIN_MAX_POINTS + 1, 10**30):
        code, out, err = run(capsys, "domain", "inv(x)", "--n", str(n))
        assert (code, out) == (5, "")
        assert err == "resource limit: more than 1000000 grid points (--n), the limit for domain\n"
    monkeypatch.undo()
    asked = []

    def stub(t, lo, hi, n):
        asked.append(n)
        return DomainReport((DomainPoint(0.0, True),))

    monkeypatch.setattr(differentiation, "domain_sample", stub)
    code, out, _ = run(capsys, "domain", "inv(x)", "--n", str(cli.DOMAIN_MAX_POINTS))
    assert (code, out, asked) == (0, "x = 0: defined\n", [cli.DOMAIN_MAX_POINTS])


def test_domain_text_and_json(capsys):
    code, out, _ = run(capsys, "domain", "ln(x^2 - 1)", "--lo", "-2", "--hi", "2", "--n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x = -2: defined"
    assert lines[2] == "x = 0: undefined"
    code, out, _ = run(
        capsys, "domain", "x", "--lo", "0", "--hi", "1", "--n", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == [
        {"point": 0.0, "defined": True},
        {"point": 0.5, "defined": True},
        {"point": 1.0, "defined": True},
    ]
    assert run(capsys, "domain", "x", "--lo", "2", "--hi", "1")[0] == 2


def test_domain_needs_finite_ends(capsys):
    for lo, hi in (("0", "inf"), ("-inf", "0"), ("nan", "1")):
        code, out, err = run(capsys, "domain", "sin(x)", f"--lo={lo}", f"--hi={hi}", "--n", "3")
        assert code == 2
        assert out == ""
        assert err.strip() == "domain: need finite lo and hi"


def test_deep_sum_norm_and_eval(capsys):
    src = " + ".join(["x"] * 2999 + ["1/(x - 2)"])
    code, out, _ = run(capsys, "norm-expr", src)
    assert code == 0
    assert out.strip() == "(2999 * x^2 - 5998 * x + 1) / (x - 2)"
    code, out, _ = run(capsys, "eval", src, "--at", "1")
    assert code == 0
    assert out.strip() == "2998"


def test_diff_of_a_deep_sum(capsys):
    assert run(capsys, "diff", " + ".join(["x"] * 3000))[:2] == (0, "3000\n")


def test_deeply_nested_input(capsys):
    assert run(capsys, "norm-expr", "(" * 3000 + "x" + ")" * 3000)[:2] == (0, "x\n")
    code, out, _ = run(capsys, "domain", "sin(" * 3000 + "x" + ")" * 3000, "--lo", "0", "--hi", "1", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["x = 0: defined", "x = 0.5: defined", "x = 1: defined"]


def test_domain_literal_too_large_for_a_float(capsys):
    code, out, _ = run(capsys, "domain", "x + 1" + "0" * 400, "--n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.endswith(": undefined") for line in lines)


def test_output_formats(capsys):
    code, out, _ = run(capsys, "norm-expr", "x / x", "--format", "sexpr")
    assert code == 0
    assert out.strip() == "(rat 1)"
    code, out, _ = run(capsys, "diff", "x * x", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["node"] == "app"


def test_check_single_suite_and_all(capsys):
    code, out, _ = run(capsys, "check", "factor", "--cases", "40")
    assert code == 0
    assert out.splitlines()[0].startswith("factor: PASS")
    code, out, _ = run(capsys, "check", "all", "--cases", "25")
    assert code == 0
    assert out.count("PASS") == 5


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", "diff", "--cases", "20", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 1
    assert doc[0]["check"] == "diff"
    assert doc[0]["ok"] is True


def test_check_counterexample_exits_4(capsys, monkeypatch):
    def rigged(cfg: GenConfig) -> Report:
        return Report("factor", cfg.seed, (BranchTally("rigged-law", 1, 1, "forced counterexample"),))

    monkeypatch.setitem(harness.CHECKS, "factor", rigged)
    code, out, _ = run(capsys, "check", "factor")
    assert code == 4
    assert "FAIL" in out
    assert "forced counterexample" in out


@pytest.mark.parametrize(
    "error, message",
    [
        (RecursionError, f"deeper recursion than Python's limit of {sys.getrecursionlimit()} frames"),
        (MemoryError, "out of memory"),
    ],
    ids=["recursion", "memory"],
)
def test_a_resource_error_of_a_subcommand_exits_5(capsys, monkeypatch, error, message):
    from microcas import cli

    def exhausted(args):
        raise error()

    monkeypatch.setattr(cli, "_cmd_norm_expr", exhausted)
    assert run(capsys, "norm-expr", "x") == (5, "", f"resource limit: {message}\n")


def test_any_other_error_of_a_subcommand_keeps_its_traceback(capsys, monkeypatch):
    from microcas import cli

    def broken(args):
        raise KeyError("a bug")

    monkeypatch.setattr(cli, "_cmd_diff", broken)
    with pytest.raises(KeyError, match="a bug"):
        main(["diff", "x"])


def test_check_offers_the_harness_suites():
    from microcas import cli

    assert cli.SUITES == tuple(sorted(harness.CHECKS))


def test_parser_declares_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("factor", "norm-expr", "norm-fun", "diff", "eval", "domain", "check"):
        assert name in text


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "microcas", "factor", "12", "--maple"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[1, [[2, 2], [3, 1]]]"


def test_norm_fun_with_a_huge_constant_subprocess():
    n = (2**127 - 1) * (2**89 - 1)
    proc = subprocess.run(
        [sys.executable, "-m", "microcas", "norm-fun", f"fun x -> 1 / (x^2 - {n})"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"fun x -> 1 / (x^2 - {n})"


def _readme_examples() -> list[tuple[str, list[str], int]]:
    """(command, expected stdout lines, exit code) for every `$ microcas`
    line in the README's text blocks; a trailing `# exit code N` comment
    gives the code, and any trailing comment is not output."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    examples = []
    for block in re.findall(r"```text\n(.*?)```", readme, re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if not chunk.startswith("$ microcas "):
                continue
            command, *lines = chunk.rstrip("\n").split("\n")
            code = re.search(r"# exit code (\d+)", chunk)
            out = [re.sub(r"\s+# .*$", "", line) for line in lines]
            examples.append((command[2:], out, int(code.group(1)) if code else 0))
    return examples


@pytest.mark.parametrize("command, out, code", [pytest.param(*ex, id=ex[0]) for ex in _readme_examples()])
def test_readme_example(command, out, code, capsys):
    assert run(capsys, *shlex.split(command)[1:])[:2] == (code, "\n".join(out) + "\n")
