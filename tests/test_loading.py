"""What a process loads.

The package imports no submodule until a name is reached, each CLI
subcommand imports only the language it runs, and eval_as loads the
module that registers an evaluator the first time a term is read at its
type.  Each check runs in a fresh interpreter, so nothing that another
test imported can hide a missing import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# What every subcommand loads: the package, the CLI, the signature, the
# parser and the printers.
_BASE = {"microcas", "microcas.cli", "microcas.terms", "microcas.parser", "microcas.printing"}

_PRELUDE = """\
import sys
def loaded():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'microcas')
def heavy():
    return sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)
heavy_before = heavy()
out = {}
"""

# Records which of dataclasses and inspect were loaded before the code
# ran and which after it.
_HEAVY = "out.update(before=heavy_before, heavy=heavy())\n"


def _fresh(code: str) -> dict:
    """Run code in a new interpreter, after a prelude that defines
    ``loaded()``, the microcas modules imported so far, ``heavy()``, the
    modules of dataclasses and inspect imported so far, ``heavy_before``,
    its value before the code, and an empty dict ``out``; return ``out``
    as the code left it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    script = _PRELUDE + code + "\nimport json\nprint(json.dumps(out))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _run_main(argv: list) -> str:
    """Code that runs the CLI on argv, its output discarded."""
    return f"""
import contextlib, io
from microcas.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main({argv!r})
"""


@pytest.mark.parametrize(
    "argv, language",
    [
        (["factor", "360"], {"factoring"}),
        (["factor", "12", "--maple"], {"factoring"}),
        (["norm-expr", "(x^4 - 1) / (x^2 - 1)"], {"rational", "polynomials"}),
        (["norm-fun", "fun x -> x / x"], {"rational", "polynomials"}),
        (["eval", "(x^4-1)/(x^2-1)", "--at", "1"], {"rational", "polynomials"}),
        (["diff", "sin(x^2 + x)"], {"differentiation"}),
        (["domain", "ln(x^2 - 1)", "--n", "5"], {"differentiation"}),
        (["domain", "x", "--n", "10000000"], set()),
        (["norm-expr", "x +"], {"rational", "polynomials"}),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_a_subcommand_loads_only_its_language(argv, language):
    doc = _fresh(_run_main(argv) + _HEAVY + "out.update(loaded=loaded(), json='json' in sys.modules)\n")
    assert set(doc["loaded"]) == _BASE | {f"microcas.{m}" for m in language}
    assert not doc["json"]
    assert doc["before"] == doc["heavy"] == []


def test_json_output_loads_json_and_check_loads_the_harness():
    doc = _fresh(
        _run_main(["diff", "x * x", "--format", "json"])
        + "out.update(diff=loaded(), json='json' in sys.modules)\n"
        + _run_main(["check", "factor", "--cases", "5"])
        + "out.update(check=loaded())\n"
    )
    assert set(doc["diff"]) == _BASE | {"microcas.differentiation"} and doc["json"]
    assert "microcas.harness" in doc["check"]


def test_no_process_loads_dataclasses_or_inspect():
    """The kernel's classes are plain __slots__ classes, so neither a
    subcommand (check included) nor importing every module loads
    dataclasses, or inspect through it."""
    for code in (
        _run_main(["check", "all", "--cases", "5", "--format", "json"]),
        "import microcas.cli, microcas.harness\n",
    ):
        doc = _fresh(code + _HEAVY + "out.update(harness='microcas.harness' in sys.modules)\n")
        assert doc == {"before": [], "heavy": [], "harness": True}


def test_the_package_source_names_no_dataclass():
    for path in sorted((SRC / "microcas").glob("*.py")):
        assert "dataclass" not in path.read_text(), path.name


def test_importing_the_package_loads_nothing_and_every_public_name_loads():
    doc = _fresh("""
import microcas
bare = loaded()
names = [n for n in microcas.__all__ if getattr(microcas, n) is not None]
ns = {}
exec('from microcas import *', ns)
out.update(bare=bare, names=names, star=sorted(set(ns) - {'__builtins__'}), all=microcas.__all__,
           dir=dir(microcas))
""")
    assert doc["bare"] == ["microcas"]
    assert doc["names"] == doc["all"] and len(doc["all"]) == 47
    assert doc["star"] == sorted(doc["all"])
    assert set(doc["all"]) <= set(doc["dir"])


@pytest.mark.parametrize(
    "term, ty, want, language",
    [
        ("IntLit(3)", "INT", "IntV(3)", {"factoring"}),
        ("RatLit(Fraction(1, 2))", "RAT", "RatV(Fraction(1, 2))", {"rational", "polynomials"}),
        ("X_Q", "FRAC", "FracV(rational.FRAC_X)", {"rational", "polynomials"}),
        ("Lambda('x', RAT, X_Q)", "Arrow(RAT, RAT)", "FnQQ(Lambda('x', RAT, X_Q))", {"rational", "polynomials"}),
        ("quote(IntLit(3))", "SYNTAX", "TermV(IntLit(3))", set()),
        ("X_R", "REAL", "None", set()),
    ],
    ids=["int", "rat", "frac", "rat-to-rat", "syntax", "real"],
)
def test_eval_as_loads_the_module_of_its_evaluator(term, ty, want, language):
    doc = _fresh(f"""
from fractions import Fraction
from microcas import eval_as, quote, IntLit, RatLit, Lambda, Arrow
from microcas.terms import INT, RAT, FRAC, REAL, SYNTAX, X_Q, X_R, IntV, RatV, FracV, FnQQ, TermV
before = loaded()
got = eval_as(quote({term}), {ty})
after = loaded()
from microcas import rational
out.update(before=before, after=after, ok=got == {want})
""")
    assert doc["before"] == ["microcas", "microcas.terms"]
    assert set(doc["after"]) == {"microcas", "microcas.terms"} | {f"microcas.{m}" for m in language}
    assert doc["ok"]


def test_the_signature_is_declared_in_terms_alone():
    """infer_type types every operator constant with only terms loaded,
    and loading every other module registers no constant more."""
    doc = _fresh("""
from microcas import terms
signature = list(terms._CONSTANTS.values())
out.update(n=len(signature), typed=all(terms.infer_type(c) == c.ty for c in signature), only=loaded())
import microcas.cli, microcas.harness
out.update(after=len(terms._CONSTANTS))
""")
    assert doc == {"n": 24, "typed": True, "only": ["microcas", "microcas.terms"], "after": 24}


def test_the_tracer_leaves_the_package_as_it_found_it():
    """perfbench's tracer swaps functions by name in module dicts.  A
    name that the package first hands out while the tracer is installed
    must not keep the wrapper after it is taken out, and a name it kept
    before must be seen wrapped while the tracer is in."""
    doc = _fresh(f"""
import importlib.util, microcas
spec = importlib.util.spec_from_file_location('spans', {str(ROOT / 'perfbench' / 'spans.py')!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
microcas.parse('x', 'diffexpr')
tracer = spans.Tracer()
tracer.install(microcas)
microcas.diff(microcas.parse('sin(x) * x', 'diffexpr'))
traced = [tracer.total('differentiation.diff'), tracer.total('parser.parse')]
tracer.uninstall()
stale = [n for n in microcas.__all__[:-1]
         if getattr(microcas, n) is not getattr(sys.modules[microcas._OWNER[n]], n)
         or hasattr(getattr(microcas, n), '__wrapped__')]
out.update(traced=traced, same=microcas.diff is microcas.differentiation.diff, stale=stale,
           kept=sorted(n for n in ('parse', 'diff') if n in vars(microcas)))
""")
    assert doc == {"traced": [1, 1], "same": True, "stale": [], "kept": ["diff", "parse"]}
