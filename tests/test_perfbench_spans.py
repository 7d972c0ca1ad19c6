"""The benchmark's span tracer still finds every function it wraps.

perfbench/spans.py wraps the microcas functions named in its TARGETS
table by name, so renaming or removing one of them breaks the traced
benchmark runs.  Installing and uninstalling the tracer here makes such
a rename fail in the test suite instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import microcas

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target_and_uninstalls():
    spans = _spans_module()
    originals = {
        (mod, name): getattr(importlib.import_module(f"microcas.{mod}"), name)
        for mod, names in spans.TARGETS.items()
        for name in names
        if "." not in name
    }
    tracer = spans.Tracer()
    try:
        tracer.install(microcas)
        for (mod, name), fn in originals.items():
            wrapped = getattr(importlib.import_module(f"microcas.{mod}"), name)
            assert wrapped.__wrapped__ is fn, f"{mod}.{name}"
        microcas.diff(microcas.parse("sin(x) * x", "diffexpr"))
        assert tracer.total("differentiation.diff") == 1
    finally:
        tracer.uninstall()
    for (mod, name), fn in originals.items():
        assert getattr(importlib.import_module(f"microcas.{mod}"), name) is fn, f"{mod}.{name}"


def test_tracer_sees_every_layer_the_suites_call():
    """The suites look up their generators and algorithms at call time,
    so a traced audit counts each call.  A function bound at import
    where the tracer cannot swap it, in a tuple or a default argument,
    would bypass the wrappers and zero these counts."""
    from microcas import harness

    spans = _spans_module()
    tracer = spans.Tracer()
    try:
        tracer.install(microcas)
        for check in harness.CHECKS.values():
            check(harness.GenConfig(seed=0, cases=5))
    finally:
        tracer.uninstall()
    expected = {
        "harness.draw_numeral": 5,
        "harness.draw_non_member": 8,
        "factoring.factor": 7,
        "rational.norm_rat_expr": 7,
        "rational.norm_rat_fun": 7,
        "differentiation.check_spec_diff": 5,
        "differentiation.diff": 7,
        "terms.eval_as": 31,
    }
    for name in spans.TARGETS["harness"]:
        if name.startswith("check_"):
            expected[f"harness.{name}"] = 1
    assert {name: tracer.total(name) for name in expected} == expected
