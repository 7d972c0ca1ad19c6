"""One workload run in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Times `import microcas` (the set-up), runs the oracle self-test, then
runs whole rounds of the workload until SECONDS have passed, timing
each operation and checking its output.  Every time is scaled to the
nominal machine speed (speed.py), from reference times taken between
operations, at least every SEGMENT_S seconds of timed work.  With TRACE = 1 the odd rounds
run with the tracer installed and the even rounds without it, so every
traced input is new to the process, as in an untraced run.  The
per-layer metrics come from the odd rounds, and the tracing overhead
from each odd round's time over the even round's before it.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import speed  # noqa: E402

_ref0 = speed.reference_s()
_t0 = time.perf_counter()
import microcas  # noqa: E402

IMPORT_S = speed.scaled(time.perf_counter() - _t0, _ref0, speed.reference_s())

import selftest  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import KINDS, ROUNDS  # noqa: E402

SEGMENT_S = 0.05


def call(fn):
    """Time one call; returns (seconds, output, exception)."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as e:  # a failed operation is a result here
        return time.perf_counter() - t0, None, e
    return time.perf_counter() - t0, out, None


def judge(op, out, exc, problems: list) -> bool:
    """Whether the operation failed.  A failure of a known-fault input
    is expected; any other failure, or an output the check rejects, is
    recorded in `problems`."""
    if exc is not None:
        if not op.fault:
            problems.append(f"{op.kind} {op.rung}: {type(exc).__name__}: {exc}"[:300])
        return True
    try:
        ok = op.check(out)
    except Exception as e:
        ok = False
        problems.append(f"{op.kind} {op.rung}: check raised {type(e).__name__}: {e}"[:300])
    if not ok:
        text = out[-1] if isinstance(out, tuple) else out
        problems.append(f"{op.kind} {op.rung}: wrong output {str(text)[:200]!r}")
    return False


def timed(ops, fn_of, refs: list):
    """Call fn_of(op)() for each operation in turn and yield (op, scaled
    seconds, output, exception).  A reference time is taken before the
    first call and after every stretch of at least SEGMENT_S seconds of
    calls, and each stretch is scaled by the two around it; `refs`
    collects the reference times."""
    ref = speed.reference_s()
    refs.append(ref)
    segment = []
    for i, op in enumerate(ops):
        segment.append((op, *call(fn_of(op))))
        if i + 1 < len(ops) and sum(e[1] for e in segment) < SEGMENT_S:
            continue
        after = speed.reference_s()
        refs.append(after)
        for op_, dt, out, exc in segment:
            yield op_, speed.scaled(dt, ref, after), out, exc
        segment, ref = [], after


def traced_calls(tracer: Tracer, ops, refs: list) -> list:
    """`timed` with the tracer installed, each call in a root span; the
    outputs are returned after the tracer is taken out again."""
    tracer.install(microcas)
    try:
        return list(timed(ops, lambda op: lambda: tracer.run_root(f"bench.{op.kind}", op.traced or op.run), refs))
    finally:
        tracer.uninstall()


def layer_metrics(tr: Tracer, rounds: int, terms: int, overhead: float) -> dict:
    """Per-layer metrics; counts and self times are per traced round."""
    per = 1.0 / rounds
    c = lambda name: tr.total(name, "calls") * per  # noqa: E731
    s = lambda name: tr.total(name, "self_s") * per  # noqa: E731
    printers = ("to_infix", "to_sexpr", "to_json", "format_term")
    parse_self = tr.total("parser.parse", "self_s")
    dn_calls = tr.total("differentiation.deriv_numeric")
    dn_defined = tr.total("differentiation.deriv_numeric", "extra")
    main_calls = tr.total("cli.main")
    m = {
        "terms.eval_as.calls": (c("terms.eval_as"), "count"),
        "terms.eval_as.self_s": (s("terms.eval_as"), "s"),
        "parser.parse.calls": (c("parser.parse"), "count"),
        "parser.parse.self_s": (s("parser.parse"), "s"),
        "parser.chars_per_s": (
            tr.total("parser.parse", "extra") / parse_self if parse_self else 0.0, "1/s"),
        "printing.format.calls": (tr.layer_total("printing", "entries", printers) * per, "count"),
        "printing.format.self_s": (tr.layer_total("printing", "self_s", printers) * per, "s"),
        "factoring.factor_int.calls": (c("factoring.factor_int"), "count"),
        "factoring.factor_int.self_s": (s("factoring.factor_int"), "s"),
        "factoring.is_probable_prime.calls": (c("factoring.is_probable_prime"), "count"),
        "factoring.divisors.calls": (c("factoring.divisors"), "count"),
        "polynomials.poly_gcd.calls": (c("polynomials.poly_gcd"), "count"),
        "polynomials.poly_gcd.self_s": (s("polynomials.poly_gcd"), "s"),
        "polynomials.rational_roots.calls": (c("polynomials.rational_roots"), "count"),
        "polynomials.rational_roots.self_s": (s("polynomials.rational_roots"), "s"),
        "polynomials.mul.calls": (c("polynomials.Poly.__mul__"), "count"),
        "polynomials.divmod.calls": (c("polynomials.Poly.__divmod__"), "count"),
        "rational.is_rat_expr.calls": (c("rational.is_rat_expr"), "count"),
        "rational.is_rat_expr.self_s": (s("rational.is_rat_expr"), "s"),
        "rational.is_rat_expr.calls_per_term": (
            tr.total("rational.is_rat_expr") / terms, "ratio"),
        "rational.frac_value.calls": (c("rational.frac_value"), "count"),
        "rational.frac_value.self_s": (s("rational.frac_value"), "s"),
        "rational.flatten_raw.self_s": (s("rational.flatten_raw"), "s"),
        "rational.eval_pointwise.calls": (c("rational.eval_pointwise"), "count"),
        "rational.eval_pointwise.self_s": (s("rational.eval_pointwise"), "s"),
        "rational.make.calls": (c("rational.CanonicalFraction.make"), "count"),
        "rational.singular_points.self_s": (s("rational.singular_points"), "s"),
        "differentiation.is_diff_expr.calls": (c("differentiation.is_diff_expr"), "count"),
        "differentiation.is_diff_expr.self_s": (s("differentiation.is_diff_expr"), "s"),
        "differentiation.is_diff_expr.calls_per_term": (
            tr.total("differentiation.is_diff_expr") / terms, "ratio"),
        "differentiation.eval_real.calls": (c("differentiation.eval_real"), "count"),
        "differentiation.eval_real.self_s": (s("differentiation.eval_real"), "s"),
        "differentiation.deriv_numeric.calls": (dn_calls * per, "count"),
        "differentiation.deriv_numeric.abstained": ((dn_calls - dn_defined) * per, "count"),
        "differentiation.deriv_numeric.defined_ratio": (
            dn_defined / dn_calls if dn_calls else 0.0, "ratio"),
        "differentiation.diff.self_s": (s("differentiation.diff"), "s"),
        "differentiation.simplify.self_s": (s("differentiation.simplify"), "s"),
        "harness.generate.self_s": (
            sum(s(n) for n in tr.names if n.startswith("harness.draw_")), "s"),
        "harness.self_s": (
            sum(s(n) for n in tr.names if n.startswith("harness.check")), "s"),
        "cli.main.self_s": (
            tr.total("cli.main", "self_s") / main_calls if main_calls else 0.0, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main() -> int:
    workload, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    bad = selftest.failures()
    if bad:
        print("oracle self-test failed: " + "; ".join(bad), file=sys.stderr)
        return 1
    build = ROUNDS[workload]
    tracer = Tracer() if trace else None
    problems: list[str] = []
    rounds = []  # untraced rounds only
    refs: list[float] = []
    attempted = failed = traced_rounds = traced_terms = 0
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    rnd = 0
    # A traced run ends after a traced round, so every traced round has
    # the untraced round before it to compare with.
    while rnd < 1 + trace or time.perf_counter() - start < seconds or rnd % 2:
        ops = build(seed, rnd)
        in_trace = trace and rnd % 2 == 1
        # Untraced, each output is checked and dropped soon after its call.
        results = traced_calls(tracer, ops, refs) if in_trace else timed(ops, lambda op: op.run, refs)
        rec = {"kinds": {k: [0, 0.0] for k in KINDS}, "rungs": {}, "lat": [],
               "faults": {}, "attempted": 0, "failed": 0, "time": 0.0}
        for op, dt, out, exc in results:
            rec["attempted"] += op.n
            if judge(op, out, exc, problems):
                rec["failed"] += op.n
            if op.fault:
                rec["faults"][op.rung] = dt
                continue
            rec["kinds"][op.kind][0] += op.n
            rec["kinds"][op.kind][1] += dt
            rec["lat"].append(dt * 1000.0 / op.n)
            rec["time"] += dt
            if op.rung:
                rec["rungs"][op.rung] = rec["rungs"].get(op.rung, 0.0) + dt
        attempted += rec["attempted"]
        failed += rec["failed"]
        if in_trace:
            traced_rounds += 1
            traced_terms += rec["attempted"]
            traced_s += rec["time"]
        else:
            rounds.append(rec)
            if trace and ops[0].traced is not None:
                # cli: the traced rounds run in process, so the untraced
                # time to compare with is taken in process too.
                inproc = [op for op in ops if not op.fault]
                plain_s += sum(e[1] for e in timed(inproc, lambda op: op.traced, []))
            elif trace:
                plain_s += rec["time"]
        rnd += 1
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    result = {
        "import_s": IMPORT_S,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "ref_ms": [x * 1000.0 for x in statistics.quantiles(refs, n=4)],
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        overhead = traced_s / plain_s if plain_s else 0.0
        result["layers"] = layer_metrics(tracer, traced_rounds, traced_terms, overhead)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"trace-{workload}-{seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
