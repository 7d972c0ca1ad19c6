"""microcas benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload {audit,oneshot,large,cli}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; it uses only the standard
library and the package under src/.  Set-up is `import microcas` in a
fresh interpreter, measured in SETUP_PROBES interpreters plus the
workload's own and reported as the median of the seven.  The workload then runs in
its own fresh interpreter (worker.py), one operation at a time, in
whole rounds until S seconds have passed.  Every time is scaled to a
nominal machine speed (speed.py).  The summary lines go to
standard output, and the last line is one JSON object: with --trace 0
it holds the end-to-end metrics, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("audit", "oneshot", "large", "cli")
KINDS = ("factor", "norm_expr", "norm_fun", "diff", "eval")
SETUP_PROBES = 6
_PROBE = (
    "import sys, time; sys.path.append(sys.argv[2]); import speed; "
    "r = speed.reference_s(); sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import microcas; dt = time.perf_counter() - t; "
    "print(speed.scaled(dt, r, speed.reference_s()))"
)


def _child(argv: list[str], timeout: float) -> str:
    p = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"benchmark child failed (exit {p.returncode}): {argv[1]}")
    return p.stdout


def setup_times(n: int) -> list[float]:
    """`import microcas` timed in n fresh interpreters."""
    return [float(_child([sys.executable, "-c", _PROBE, SRC, HERE], 60)) for _ in range(n)]


def bare_python_ms() -> float:
    import time

    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        _child([sys.executable, "-c", "pass"], 60)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def commit() -> str:
    """The checked-out commit, read from .git if there is one."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], p: float) -> float:
    s = sorted(values)
    return s[min(len(s) - 1, int(p * len(s)))]


def _rates(rounds: list, kind: str) -> list[float]:
    """Work done per second of one kind, one value per round."""
    return [r["kinds"][kind][0] / r["kinds"][kind][1] for r in rounds]


def end_to_end(res: dict, setup: list[float]) -> dict:
    rounds = res["rounds"]
    lat = [x for r in rounds for x in r["lat"]]
    m = {
        "setup_s": (statistics.median(setup), "s"),
        "round_s": (statistics.median(r["time"] for r in rounds), "s"),
    }
    # A rate is all the run's work over all its time: on this kind of
    # machine, whose speed drifts over seconds, that varies less from
    # run to run than the median of a few per-round rates.
    for k in KINDS:
        n = sum(r["kinds"][k][0] for r in rounds)
        t = sum(r["kinds"][k][1] for r in rounds)
        m[f"{k}_per_s"] = (n / t, "1/s")
    m["latency_ms.p50"] = (statistics.median(lat), "ms")
    m["latency_ms.p90"] = (percentile(lat, 0.9), "ms")
    m["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def summary(args, res: dict, setup: list[float], metrics: dict) -> list[str]:
    rounds = res["rounds"]
    lines = [
        f"# microcas benchmark  workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        f"# python {platform.python_version()}  commit {commit()}  "
        f"rounds {len(rounds)}  ops/round {len(rounds[0]['lat']) + len(rounds[0]['faults'])}",
        f"# setup_s samples: " + " ".join(f"{x:.4f}" for x in setup),
        "# reference kernel ms, quartiles: " + " ".join(f"{x:.4f}" for x in res["ref_ms"])
        + f"  (nominal {speed.NOMINAL_S * 1000:.4f}; times below are scaled to it)",
    ]
    q = quartiles([r["time"] for r in rounds])
    lines.append(f"round_s            q1 {q[0]:.4f}  median {q[1]:.4f}  q3 {q[2]:.4f}  s")
    for k in KINDS:
        q = quartiles(_rates(rounds, k))
        lines.append(f"{k + '_per_s':<18} per round: q1 {q[0]:.2f}  median {q[1]:.2f}  q3 {q[2]:.2f}  1/s")
    rungs = sorted({k for r in rounds for k in r["rungs"]} | {k for r in rounds for k in r["faults"]})
    if rounds[0]["faults"] or len(rungs) > len(KINDS):
        lines.append("rung times, median over rounds (s):")
        for rung in rungs:
            vals = [r["rungs"].get(rung, r["faults"].get(rung)) for r in rounds]
            lines.append(f"  {rung:<24} {statistics.median(vals):.4f}")
    for name, m in metrics.items():
        lines.append(f"{name:<48} {m['value']:.6g} {m['unit']}")
    lines.append(f"attempted {res['attempted']}  failed {res['failed']}  (failures are the known-fault inputs)")
    for p in res["problems"]:
        lines.append(f"PROBLEM: {p}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    # An untimed import first writes the bytecode caches.  Half the
    # probes run before the workload and half after, so that the median
    # spans more than one stretch of the machine's speed.
    setup_times(1)
    setup = setup_times(SETUP_PROBES // 2)
    out = _child(
        [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
         str(args.seed), str(args.seconds), str(args.trace)],
        timeout=args.seconds * 3 + 90,
    )
    res = json.loads(out.strip().splitlines()[-1])
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"rounds-{args.workload}-{args.seed}-{args.trace}.json"), "w") as fh:
        json.dump(res["rounds"], fh)
    setup += [res["import_s"]] + setup_times(SETUP_PROBES - SETUP_PROBES // 2)
    if args.trace:
        metrics = res["layers"]
        metrics["cli.bare_python_ms"] = {"value": bare_python_ms(), "unit": "ms"}
    else:
        metrics = end_to_end(res, setup)
    for line in summary(args, res, setup, metrics):
        print(line)
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
