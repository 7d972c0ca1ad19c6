"""Reference figures for the baselines the roadmap quotes, as medians.

    python3 perfbench/baselines.py

* each contract suite at 300 cases, seed 0;
* `frac_value` of the parsed term x^n for n = 50, 100, 200;
* `microcas factor 360` as a fresh process, against a bare interpreter
  (`python3 -c pass`).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import microcas  # noqa: E402
from microcas import harness  # noqa: E402

REPS = 3  # in-process timings
CLI_REPS = 10  # process timings, which vary more


def median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    rows = []
    cfg = harness.GenConfig(seed=0, cases=300)
    for name, check in harness.CHECKS.items():
        rows.append((f"check {name}, 300 cases", median_time(lambda: check(cfg), REPS), "s"))
    for n in (50, 100, 200):
        t = microcas.parse(f"x^{n}", "ratexpr")
        rows.append((f"frac_value(x^{n})", median_time(lambda: microcas.frac_value(t), REPS), "s"))
    env = dict(os.environ, PYTHONPATH=SRC)

    def run(argv):
        subprocess.run(argv, env=env, check=True, capture_output=True)

    rows.append(("microcas factor 360", 1000 * median_time(
        lambda: run([sys.executable, "-m", "microcas", "factor", "360"]), CLI_REPS), "ms"))
    rows.append(("python3 -c pass", 1000 * median_time(
        lambda: run([sys.executable, "-c", "pass"]), CLI_REPS), "ms"))
    print(f"| baseline | median of {REPS} ({CLI_REPS} for processes) |")
    print("| --- | --- |")
    for name, value, unit in rows:
        print(f"| {name} | {value:.3f} {unit} |" if unit == "s" else f"| {name} | {value:.1f} {unit} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
