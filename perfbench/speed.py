"""A reference for the machine's speed, taken next to every timing.

The machines this benchmark runs on are shared virtual machines whose
speed drifts: a fixed loop took from 39 to 78 ms per call, in stretches
of seconds to minutes, and process time moved with wall time.  A
microcas operation slows in step.  So each timing is scaled to a
nominal speed: `reference_s()` times a fixed pure-Python kernel right
before and right after the timed work, and `scaled` multiplies the
work's time by NOMINAL_S over the mean of the two.  A change to
microcas moves the scaled time just as it moves the raw time, because
the kernel shares no code with microcas and runs with the collector
off, so it does not depend on what microcas leaves on the heap.

This module imports nothing but `gc` and `time`, so that it can be
loaded before `import microcas` is timed without loading anything
microcas needs.
"""

import gc
import time

# Median of reference_s() on the machine the README's figures come
# from, so that scaled times read close to raw ones there.
NOMINAL_S = 0.00048
SAMPLES = 5


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _tree(n: int) -> tuple:
    return (n, _tree(n - 1), _tree(n - 2)) if n > 1 else (n,)


def _walk(t: tuple, memo: dict) -> tuple:
    """A rational number (numerator, denominator) from a tuple tree:
    recursion, dict lookups and integer gcds, the kinds of work that
    microcas's rewriting and exact arithmetic do."""
    if len(t) == 1:
        return (t[0] + 1, 3)
    k = t[0]
    if k in memo:
        return memo[k]
    a, b = _walk(t[1], {}), _walk(t[2], memo)
    n = a[0] * b[1] * (k + 2) + b[0] * a[1]
    d = a[1] * b[1] * (k + 2)
    g = _gcd(n, d)
    memo[k] = v = (n // g, d // g)
    return v


_TREE = _tree(9)


def _kernel() -> int:
    s = 0
    for i in range(6):
        n, d = _walk(_TREE, {})
        s += len(f"{n}/{d}:{i}".split("/"))
    return s


def reference_s() -> float:
    """Median time of SAMPLES runs of the kernel, collector off."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if was_on:
            gc.enable()
    times.sort()
    return times[SAMPLES // 2]


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """`seconds` of work at the nominal speed, given the reference times
    taken right before and right after it."""
    return seconds * NOMINAL_S * 2.0 / (ref_before + ref_after)
