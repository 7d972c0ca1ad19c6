"""Span tracing of microcas from outside, for the per-layer metrics.

`Tracer.install` replaces chosen public functions and methods of the
microcas modules with wrappers, in this process only, and `uninstall`
puts the originals back.  Every name bound to a traced function, in any
microcas module or in a dict held by one (such as `harness.CHECKS`), is
replaced, so calls through `from ... import` bindings are seen too.

A wrapper records a span (name, start, end, parent) unless the function
is already the innermost traced frame: direct recursion, or recursion
through private helpers, stays inside the outer call's span and self
time.  Self time is a span's duration less the time its child spans
cover.  Counts and self times are aggregated for every span; the raw
spans are kept in memory up to `SPAN_CAP` and written out by `dump`.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

SPAN_CAP = 300_000

# (module, attribute) pairs; "Class.method" names a method.  The list
# follows the layer table in perfbench/README.md: each layer's public
# entry points plus the functions whose counts the metrics read.
TARGETS = {
    "terms": ["eval_as"],
    "parser": ["parse"],
    "printing": ["to_infix", "to_sexpr", "to_json", "format_term"],
    "factoring": [
        "factor_int", "is_probable_prime", "divisors", "factor",
        "decomp_to_term", "is_prime_decomp", "remult",
    ],
    "polynomials": [
        "poly_gcd", "rational_roots", "linear_part",
        "Poly.__mul__", "Poly.__divmod__",
    ],
    "rational": [
        "is_rat_expr", "is_rat_fun", "frac_value", "flatten_raw",
        "eval_pointwise", "singular_points", "norm_rat_expr", "norm_rat_fun",
        "quasinorm_rat_expr", "is_norm", "is_quasinorm", "quasi_equal_at",
        "CanonicalFraction.make",
    ],
    "differentiation": [
        "is_diff_expr", "diff", "simplify", "eval_real", "deriv_numeric",
        "domain_sample", "check_spec_diff",
    ],
    "harness": [
        "draw_numeral", "draw_rat_expr", "draw_rat_fun", "draw_diff_expr",
        "draw_int_expr", "draw_closed_rat", "draw_non_member",
        "check_spec_factor", "check_spec_norm_rat_expr",
        "check_spec_norm_rat_fun", "check_spec_diff", "check_disquotation",
    ],
    "cli": ["main"],
}

# Extra per-span counts: characters parsed, numeric derivatives found.
HOOKS = {
    "parser.parse": lambda args, result: len(args[0]),
    "differentiation.deriv_numeric": lambda args, result: int(result.is_defined),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.entries: list[int] = []  # calls from another layer
        self.self_s: list[float] = []
        self.extra: list[float] = []
        self.stack: list[list] = []  # [fid, start, child_time, span_index]
        self.nspans = 0
        self.span_fid = array("i", bytes(4 * SPAN_CAP))
        self.span_parent = array("i", bytes(4 * SPAN_CAP))
        self.span_start = array("d", bytes(8 * SPAN_CAP))
        self.span_end = array("d", bytes(8 * SPAN_CAP))
        self._layer: list[str] = []
        self._roots: dict = {}
        self._undo: list[tuple] = []

    def _fid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self._layer.append(name.split(".", 1)[0])
            self.calls.append(0)
            self.entries.append(0)
            self.self_s.append(0.0)
            self.extra.append(0.0)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        fid = self._fid(name)
        hook = HOOKS.get(name)
        tr = self
        stack, layer = self.stack, self._layer
        sp_fid, sp_parent = self.span_fid, self.span_parent
        sp_start, sp_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == fid:
                return fn(*args, **kwargs)
            depth = len(stack)
            parent = stack[-1] if stack else None
            idx = tr.nspans
            if idx < SPAN_CAP:
                tr.nspans = idx + 1
                sp_fid[idx] = fid
                sp_parent[idx] = parent[3] if parent else -1
            else:
                idx = -1
            frame = [fid, perf_counter(), 0.0, idx]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    tr.extra[fid] += hook(args, result)
                return result
            finally:
                # Unwinding a RecursionError runs this at the depth limit,
                # where any call can raise again, so the stack is
                # restored first, by a slice deletion, which calls nothing.
                del stack[depth:]
                end = perf_counter()
                dur = end - frame[1]
                tr.calls[fid] += 1
                if parent is None or layer[parent[0]] != layer[fid]:
                    tr.entries[fid] += 1
                tr.self_s[fid] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if idx >= 0:
                    sp_start[idx] = frame[1]
                    sp_end[idx] = end

        wrapper.__wrapped__ = fn
        return wrapper

    def run_root(self, name: str, fn):
        """Call fn() inside a span opened by the benchmark itself."""
        if name not in self._roots:
            self._roots[name] = self.wrap(name, _call)
        return self._roots[name](fn)

    def install(self, package) -> None:
        import importlib

        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}") for m in TARGETS
        ]
        swap = {}
        for mod_name, attrs in TARGETS.items():
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(f"{mod_name}.{attr}", raw.__func__))
                    else:
                        new = self.wrap(f"{mod_name}.{attr}", raw)
                    self._undo.append((cls, meth, raw))
                    setattr(cls, meth, new)
                else:
                    fn = getattr(mod, attr)
                    swap[id(fn)] = (fn, self.wrap(f"{mod_name}.{attr}", fn))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in swap and swap[id(value)][0] is value:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, swap[id(value)][1])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in swap and swap[id(v)][0] is v:
                            self._undo.append((value, k, v))
                            value[k] = swap[id(v)][1]

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def total(self, name: str, field: str = "calls") -> float:
        if name not in self.names:
            return 0
        return getattr(self, field)[self.names.index(name)]

    def layer_total(self, layer: str, field: str, names=None) -> float:
        return sum(
            getattr(self, field)[i]
            for i, n in enumerate(self.names)
            if self._layer[i] == layer and (names is None or n.split(".", 1)[1] in names)
        )

    def dump(self, path) -> None:
        """Write the kept spans as JSON: one [name, start, end, parent]
        row per span, parent being a row index or -1."""
        rows = [
            [self.names[f], s, e, p]
            for f, s, e, p in zip(
                self.span_fid[: self.nspans],
                self.span_start[: self.nspans],
                self.span_end[: self.nspans],
                self.span_parent[: self.nspans],
            )
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "spans_kept_max": SPAN_CAP}, fh)


def _call(fn):
    return fn()
