"""Per-layer tracing of `hendecafold` from outside the package.

`Tracer.install()` wraps the public functions of every layer module where
callers look them up: each name bound in any `hendecafold` module namespace
(so `from .x import f` bindings are patched in every importing module),
tuples of such functions (`verification.ALL_CRITERIA`), and a few methods
on the polynomial classes.  A wrapped call records a span (name, start,
end, parent) in memory.  The hottest calls, polynomial evaluation and
multiplication, would make millions of spans, so they are only counted and
timed per (parent span, name); those totals still count as children when
self time is derived.  `uninstall()` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("geometry", "polynomials", "cyclotomic", "folds", "construction",
          "scriptio", "render", "verification")

# public functions left unwrapped: a type predicate called from every
# Point/Line constructor, which would only measure the tracer
SKIP = {("geometry", "scalar_mode")}

# span names that differ from "<layer>.<function>"
ALIASES = {
    "scriptio.decode_script": "scriptio.decode",
    "scriptio.decode_two_fold_config": "scriptio.decode",
    "verification.check_exact_quintic": "verification.exact_quintic",
    "verification.check_root_census": "verification.root_census",
    "verification.check_two_fold_residuals": "verification.two_fold_residuals",
    "verification.check_gamma_parameterization_identity": "verification.gamma_identity",
    "verification.check_constructibility_table": "verification.constructibility_table",
    "verification.check_end_to_end_construction": "verification.end_to_end",
    "verification.check_property_suites": "verification.property_suites",
}

# calls `construction` makes into other functions, timed as script steps
STEP_CALLS = {
    "solve_single_fold": "single_fold",
    "solve_two_fold": "two_fold",
    "intersect": "mark_point",
    "line_through": "crease_segment",
    "rotate_length": "rotate_length",
}
STEP_KINDS = ("single_fold", "two_fold", "mark_point", "crease_segment", "rotate_length")

ROOT = "bench.op"
EVAL_EXACT = "polynomials.eval.exact"
EVAL_FLOAT = "polynomials.eval.float"
MUL = "polynomials.RatPoly.mul"


def _count_len(result) -> int:
    return len(result)


def _count_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# span name -> (counter name, function of the result)
RESULT_COUNTERS = {
    "folds.solve_two_fold": ("folds.two_fold.solutions", _count_len),
    "folds.solve_single_fold": ("folds.solve_single_fold.creases", _count_len),
    "render.write_svgs": ("render.bytes_written", _count_bytes),
}


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start_ns, end_ns, parent index or -1]
        self.leaves = {}          # (parent index, name) -> [calls, ns]
        self.counters = Counter()
        self._stack = [-1]
        self._restore = []        # (owner, attr, original)

    # -- recording ------------------------------------------------------

    def begin(self, name: str) -> list:
        span = [name, time.perf_counter_ns(), 0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = RESULT_COUNTERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counters[counter[0]] += counter[1](result)
            return result
        return wrapper

    def _step(self, kind: str, fn):
        # only calls made by the script runner are steps; the same names are
        # also used by construction code outside run_script
        spans, stack = self.spans, self._stack
        name = f"construction.step.{kind}"
        step = self._spanned(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and spans[top][0] == "construction.run_script":
                return step(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def _leaf(self, name_of, fn):
        leaves, stack, clock = self.leaves, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                key = (stack[-1], name_of(args))
                rec = leaves.get(key)
                if rec is None:
                    leaves[key] = [1, clock() - t0]
                else:
                    rec[0] += 1
                    rec[1] += clock() - t0
        return wrapper

    # -- patching -------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> list:
        """Wrap every layer's public functions; returns layers not found."""
        missing = []
        for layer in LAYERS:
            try:
                importlib.import_module(f"hendecafold.{layer}")
            except ImportError:
                missing.append(layer)
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "hendecafold" or name.startswith("hendecafold.")}
        wrapped = {}              # id(original) -> wrapper
        for layer in LAYERS:
            mod = modules.get(f"hendecafold.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and (layer, attr) not in SKIP):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = self._spanned(ALIASES.get(name, name), obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, tuple) and any(id(o) in wrapped for o in obj):
                    self._set(mod, attr, tuple(wrapped.get(id(o), o) for o in obj))
        construction = modules.get("hendecafold.construction")
        if construction is not None:
            for attr, kind in STEP_CALLS.items():
                if hasattr(construction, attr):
                    self._set(construction, attr, self._step(kind, getattr(construction, attr)))
        poly = modules.get("hendecafold.polynomials")
        if poly is not None:
            ratpoly, ratfunc = poly.RatPoly, poly.RatFunc
            self._set(ratpoly, "__call__", self._leaf(
                lambda args: EVAL_FLOAT if isinstance(args[1], float) else EVAL_EXACT,
                ratpoly.__call__))
            mul = self._leaf(lambda args: MUL, ratpoly.__mul__)
            self._set(ratpoly, "__mul__", mul)
            self._set(ratpoly, "__rmul__", mul)
            self._set(ratpoly, "square_free_part", self._spanned(
                "polynomials.RatPoly.square_free_part", ratpoly.square_free_part))
            self._set(ratfunc, "__init__", self._spanned(
                "polynomials.RatFunc.init", ratfunc.__init__))
        return missing

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as JSON lines: [name, start_ns, end_ns, parent]; then the
        aggregated leaf calls as [name, parent, calls, ns]."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
            for (parent, name), (calls, ns) in self.leaves.items():
                f.write(json.dumps([name, parent, calls, ns]) + "\n")

    def summary(self) -> dict:
        """Totals over all recorded ops, in ns and calls."""
        spans = self.spans
        calls = Counter(s[0] for s in spans)
        child_ns = defaultdict(int)
        for s in spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        leaf_calls = Counter()
        for (parent, name), (n, ns) in self.leaves.items():
            leaf_calls[name] += n
            if parent >= 0:
                child_ns[parent] += ns
        self_ns = Counter()
        for i, s in enumerate(spans):
            self_ns[s[0].split(".")[0]] += s[2] - s[1] - child_ns[i]
        for (_, name), (_, ns) in self.leaves.items():
            self_ns[name.split(".")[0]] += ns
        # inclusive time: a span nested in a span of the same name is
        # already inside the outer one's interval
        inclusive = Counter()
        by_name = defaultdict(list)
        for s in spans:
            by_name[s[0]].append((s[1], s[2]))
        for name, intervals in by_name.items():
            intervals.sort()
            reach = -1
            for start, end in intervals:
                if start >= reach:
                    inclusive[name] += end - start
                    reach = end
        # RatPoly evaluations made inside refine_root (bisection waste)
        under = {}

        def in_refine(i: int) -> bool:
            path = []
            while i >= 0 and i not in under:
                if spans[i][0] == "polynomials.refine_root":
                    under[i] = True
                    break
                path.append(i)
                i = spans[i][3]
            hit = i >= 0 and under[i]
            for j in path:
                under[j] = hit
            return hit

        refine_evals = sum(n for (parent, name), (n, _) in self.leaves.items()
                           if name in (EVAL_EXACT, EVAL_FLOAT) and in_refine(parent))
        return {
            "ops": calls[ROOT],
            "calls": calls,
            "leaf_calls": leaf_calls,
            "inclusive_ns": inclusive,
            "self_ns": self_ns,
            "counters": self.counters,
            "refine_evals": refine_evals,
            "wrapped_calls": len(spans) + sum(n for n, _ in self.leaves.values()),
        }


def _per_op(total, ops: int) -> float:
    return total / ops if ops else 0.0


def _ms(name: str):
    return lambda s: _per_op(s["inclusive_ns"][name] / 1e6 / s["factor"], s["ops"])


def _calls(name: str):
    return lambda s: _per_op(s["calls"][name], s["ops"])


def _self_ms(layer: str):
    return lambda s: _per_op(s["self_ns"][layer] / 1e6 / s["factor"], s["ops"])


def _counter(name: str):
    return lambda s: _per_op(s["counters"][name], s["ops"])


def _leaf_calls(name: str):
    return lambda s: _per_op(s["leaf_calls"][name], s["ops"])


def _geometry_calls(s) -> float:
    n = sum(v for k, v in s["calls"].items() if k.startswith("geometry."))
    return _per_op(n, s["ops"])


def _evals_per_root(s) -> float:
    return _per_op(s["refine_evals"], s["calls"]["polynomials.refine_root"])


MS, CALLS = "ms/op", "calls/op"

# (metric, unit, function of the summary); every value is a total per op
SPAN_METRICS = [
    ("polynomials.refine_root.calls", CALLS, _calls("polynomials.refine_root")),
    ("polynomials.refine_root.ms", MS, _ms("polynomials.refine_root")),
    ("polynomials.refine_root.evals_per_root", "evals/root", _evals_per_root),
    ("polynomials.eval.exact_calls", CALLS, _leaf_calls(EVAL_EXACT)),
    ("polynomials.eval.float_calls", CALLS, _leaf_calls(EVAL_FLOAT)),
    ("polynomials.square_free_part.calls", CALLS, _calls("polynomials.RatPoly.square_free_part")),
    ("polynomials.square_free_part.ms", MS, _ms("polynomials.RatPoly.square_free_part")),
    ("polynomials.poly_gcd.calls", CALLS, _calls("polynomials.poly_gcd")),
    ("polynomials.poly_gcd.ms", MS, _ms("polynomials.poly_gcd")),
    ("polynomials.RatFunc.init.calls", CALLS, _calls("polynomials.RatFunc.init")),
    ("polynomials.isolate_real_roots.calls", CALLS, _calls("polynomials.isolate_real_roots")),
    ("polynomials.isolate_real_roots.ms", MS, _ms("polynomials.isolate_real_roots")),
    ("polynomials.sturm_chain.ms", MS, _ms("polynomials.sturm_chain")),
    ("polynomials.count_real_roots.ms", MS, _ms("polynomials.count_real_roots")),
    ("polynomials.RatPoly.mul.calls", CALLS, _leaf_calls(MUL)),
    ("polynomials.self_ms", MS, _self_ms("polynomials")),
    ("cyclotomic.halved_cyclotomic.ms", MS, _ms("cyclotomic.halved_cyclotomic")),
    ("cyclotomic.chebyshev_term.calls", CALLS, _calls("cyclotomic.chebyshev_term")),
    ("cyclotomic.classify_constructible.ms", MS, _ms("cyclotomic.classify_constructible")),
    ("cyclotomic.self_ms", MS, _self_ms("cyclotomic")),
    ("folds.solve_two_fold.calls", CALLS, _calls("folds.solve_two_fold")),
    ("folds.solve_two_fold.ms", MS, _ms("folds.solve_two_fold")),
    ("folds.eliminate_to_quintic.ms", MS, _ms("folds.eliminate_to_quintic")),
    ("folds.two_fold.solutions", "solutions/op", _counter("folds.two_fold.solutions")),
    ("folds.solve_single_fold.calls", CALLS, _calls("folds.solve_single_fold")),
    ("folds.solve_single_fold.ms", MS, _ms("folds.solve_single_fold")),
    ("folds.solve_single_fold.creases", "creases/op", _counter("folds.solve_single_fold.creases")),
    ("folds.self_ms", MS, _self_ms("folds")),
    ("geometry.calls", CALLS, _geometry_calls),
    ("geometry.self_ms", MS, _self_ms("geometry")),
    ("construction.run_script.ms", MS, _ms("construction.run_script")),
    ("construction.verify_hendecagon.ms", MS, _ms("construction.verify_hendecagon")),
    ("construction.self_ms", MS, _self_ms("construction")),
    *[(f"construction.step.{kind}.ms", MS, _ms(f"construction.step.{kind}"))
      for kind in STEP_KINDS],
    ("scriptio.decode.ms", MS, _ms("scriptio.decode")),
    ("render.emit_svg.ms", MS, _ms("render.emit_svg")),
    ("render.write_svgs.ms", MS, _ms("render.write_svgs")),
    ("render.bytes_written", "bytes/op", _counter("render.bytes_written")),
    *[(f"verification.{c}.ms", MS, _ms(f"verification.{c}"))
      for c in ("exact_quintic", "root_census", "two_fold_residuals", "gamma_identity",
                "constructibility_table", "end_to_end", "property_suites")],
    ("verification.self_ms", MS, _self_ms("verification")),
    ("trace.calls_per_op", CALLS, lambda s: _per_op(s["wrapped_calls"], s["ops"])),
]


def span_metrics(summary: dict, factor: float = 1.0) -> dict:
    """Per-op metrics; times are divided by the host factor of the run."""
    summary = dict(summary, factor=factor)
    return {name: {"value": fn(summary), "unit": unit}
            for name, unit, fn in SPAN_METRICS}
