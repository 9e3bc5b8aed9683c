"""Spans around the public functions of each slspec module, from outside.

``Tracer.install`` replaces every public function of the traced modules,
and every public method of the classes they define, by a wrapper that
records a span (id, parent id, name, start, end, request).  Names that
other modules imported with ``from .x import f`` are replaced too, by
identity, so a call through ``validation.remainder_gauge`` lands in the
oscillatory layer like a call through ``oscillatory.remainder_gauge``.
``uninstall`` puts the originals back.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Spans stay in
memory until ``write_spans``.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from collections import Counter

import numpy as np

LAYERS = ("potential", "moments", "oscillatory", "asymptotics", "oracle",
          "validation", "cli")
# Arithmetic dunders are the public face of PiecewiseExp; __call__ goes
# through eval, which is traced itself.
DUNDERS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__")
SOLVE_ERRORS = ("IndexingError", "NonconvergenceError", "IntegrationBlowupError")


class Tracer:
    def __init__(self):
        self.spans = []                     # (id, parent, name, start, end, request)
        self.request = 0
        self._stack = []                    # [span id, start, child time]
        self.self_s = Counter()             # layer -> self time
        self.total_s = Counter()            # span name -> inclusive time
        self.calls = Counter()              # span name -> calls
        self.counts = Counter()             # named work counters
        self.solve_ms = []
        self._patched = []                  # (owner, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        stack, spans, tracer = self._stack, self.spans, self
        hook = _HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                tracer.self_s[layer] += dur - frame[2]
                tracer.total_s[name] += dur
                tracer.calls[name] += 1
                spans.append((sid, parent, name, frame[1], end, tracer.request))
                if hook is not None:
                    hook(tracer, args, result, error, dur)

        return traced

    def install(self) -> None:
        wrappers = {}                       # id(original) -> wrapper
        modules = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"slspec.{layer}")
            modules[layer] = mod
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn):
                            continue
                        if meth.startswith("_") and meth not in DUNDERS:
                            continue
                        wrapped = wrappers.get(id(fn))
                        if wrapped is None:
                            wrapped = self._wrap(
                                layer, f"{layer}.{attr}.{meth.strip('_')}", fn)
                            wrappers[id(fn)] = wrapped
                        self._patch(obj, meth, fn, wrapped)
        for owner in list(modules.values()) + [importlib.import_module("slspec")]:
            for attr, obj in list(vars(owner).items()):
                wrapped = wrappers.get(id(obj))
                if wrapped is not None:
                    self._patch(owner, attr, obj, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        c, t, n = self.counts, self.total_s, self.calls
        roots = sum(c[f"route.{r}"] for r in ("bracket", "scan", "secant", "phase"))
        char_evals = (n["oracle.integrate_quasi_system"]
                      + n["oracle.secular_step_exact"])
        out = {f"{layer}.self_s": (self.self_s[layer], "s") for layer in LAYERS}
        out.update({
            "moments.antiderivative_calls": (n["moments.PiecewiseExp.antiderivative"], "count"),
            "moments.mul_calls": (n["moments.PiecewiseExp.mul"], "count"),
            "moments.integral_calls": (n["moments.PiecewiseExp.integral"], "count"),
            "moments.eval_points": (c["eval_points"], "count"),
            "oscillatory.gauge_calls": (n["oscillatory.remainder_gauge"], "count"),
            "oscillatory.correction_calls": (n["oscillatory.correction_terms"], "count"),
            "asymptotics.eigenvalue_calls": (n["asymptotics.eigenvalue_asym"], "count"),
            "asymptotics.eigenfunction_calls": (n["asymptotics.eigenfunction_asym"], "count"),
            "asymptotics.biorth_calls": (n["asymptotics.biorthogonal_asym"], "count"),
            "oracle.solve_calls": (n["oracle.solve_eigenvalue"], "count"),
            "oracle.char_evals": (char_evals, "count"),
            "oracle.evals_per_root": (char_evals / roots if roots else 0.0, "1"),
            "oracle.route.bracket": (c["route.bracket"], "count"),
            "oracle.route.scan": (c["route.scan"], "count"),
            "oracle.route.secant": (c["route.secant"], "count"),
            "oracle.solve_p50_ms": (_percentile(self.solve_ms, 50), "ms"),
            "oracle.solve_p90_ms": (_percentile(self.solve_ms, 90), "ms"),
            "oracle.solve_samples": (len(self.solve_ms), "count"),
            "oracle.eigfun_s": (t["oracle.eigenfunction_numeric"], "s"),
            "oracle.eigfun_calls": (n["oracle.eigenfunction_numeric"], "count"),
            "oracle.solve_failed": (sum(v for k, v in c.items()
                                        if k.startswith("failed.")), "count"),
            "validation.biorth_s": (t["validation.biorthogonality_check"], "s"),
            "potential.load_s": (t["potential.load_potential"], "s"),
        })
        for e in SOLVE_ERRORS:
            out[f"oracle.solve_failed.{e}"] = (c[f"failed.{e}"], "count")
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for sid, parent, name, start, end, req in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "request": req}) + "\n")


def _percentile(values, q) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100 * len(ordered)))]


def _count_eval(tracer, args, result, error, dur):
    tracer.counts["eval_points"] += int(np.size(args[1]))


def _count_solve(tracer, args, result, error, dur):
    tracer.solve_ms.append(dur * 1e3)
    if error is not None:
        tracer.counts[f"failed.{error}"] += 1
    else:
        tracer.counts[f"route.{result.method}"] += 1


_HOOKS = {
    "moments.PiecewiseExp.eval": _count_eval,
    "oracle.solve_eigenvalue": _count_solve,
}
