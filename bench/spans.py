"""In-memory spans around the calls into each cdfdr module.

A :class:`Tracer` replaces the public array functions of the package with
wrappers that record one span per call: name, start, end, parent span and
op id, plus the length of the array that entered the call.  The wrapper is
bound everywhere the original function is bound, so a call through an
importing module's name (``cdfdr.cli.fit_cdfdr``,
``cdfdr.pi0.eval_comparison_density_many``) is traced too.  Per-element
scalar functions such as ``normal_cdf`` are never wrapped; their counts are
derived from the array lengths recorded here.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, span name, position of the array argument or None).
# A span's self time is reported as the per-layer metric "<span name>.s".
TRACED = [
    ("cli", "main", "cli.main", None),
    ("cli", "read_input_table", "cli.read_input_table", None),
    ("pipeline", "t_to_z", "pipeline.t_to_z", 0),
    ("pipeline", "NullSpec.cdf_many", "pipeline.null_cdf", 1),
    ("pipeline", "to_pvalues", "pipeline.to_pvalues", 0),
    ("pipeline", "fit_cdfdr", "pipeline.fit_cdfdr", 0),
    ("pipeline", "local_fdr_many", "pipeline.local_fdr_many", 1),
    ("pipeline", "discoveries", "pipeline.discoveries", 1),
    ("pipeline", "integrate_nonnull_density", "pipeline.integrate_nonnull_density", None),
    ("special", "beta_cdf_many", "special.beta_cdf_many", 0),
    ("special", "beta_pdf_many", "special.beta_pdf_many", 0),
    ("special", "student_t_cdf_many", "special.student_t_cdf_many", 0),
    ("betafit", "fit_beta_mle", "betafit.fit_beta_mle", 0),
    ("betafit", "smooth_pvalues", "betafit.smooth_pvalues", 0),
    ("legendre", "basis_matrix", "legendre.basis_matrix", 1),
    ("density", "score_coefficients", "density.score_coefficients", 0),
    ("density", "eval_comparison_density_many", "density.eval_comparison_density_many", 1),
    ("density", "integrate_comparison_density", "density.integrate_comparison_density", None),
    ("density", "clipped_measure", "density.clipped_measure", None),
    ("pi0", "estimate_pi0", "pi0.estimate_pi0", 0),
    ("quadrature", "integrate_unit", "quadrature.integrate_unit", None),
    ("simulate", "run_replicates", "simulate.run_replicates", None),
    ("simulate", "gen_mixture_uniform", "simulate.gen_mixture_uniform", None),
]

# Span fields, stored as lists to keep the recording cheap.
NAME, START, END, PARENT, OP, POINTS, EXTRA = range(7)


def _size(value) -> int:
    size = getattr(value, "size", None)
    if size is not None:
        return int(size)
    try:
        return len(value)
    except TypeError:
        return 1


def _extra(name: str, args, result):
    """Facts a span keeps beyond its timing: fit outcome, null kind, failures."""
    if name == "betafit.fit_beta_mle":
        return [result.iterations, bool(result.converged)]
    if name == "pipeline.null_cdf":
        return args[0].kind
    if name == "simulate.run_replicates":
        return len(result.failed_replicates)
    return None


class Tracer:
    """Records spans in memory while installed; :meth:`uninstall` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, array_arg: int | None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points = _size(args[array_arg]) if array_arg is not None and len(args) > array_arg else 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, points, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            span[EXTRA] = _extra(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function of the cdfdr modules loaded so far."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "cdfdr" or key.startswith("cdfdr."))]
        for module_name, attr, name, array_arg in TRACED:
            home = sys.modules.get(f"cdfdr.{module_name}")
            if home is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, array_arg))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, array_arg)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def self_times(spans: list[list]) -> dict[int, dict[str, float]]:
    """Self seconds per op and span name: duration minus direct children."""
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for index, span in enumerate(spans):
        out[span[OP]][span[NAME]] += span[END] - span[START] - child_time[index]
    return out


def op_counts(spans: list[list]) -> dict[int, dict[str, float]]:
    """Exact counts per op: calls and array points per span name, fit outcomes."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        counts = out[span[OP]]
        name = span[NAME]
        counts[f"{name}.calls"] += 1
        counts[f"{name}.points"] += span[POINTS]
        if name == "betafit.fit_beta_mle" and span[EXTRA] is not None:
            counts["betafit.iterations"] += span[EXTRA][0]
            counts["betafit.converged"] += span[EXTRA][1]
        elif name == "pipeline.null_cdf" and span[EXTRA] != "student_t":
            counts["special.normal_cdf.calls"] += span[POINTS]
        elif name == "pipeline.t_to_z":
            # One normal_quantile per point, each refined by one normal_cdf.
            counts["special.normal_quantile.calls"] += span[POINTS]
            counts["special.normal_cdf.calls"] += span[POINTS]
        elif name == "simulate.run_replicates" and span[EXTRA] is not None:
            counts["simulate.failed_replicates"] += span[EXTRA]
    return out
