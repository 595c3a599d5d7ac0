"""Outside-in tracer for one eigenflow process.

The tracer replaces public functions of the package by timing wrappers, at
the name each caller looks up, so nothing under ``src/`` changes.  A
thread-local stack of open spans gives every span its self time: its
duration minus the time spent in traced calls it made.  Spans are summed per
name in memory and written out as JSON when the process ends.

``layer_metrics`` turns those sums into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import threading
from time import perf_counter
from typing import Callable, Dict, Optional


def _size(result) -> int:
    return int(getattr(result, "size", 1))


def _matrices(result) -> int:
    """Matrices in a (..., n, n) stack."""
    return math.prod(result.shape[:-2])


def _spectra(result) -> int:
    """Spectra in a (..., n) stack of eigenvalues."""
    return math.prod(result.shape[:-1])


def _forced_sorts(result) -> int:
    return int(result.forced_sorts)


# (owner, attribute, span name, work count taken from the result).
# The owner is where the caller looks the name up: ``diagnostics`` binds
# its helpers with ``from ... import``, so they are wrapped there.
SPANS = (
    ("eigenflow.cli", "parse_config", "config.parse_config", None),
    ("eigenflow.rng", "normals", "rng.normals", _size),
    ("eigenflow.sampling", "factor_grid", "sampling.factor_grid", None),
    ("eigenflow.sampling", "sample_entry_block", "sampling.sample_entry_block", None),
    ("eigenflow.sampling", "circulant_fbm_block", "sampling.circulant_fbm_block", None),
    ("eigenflow.matrixflow", "assemble_from_triangle", "matrixflow.assemble_from_triangle",
     _matrices),
    ("eigenflow.diagnostics", "sample_flows", "matrixflow.sample_flows", None),
    ("eigenflow.diagnostics", "spectra_of_stack", "matrixflow.spectra_of_stack", None),
    ("eigenflow.eigensolvers", "eigvalsh_stack", "eigensolvers.eigvalsh_stack", _spectra),
    ("eigenflow.diagnostics", "divided_difference_stack", "measures.divided_difference_stack",
     None),
    ("eigenflow.diagnostics", "kolmogorov_distance", "measures.kolmogorov_distance", None),
    ("eigenflow.diagnostics", "law_at_time", "limitlaw.law_at_time", None),
    ("eigenflow.limitlaw", "burgers_solve", "limitlaw.burgers_solve", None),
    ("eigenflow.limitlaw.BurgersEvolved", "pdf", "limitlaw.BurgersEvolved.pdf", _size),
    ("eigenflow.limitlaw.BurgersEvolved", "cdf", "limitlaw.BurgersEvolved.cdf", None),
    ("eigenflow.diagnostics", "weak_equation_residual", "diagnostics.weak_equation_residual",
     None),
    ("eigenflow.diagnostics", "collision_proximity", "diagnostics.collision_proximity", None),
    ("eigenflow.diagnostics", "dyson_crosscheck", "diagnostics.dyson_crosscheck",
     _forced_sorts),
)


def _resolve(path: str):
    """A module, or a class inside one, from its dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Sums calls, busy time, self time and work counts per span name."""

    def __init__(self):
        self.totals: Dict[str, Dict[str, float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def install(self) -> None:
        for owner, attr, name, count in SPANS:
            self.wrap(_resolve(owner), attr, name, count)

    def wrap(self, owner, attr: str, name: str,
             count: Optional[Callable[[object], int]] = None) -> None:
        fn = getattr(owner, attr)
        self.totals[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += busy
                with self._lock:
                    rec = self.totals[name]
                    rec["calls"] += 1
                    rec["busy_s"] += busy
                    rec["self_s"] += busy - children[0]
            if count is not None:
                work = count(result)
                with self._lock:
                    self.totals[name]["count"] += work
            return result

        setattr(owner, attr, traced)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.totals, fh, sort_keys=True)


# per-layer self time: metric -> the spans whose self time it sums.
# Every span belongs to exactly one layer, so the layers and
# runner.other_s add up to the traced wall time.
LAYER_SELF_TIMES = {
    "config.parse_s": ("config.parse_config",),
    "rng.normals_s": ("rng.normals",),
    "sampling.factor_s": ("sampling.factor_grid",),
    "sampling.cholesky_s": ("sampling.sample_entry_block",),
    "sampling.circulant_s": ("sampling.circulant_fbm_block",),
    "matrixflow.assemble_s": ("matrixflow.assemble_from_triangle", "matrixflow.sample_flows"),
    "eigensolvers.eigvalsh_s": ("eigensolvers.eigvalsh_stack", "matrixflow.spectra_of_stack"),
    "measures.divdiff_s": ("measures.divided_difference_stack",),
    "measures.kolmogorov_s": ("measures.kolmogorov_distance",),
    "limitlaw.law_s": ("limitlaw.law_at_time",),
    "limitlaw.cdf_s": ("limitlaw.BurgersEvolved.cdf",),
    "limitlaw.pdf_s": ("limitlaw.BurgersEvolved.pdf",),
    "limitlaw.burgers_solve_s": ("limitlaw.burgers_solve",),
    "diagnostics.reduce_s": ("diagnostics.weak_equation_residual",
                             "diagnostics.collision_proximity"),
    "diagnostics.sde_s": ("diagnostics.dyson_crosscheck",),
}


def _per(total: float, count: float, scale: float) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(totals: Dict[str, Dict[str, float]], wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced process that ran for ``wall_s``."""
    metrics = {name: sum(totals[s]["self_s"] for s in spans)
               for name, spans in LAYER_SELF_TIMES.items()}
    metrics["runner.other_s"] = wall_s - sum(metrics.values())
    metrics["rng.normals_count"] = totals["rng.normals"]["count"]
    metrics["rng.ns_per_normal"] = _per(metrics["rng.normals_s"],
                                        metrics["rng.normals_count"], 1e9)
    metrics["matrixflow.matrices"] = totals["matrixflow.assemble_from_triangle"]["count"]
    metrics["eigensolvers.us_per_matrix"] = _per(
        metrics["eigensolvers.eigvalsh_s"], totals["eigensolvers.eigvalsh_stack"]["count"], 1e6)
    metrics["measures.kolmogorov_calls"] = totals["measures.kolmogorov_distance"]["calls"]
    metrics["limitlaw.pdf_evals"] = totals["limitlaw.BurgersEvolved.pdf"]["count"]
    metrics["limitlaw.burgers_solves"] = totals["limitlaw.burgers_solve"]["calls"]
    metrics["limitlaw.us_per_solve"] = _per(metrics["limitlaw.burgers_solve_s"],
                                            metrics["limitlaw.burgers_solves"], 1e6)
    metrics["diagnostics.forced_sorts"] = totals["diagnostics.dyson_crosscheck"]["count"]
    metrics["trace.wall_s"] = wall_s
    return metrics
