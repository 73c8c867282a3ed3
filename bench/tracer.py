"""Outside-in tracer for the optospring layers.

The tracer wraps every public function of the layer modules (``config``,
``core``, ``quasistatic``, ``finite_bandwidth``, ``optimize``, ``cli``)
in every ``optospring`` namespace that binds it. ``from ... import``
bindings such as ``optimize.equivalent_input_noise`` or ``cli.stability``
are separate names for the same function, so each one is replaced; a
wrapper set only on the defining module would miss calls made through
them. The program itself is not modified.

Spans (name, parent, start, end) are kept in compact in-memory arrays
and written out when the traced pass ends. A span's self time is its
duration minus the durations of its direct child spans. Observers that
record work counts (points, rows, bytes, optimizer evaluations) run
after a span has closed, on a paused clock, so their cost is charged to
no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("config", "core", "quasistatic", "finite_bandwidth", "optimize", "cli")
# private functions that mark a layer boundary: the file write of the CLI
BOUNDARIES = {"cli": ("_atomic_write",)}
# an optimum closer than this share of its search range to a bound stopped there
AT_BOUND_TOL = 1e-6

PER_LAYER_UNITS = {
    "config.calls": "count",
    "config.self_s": "s",
    "core.calls": "count",
    "core.self_s": "s",
    "core.stability_calls": "count",
    "quasistatic.calls": "count",
    "quasistatic.points": "count",
    "quasistatic.self_s": "s",
    "quasistatic.s_per_point": "s",
    "finite_bandwidth.calls": "count",
    "finite_bandwidth.points": "count",
    "finite_bandwidth.self_s": "s",
    "finite_bandwidth.s_per_point": "s",
    "finite_bandwidth.bytes_computed": "B",
    "finite_bandwidth.dip_self_s": "s",
    "optimize.searches": "count",
    "optimize.objective_evals": "count",
    "optimize.evals_per_search": "count",
    "optimize.self_s": "s",
    "optimize.optima": "count",
    "optimize.at_bound_ratio": "ratio",
    "cli.rows": "count",
    "cli.bytes": "B",
    "cli.format_s": "s",
    "cli.write_s": "s",
    "cli.nonfinite_cells": "count",
    "trace.overhead": "ratio",
}


def _near(value: float, bound: float, span: float) -> bool:
    return abs(value - bound) <= AT_BOUND_TOL * span


def detuning_at_bound(psi: float, spec) -> bool:
    """Whether a detuning search stopped at a bound of its bracket."""
    lo, hi = spec.psi_bounds
    return _near(psi, lo, hi - lo) or _near(psi, hi, hi - lo)


def coupling_at_bound(coupling2: float, spec) -> bool:
    """Whether a coupling search stopped at a bound of its log(coupling^2) range."""
    lo, hi = (math.log(b) for b in spec.xi2_bounds)
    u = math.log(coupling2)
    return _near(u, lo, hi - lo) or _near(u, hi, hi - lo)


def _argument(sig: inspect.Signature, args, kwargs, name: str):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# Observers: (tracer, span index, signature, args, kwargs, result) -> None


def _obs_noise(tr, idx, sig, args, kwargs, result):
    tr.counts["quasistatic.points"] += int(np.size(_argument(sig, args, kwargs, "omega")))


def _obs_full_transfer(tr, idx, sig, args, kwargs, result):
    omega = np.asarray(_argument(sig, args, kwargs, "omega"), dtype=float)
    out = sum(np.asarray(c).nbytes for c in (result.c_q, result.c_p, result.c_sig))
    tr.counts["finite_bandwidth.bytes_computed"] += omega.nbytes + out


def _obs_spectrum(tr, idx, sig, args, kwargs, result):
    tr.counts["finite_bandwidth.points"] += int(result.omega.size)
    tr.counts["finite_bandwidth.bytes_computed"] += result.s_sig.nbytes + result.s_sql.nbytes


def _obs_search(tr, idx, sig, args, kwargs, result):
    tr.counts["optimize.searches"] += 1
    tr.counts["optimize.objective_evals"] += int(result.iterations)


def _obs_xi_optimum(tr, idx, sig, args, kwargs, result):
    spec = _argument(sig, args, kwargs, "spec")
    tr.optima[idx] = result.constraint_active or coupling_at_bound(result.coupling2, spec)


def _obs_detuning_optimum(tr, idx, sig, args, kwargs, result):
    spec = _argument(sig, args, kwargs, "spec")
    tr.optima[idx] = detuning_at_bound(result.detuning, spec)


def _obs_write_table(tr, idx, sig, args, kwargs, result):
    blocks = _argument(sig, args, kwargs, "blocks")
    rows = nonfinite = 0
    for _, block in blocks:
        rows += len(block)
        for row in block:
            for v in row:
                if not math.isfinite(v):
                    nonfinite += 1
    tr.counts["cli.rows"] += rows
    tr.counts["cli.nonfinite_cells"] += nonfinite


def _obs_write(tr, idx, sig, args, kwargs, result):
    tr.counts["cli.bytes"] += len(_argument(sig, args, kwargs, "text").encode("utf-8"))


OBSERVERS = {
    "quasistatic.equivalent_input_noise": _obs_noise,
    "finite_bandwidth.full_transfer": _obs_full_transfer,
    "finite_bandwidth.spectrum": _obs_spectrum,
    "optimize.minimize_over_xi": _obs_search,
    "optimize.minimize_xi_quasistatic": _obs_xi_optimum,
    "optimize.minimize_over_detuning": _obs_detuning_optimum,
    "cli.write_table": _obs_write_table,
    "cli._atomic_write": _obs_write,
}


class Tracer:
    """Wraps the layer functions while installed and records their spans."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.paused_ns = 0
        self.counts: Counter = Counter()
        self.optima: dict[int, bool] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def _targets(self) -> dict[int, tuple[object, str]]:
        """id(function) -> (function, "layer.name") for every traced function."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"optospring.{layer}")
            for name, obj in vars(mod).items():
                public = not name.startswith("_") or name in BOUNDARIES.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (obj, f"{layer}.{name}")
        return targets

    def install(self) -> None:
        targets = self._targets()
        wrappers = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "optospring" or mod_name.startswith("optospring.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is None or hit[0] is not obj:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, hit[1])
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, obj = self._patches.pop()
            setattr(mod, attr, obj)

    def _wrap(self, fn, qualname: str):
        nid = len(self.names)
        self.names.append(qualname)
        observer = OBSERVERS.get(qualname)
        sig = inspect.signature(fn) if observer else None
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock() - tracer.paused_ns)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock() - tracer.paused_ns
                stack.pop()
            if observer is not None:
                t0 = clock()
                observer(tracer, idx, sig, args, kwargs, result)
                tracer.paused_ns += clock() - t0
            return result

        return wrapper

    # -- analysis -----------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def _arrays(self):
        # copies, so the span arrays stay appendable
        name = np.array(self.span_name, dtype=np.int32)
        parent = np.array(self.span_parent, dtype=np.int32)
        dur = (
            np.array(self.span_end, dtype=np.int64) - np.array(self.span_start, dtype=np.int64)
        ).astype(float) * 1e-9
        child = parent >= 0
        self_s = dur - np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return name, parent, dur, self_s

    def _layer_of(self) -> np.ndarray:
        layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        return np.array([layer_index[n.split(".", 1)[0]] for n in self.names], dtype=np.int64)

    def self_s_by_layer(self, lo: int, hi: int) -> dict[str, float]:
        """Self time per layer, and write_table's, of the spans with index in [lo, hi)."""
        name, _, _, self_s = self._arrays()
        name, self_s = name[lo:hi], self_s[lo:hi]
        totals = np.bincount(self._layer_of()[name], weights=self_s, minlength=len(LAYERS))
        out = {l: float(totals[i]) for i, l in enumerate(LAYERS)}
        out["cli.format_s"] = float(self_s[name == self.names.index("cli.write_table")].sum())
        return out

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything traced so far (not the overhead)."""
        name, parent, dur, self_s = self._arrays()
        nid = {n: i for i, n in enumerate(self.names)}
        layer = self._layer_of()[name]
        calls = np.bincount(layer, minlength=len(LAYERS))
        self_by_layer = np.bincount(layer, weights=self_s, minlength=len(LAYERS))

        def by_name(qualname, values):
            i = nid.get(qualname)
            return float(values[name == i].sum()) if i is not None else 0.0

        def count_of(qualname):
            i = nid.get(qualname)
            return int(np.count_nonzero(name == i)) if i is not None else 0

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for i, l in enumerate(LAYERS):
            out[f"{l}.calls"] = int(calls[i])
            out[f"{l}.self_s"] = float(self_by_layer[i])
        c = self.counts
        out["core.stability_calls"] = count_of("core.stability")
        out["quasistatic.points"] = c["quasistatic.points"]
        out["quasistatic.s_per_point"] = ratio(
            by_name("quasistatic.equivalent_input_noise", dur), c["quasistatic.points"]
        )
        out["finite_bandwidth.points"] = c["finite_bandwidth.points"]
        out["finite_bandwidth.s_per_point"] = ratio(
            by_name("finite_bandwidth.spectrum", dur), c["finite_bandwidth.points"]
        )
        out["finite_bandwidth.bytes_computed"] = c["finite_bandwidth.bytes_computed"]
        out["finite_bandwidth.dip_self_s"] = by_name("finite_bandwidth.dip_analysis", self_s)
        out["optimize.searches"] = c["optimize.searches"]
        out["optimize.objective_evals"] = c["optimize.objective_evals"]
        out["optimize.evals_per_search"] = ratio(
            c["optimize.objective_evals"], c["optimize.searches"]
        )
        # an optimum is a detuning search, or a coupling search not nested in one
        detuning_id = nid.get("optimize.minimize_over_detuning", -1)
        optima = [
            at
            for idx, at in self.optima.items()
            if not self._inside(idx, parent, name, detuning_id)
        ]
        out["optimize.optima"] = len(optima)
        out["optimize.at_bound_ratio"] = ratio(sum(optima), len(optima))
        out["cli.rows"] = c["cli.rows"]
        out["cli.bytes"] = c["cli.bytes"]
        out["cli.format_s"] = by_name("cli.write_table", self_s)
        out["cli.write_s"] = by_name("cli._atomic_write", dur)
        out["cli.nonfinite_cells"] = c["cli.nonfinite_cells"]
        return out

    @staticmethod
    def _inside(idx, parent, name, ancestor_id) -> bool:
        p = parent[idx]
        while p >= 0:
            if name[p] == ancestor_id:
                return True
            p = parent[p]
        return False

    def write(self, path: str) -> None:
        """Write every span (name, parent, start, end) to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            start_ns=np.array(self.span_start, dtype=np.int64),
            end_ns=np.array(self.span_end, dtype=np.int64),
        )
