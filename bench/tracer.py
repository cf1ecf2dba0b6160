"""Benchmark-side tracer: spans around every call into pinnet's layers.

install() replaces each public function of the layer modules with a wrapper
that records a span, and rebinds every name another pinnet module imported
with ``from .x import y`` (criteria.laplacian, selection.lambda_min_gt0,
cli.lambda_min_gt0, the package namespace, ...). It also wraps the
constructors that do work (SymMatrix, PinnedSystemSpec) and numpy's dense
eigen and SVD entry points, so eigensolve counts stay valid when a later
version of the program stops going through eig_sym. restore() puts every
original back.

A span is [name, start, end, parent index, operation id, info]. Spans are
recorded only while ``op`` is set, and numpy spans only inside a pinnet
span, so the benchmark's own numpy work (input generation, oracles, checks)
is never counted. They stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("graphs", "spectral", "bounds", "criteria", "selection", "dynamics", "cli")
LINALG = ("eigh", "eigvalsh", "eig", "eigvals", "svd")


def _flops(kind: str, shape: tuple, vectors: bool) -> float:
    """Textbook dense operation counts (Golub & Van Loan), labelled computed."""
    batch = math.prod(shape[:-2])
    rows, cols = shape[-2], shape[-1]
    if kind == "svd":
        m, n = max(rows, cols), min(rows, cols)
        per = (4 * m * n * n + 8 * n**3) if vectors else (4 * m * n * n - 4 * n**3 / 3)
    elif kind in ("eig", "eigvals"):
        per = (25 if vectors else 10) * cols**3
    else:
        per = (9 if vectors else 4 / 3) * cols**3
    return batch * per


def _linalg_info(kind: str):
    def info(args, kwargs):
        shape = np.shape(args[0])
        vectors = kind in ("eigh", "eig") or (
            kind == "svd" and kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        )
        return {"n": shape[-1], "vectors": bool(vectors), "flops": _flops(kind, shape, bool(vectors))}
    return info


def _stdout_pos(args=(), kwargs=None):
    try:
        return sys.stdout.tell()
    except (AttributeError, OSError, ValueError):
        return None


def _cli_main_info(args, kwargs, result, before):
    after = _stdout_pos()
    return {"stdout": after - before if None not in (before, after) else 0}


def _simulate_info(args, kwargs, traj, before):
    arrays = (traj.times, traj.states, traj.reference, traj.errors, traj.lyapunov)
    return {
        "steps": traj.steps,
        "updates": traj.steps * traj.states[0].size,
        "bytes": sum(a.nbytes for a in arrays),
    }


def _csv_info(args, kwargs, result, before):
    traj, target = args[0], args[1]
    size = os.path.getsize(target) if isinstance(target, (str, os.PathLike)) else 0
    return {"rows": traj.states.size, "bytes": size}


def _select_info(args, kwargs, result, before):
    return {"picks": len(result.pinned)}


INFO = {
    "cli.main": (_stdout_pos, _cli_main_info),
    "dynamics.simulate": (None, _simulate_info),
    "dynamics.write_trajectory_csv": (None, _csv_info),
    "selection.greedy_select": (None, _select_info),
    "selection.degree_select": (None, _select_info),
    "selection.exhaustive_select": (None, _select_info),
}
INFO.update({f"numpy.linalg.{k}": (_linalg_info(k), None) for k in LINALG})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, nested_only: bool = False):
        """Wrap fn in a span; with nested_only, only calls made from inside
        another span (the program's, not the benchmark's) are recorded."""
        pre, post = INFO.get(name, (None, None))
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if self.op is None or (nested_only and not stack):
                return fn(*args, **kwargs)
            before = pre(args, kwargs) if pre else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None if post else before]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                rec[5] = post(args, kwargs, result, before)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from pinnet import criteria, spectral

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"pinnet.{layer}"]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        pinnet_modules = [m for k, m in sys.modules.items() if k == "pinnet" or k.startswith("pinnet.")]
        for mod in pinnet_modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
        self._set(spectral.SymMatrix, "__init__",
                  self.wrap("spectral.SymMatrix", spectral.SymMatrix.__init__))
        self._set(criteria.PinnedSystemSpec, "__post_init__",
                  self.wrap("criteria.PinnedSystemSpec", criteria.PinnedSystemSpec.__post_init__))
        for kind in LINALG:
            self._set(np.linalg, kind, self.wrap(f"numpy.linalg.{kind}", getattr(np.linalg, kind), True))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        return layer_metrics(self.spans)

    def dump(self, path) -> None:
        """Write the spans as one JSON document: field names, then rows."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info"], "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics


def _self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]


def _under(spans, idx: int, names: set) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


SELECTION_ENTRY = {"selection.greedy_select", "selection.degree_select", "selection.exhaustive_select"}

# name -> (unit, better); the values come from layer_metrics() and, for
# trace.overhead_frac, from the runner.
PER_LAYER = {
    "graphs.laplacian.calls": ("count", "lower"),
    "graphs.laplacian.self_s": ("s", "lower"),
    "graphs.degrees.calls": ("count", "lower"),
    "graphs.incidence.self_s": ("s", "lower"),
    "graphs.components.self_s": ("s", "lower"),
    "graphs.parse.self_s": ("s", "lower"),
    "spectral.eigh.calls": ("count", "lower"),
    "spectral.eigh.vector_calls": ("count", "lower"),
    "spectral.eigh.calls_n_gt_64": ("count", "lower"),
    "spectral.eigh.flops_computed": ("flop", "lower"),
    "spectral.lapack_s": ("s", "lower"),
    "spectral.eig_sym.self_s": ("s", "lower"),
    "spectral.symmatrix.self_s": ("s", "lower"),
    "bounds.calls": ("count", "lower"),
    "bounds.self_s": ("s", "lower"),
    "criteria.evaluate.calls": ("count", "lower"),
    "criteria.evaluate.self_s": ("s", "lower"),
    "criteria.eigh_per_evaluate": ("ratio", "lower"),
    "criteria.pinned_operator.calls": ("count", "lower"),
    "criteria.pinned_operator.self_s": ("s", "lower"),
    "criteria.rhs_threshold.calls": ("count", "lower"),
    "criteria.spec_init.self_s": ("s", "lower"),
    "selection.objective_evals": ("count", "lower"),
    "selection.eigh_per_pick": ("ratio", "lower"),
    "selection.self_s": ("s", "lower"),
    "dynamics.rk4_steps": ("count", "lower"),
    "dynamics.state_updates": ("count", "lower"),
    "dynamics.simulate.self_s": ("s", "lower"),
    "dynamics.step_us": ("us", "lower"),
    "dynamics.check_decay.self_s": ("s", "lower"),
    "dynamics.csv.self_s": ("s", "lower"),
    "dynamics.csv.bytes": ("B", "lower"),
    "dynamics.csv.rows": ("count", "lower"),
    "dynamics.trajectory_bytes": ("B", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.load_config.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("B", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer totals over the recorded spans (all but trace.overhead_frac).

    Ratios with a zero base (a layer the workload never calls) read 0.
    """
    selfs = _self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    info: dict[str, float] = defaultdict(float)
    eig = {"calls": 0, "vector_calls": 0, "gt64": 0, "flops": 0.0, "time": 0.0,
           "in_evaluate": 0, "in_selection": 0}
    for idx, (rec, own) in enumerate(zip(spans, selfs)):
        name = rec[0]
        calls[name] += 1
        self_s[name] += own
        if rec[5] is not None:
            for key, value in rec[5].items():
                info[f"{name}:{key}"] += value
        if name.startswith("numpy.linalg."):
            eig["calls"] += 1
            eig["vector_calls"] += rec[5]["vectors"]
            eig["gt64"] += rec[5]["n"] > 64
            eig["flops"] += rec[5]["flops"]
            eig["time"] += rec[2] - rec[1]
            eig["in_evaluate"] += _under(spans, idx, {"criteria.evaluate"})
            eig["in_selection"] += _under(spans, idx, SELECTION_ENTRY)

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    picks = sum(info[f"{n}:picks"] for n in SELECTION_ENTRY)
    steps = info["dynamics.simulate:steps"]
    return {
        "graphs.laplacian.calls": calls["graphs.laplacian"],
        "graphs.laplacian.self_s": self_s["graphs.laplacian"],
        "graphs.degrees.calls": calls["graphs.degrees"],
        "graphs.incidence.self_s": self_s["graphs.incidence"],
        "graphs.components.self_s": self_s["graphs.connected_components"] + self_s["graphs.is_connected"],
        "graphs.parse.self_s": self_s["graphs.parse_edge_list"],
        "spectral.eigh.calls": eig["calls"],
        "spectral.eigh.vector_calls": eig["vector_calls"],
        "spectral.eigh.calls_n_gt_64": eig["gt64"],
        "spectral.eigh.flops_computed": eig["flops"],
        "spectral.lapack_s": eig["time"],
        "spectral.eig_sym.self_s": self_s["spectral.eig_sym"],
        "spectral.symmatrix.self_s": self_s["spectral.SymMatrix"],
        "bounds.calls": sum(v for k, v in calls.items() if k.startswith("bounds.")),
        "bounds.self_s": layer_self("bounds."),
        "criteria.evaluate.calls": calls["criteria.evaluate"],
        "criteria.evaluate.self_s": self_s["criteria.evaluate"],
        "criteria.eigh_per_evaluate": ratio(eig["in_evaluate"], calls["criteria.evaluate"]),
        "criteria.pinned_operator.calls": calls["criteria.pinned_operator"],
        "criteria.pinned_operator.self_s": self_s["criteria.pinned_operator"],
        "criteria.rhs_threshold.calls": calls["criteria.rhs_threshold"],
        "criteria.spec_init.self_s": self_s["criteria.PinnedSystemSpec"],
        "selection.objective_evals": calls["selection.evaluate_pinning"],
        "selection.eigh_per_pick": ratio(eig["in_selection"], picks),
        "selection.self_s": layer_self("selection."),
        "dynamics.rk4_steps": steps,
        "dynamics.state_updates": info["dynamics.simulate:updates"],
        "dynamics.simulate.self_s": self_s["dynamics.simulate"],
        "dynamics.step_us": ratio(1e6 * self_s["dynamics.simulate"], steps),
        "dynamics.check_decay.self_s": self_s["dynamics.check_decay"],
        "dynamics.csv.self_s": self_s["dynamics.write_trajectory_csv"],
        "dynamics.csv.bytes": info["dynamics.write_trajectory_csv:bytes"],
        "dynamics.csv.rows": info["dynamics.write_trajectory_csv:rows"],
        "dynamics.trajectory_bytes": info["dynamics.simulate:bytes"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.load_config.self_s": self_s["cli.load_analysis_config"],
        "cli.stdout_bytes": info["cli.main:stdout"],
    }
