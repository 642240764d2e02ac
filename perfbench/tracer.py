"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each mckvlab layer where callers
look them up: a module-level function is replaced under every module
attribute that refers to it (``forward.integrate`` and
``parabolic.integrate`` are one function), and a method is replaced on
its class.  The library itself is not edited.

Each call records a span (name, start, end, parent) and, for some
layers, an amount counted at that boundary (linearised columns, time
steps, transformed points, computed gather bytes).  Spans stay in memory
in flat arrays; after :meth:`Tracer.finish` they are aggregated and
written out.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

from mckvlab import forward, inference, parabolic, sampler, spectral, stability


def _columns_stack(args, kwargs, result):
    return result[0].shape[0]


def _columns_list(args, kwargs, result):
    return len(result)


def _steps(args, kwargs, result):
    return result.M


def _points(args, kwargs, result):
    return np.size(args[1])


def _gather_bytes(args, kwargs, result):
    # _eval_stack gathers two (B, N, n^d) complex slabs, once for the
    # residuals (B = 1) and once for the D derivative columns (B = D)
    like = args[0]
    slabs = like.model.dim + 1
    return 2 * slabs * like.dataset.n_obs * like.model.phi.grid.size * 16


# (span name, owner, attribute, amount counted per call)
TARGETS = [
    ("forward.solve_mckv", forward, "solve_mckv", None),
    ("forward.jacobian_stack", forward, "jacobian_stack", _columns_stack),
    ("forward.jacobian_columns", forward, "jacobian_columns", _columns_list),
    ("forward.second_derivative", forward, "mckv_second_derivative", None),
    ("forward.gram_matrix", forward, "gram_matrix", None),
    ("parabolic.integrate", parabolic, "integrate", _steps),
    ("parabolic.solve_linear_lw", parabolic, "solve_linear_lw", None),
    ("spectral.transport_div", spectral.Grid, "transport_div", None),
    ("spectral.transform", spectral.Grid, "to_values", _points),
    ("spectral.transform", spectral.Grid, "from_values", _points),
    ("inference.generate_data", inference, "generate_data", None),
    ("inference.evaluator_init", inference.LikelihoodEvaluator, "__init__", None),
    ("inference.loglik_and_grad", inference.LikelihoodEvaluator, "loglik_and_grad",
     _gather_bytes),
    ("inference.surrogate", inference, "surrogate_loglik", None),
    ("inference.estimate_c1", inference, "estimate_c1", None),
    ("inference.expected_neg_hessian", inference, "expected_neg_hessian", None),
    ("stability.report", stability, "stability_report", None),
    ("stability.sigma_min_trend", stability, "sigma_min_trend", None),
    ("sampler.run_ula", sampler, "run_ula", None),
    ("sampler.diagnostics", sampler, "integrated_autocorr_time", None),
]


class Tracer:
    """In-memory span recorder that installs and removes the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, amount=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.amount.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if amount is not None:
                self.amount[i] = amount(args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "mckvlab" or k.startswith("mckvlab."))]
        for name, owner, attr, amount in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, amount)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def finish(self):
        """Remove the wrappers and freeze the spans into numpy arrays."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self.table = {"name_id": np.array(self.name_id, dtype=np.int32),
                      "parent": np.array(self.parent, dtype=np.int32),
                      "start": np.array(self.start), "end": np.array(self.end),
                      "amount": np.array(self.amount)}

    # -- after finish() -------------------------------------------------------

    def aggregate(self, windows) -> list[dict[str, dict[str, float]]]:
        """Per-name totals over the spans inside each (t0, t1) window.

        ``s`` sums span durations, ``self_s`` subtracts the time covered by
        each span's children and ``amount`` sums the counted amounts.
        """
        a = self.table
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros_like(dur)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        out = []
        for t0, t1 in windows:
            inside = (a["start"] >= t0) & (a["end"] <= t1)
            totals = {}
            for nid, name in enumerate(self.names):
                m = inside & (a["name_id"] == nid)
                totals[name] = {"calls": int(m.sum()), "s": float(dur[m].sum()),
                                "self_s": float(own[m].sum()),
                                "amount": float(a["amount"][m].sum())}
            out.append(totals)
        return out

    def count_without_child(self, t0: float, t1: float, name: str,
                            child: str) -> int:
        """Spans of ``name`` inside [t0, t1] that made no call to ``child``."""
        a = self.table
        is_child = a["name_id"] == self._ids[child]
        called = np.zeros(a["start"].size, dtype=bool)
        called[a["parent"][is_child & (a["parent"] >= 0)]] = True
        m = ((a["name_id"] == self._ids[name]) & (a["start"] >= t0)
             & (a["end"] <= t1) & ~called)
        return int(m.sum())

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.table)
