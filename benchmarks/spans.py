"""Spans around lasir's public functions, and the self-time arithmetic.

`instrument` replaces each target function at every module binding that
holds it (``from .x import y`` copies the function into the importing
module, so patching the defining module alone would miss most calls) and
`Recorder` keeps one span per call: name, thread id, start, end. A span's
self time is its duration minus the durations of the spans nested in it on
the same thread; spans on other threads may overlap it freely, as the
replicate threads of `select_k` do.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
import types
from collections import defaultdict


class Recorder:
    """In-memory spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._lock = threading.Lock()

    def span(self, name, start, end):
        with self._lock:
            self.spans.append((name, threading.get_ident(), start, end))
            self.counts[name + "_calls"] += 1

    def add(self, key, value):
        with self._lock:
            self.counts[key] += value

    def totals(self):
        """Summed self time per span name (as ``<name>_s``) plus the counters."""
        out = {f"{name}_s": t for name, t in self_times(self.spans).items()}
        out.update(self.counts)
        return out


def self_times(spans):
    """Summed self time per name from (name, thread, start, end) spans.

    Spans on one thread nest like the call stack that made them; each span's
    children are the spans that start inside it on the same thread, and its
    self time is its duration minus theirs.
    """
    by_thread = defaultdict(list)
    for name, thread, start, end in spans:
        by_thread[thread].append((start, -end, name))
    totals = defaultdict(float)
    for items in by_thread.values():
        items.sort()
        stack = []  # open spans: [end, name, start, child time]

        def close():
            end, name, start, child = stack.pop()
            totals[name] += (end - start) - child

        for start, neg_end, name in items:
            while stack and stack[-1][0] <= start:
                close()
            if stack:
                stack[-1][3] += -neg_end - start
            stack.append([-neg_end, name, start, 0.0])
        while stack:
            close()
    return dict(totals)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _project_extra(rec, args, kwargs, result):
    n, L = result.shape
    d = _arg(args, kwargs, 1, "basis").d
    rec.add("projection.project_gflop", 2.0 * n * d * L / 1e9)


def _build_basis_extra(rec, args, kwargs, result):
    d, L = result.psi.shape
    rec.add("basis.psi_mb", result.psi.nbytes / 2**20)
    if not _arg(args, kwargs, 0, "lattice").mask.all():
        rec.add("basis.gram_gflop", 2.0 * d * L * L / 1e9)


def _save_basis_extra(rec, args, kwargs, result):
    prefix = str(_arg(args, kwargs, 1, "prefix"))
    rec.add("bundles.basis_file_mb", os.path.getsize(prefix + ".dat") / 2**20)


# (defining module, function) -> hook adding computed quantities after a call
TARGETS = {
    ("sem", "m_step"): None,
    ("sem", "e_step"): None,
    ("sem", "q_value"): None,
    ("sem", "s_step"): None,
    ("linmodel", "mvls_fit"): None,
    ("linmodel", "mnlogit_fit"): None,
    ("projection", "project"): _project_extra,
    ("projection", "backproject"): None,
    ("basis", "build_basis"): _build_basis_extra,
    ("lattice", "load_dataset"): None,
    ("lattice", "lattice_from_volume"): None,
    ("bundles", "save_basis"): _save_basis_extra,
    ("bundles", "load_basis"): None,
    ("inference", "coef_covariance"): None,
    ("inference", "svc_variance"): None,
    ("inference", "wald_map"): None,
    ("inference", "fdr_bh"): None,
    ("metrics", "validate_projection"): None,
    ("baselines", "kmeans"): None,
    ("baselines", "kmlr_fit"): None,
    ("baselines", "svcm_fit"): None,
}


def _wrap(fn, name, rec, extra):
    error_key = "sem.m_step_redraws" if name == "sem.m_step" else None
    degenerate = sys.modules["lasir.sem"].DegenerateGroupError

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_name = name
        if name == "metrics.validate_projection":
            span_name = "metrics.validate_" + _arg(args, kwargs, 3, "mode")
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except degenerate:
            if error_key:
                rec.add(error_key, 1)
            raise
        finally:
            rec.span(span_name, start, time.perf_counter())
        if extra is not None:
            extra(rec, args, kwargs, result)
        return result

    return traced


def instrument(rec):
    """Wrap every target at every lasir module binding; returns an undo list."""
    originals = {}
    for (module, func), extra in TARGETS.items():
        fn = getattr(sys.modules["lasir." + module], func)
        originals[fn] = _wrap(fn, f"{module}.{func}", rec, extra)
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "lasir" or mod_name.startswith("lasir.")):
            continue
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in originals:
                setattr(mod, attr, originals[value])
                undo.append((mod, attr, value))
    return undo


def restore(undo):
    for mod, attr, value in undo:
        setattr(mod, attr, value)
