"""Tests of the benchmark's own code: span arithmetic, instrumentation and
metric names. Run with ``python3 -m pytest benchmarks -q``."""

import json
import os
import re
import threading

import pytest

import spans
from measure import LAYERS, STAGES
from workloads import ROOT, lasir

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_children_on_the_same_thread_only():
    # Thread 1: outer [0, 10] holds mid [2, 5], which holds leaf [3, 4], and a
    # sibling leaf [5, 6] that starts exactly when mid ends. Thread 2 runs
    # outer [1, 9] with leaf [4, 7] at the same time; none of its spans may
    # count as a child of thread 1's.
    recorded = [
        ("outer", 1, 0.0, 10.0), ("mid", 1, 2.0, 5.0), ("leaf", 1, 3.0, 4.0),
        ("leaf", 1, 5.0, 6.0),
        ("outer", 2, 1.0, 9.0), ("leaf", 2, 4.0, 7.0),
    ]
    totals = spans.self_times(recorded)
    assert totals["outer"] == pytest.approx((10 - 3 - 1) + (8 - 3))
    assert totals["mid"] == pytest.approx(3 - 1)
    assert totals["leaf"] == pytest.approx(1 + 1 + 3)
    assert sum(totals.values()) == pytest.approx(10 + 8)


def test_self_time_is_order_independent():
    recorded = [("a", 7, 0.0, 4.0), ("b", 7, 1.0, 2.0), ("a", 8, 0.5, 1.5)]
    assert spans.self_times(recorded[::-1]) == spans.self_times(recorded)


def test_instrument_wraps_every_binding_and_restores():
    original = lasir.linmodel.mvls_fit
    rec = spans.Recorder()
    undo = spans.instrument(rec)
    try:
        bindings = [lasir, lasir.linmodel, lasir.sem, lasir.metrics, lasir.baselines]
        assert all(mod.mvls_fit is not original for mod in bindings)
        assert len({id(mod.mvls_fit) for mod in bindings}) == 1
    finally:
        spans.restore(undo)
    assert all(mod.mvls_fit is original
               for mod in (lasir, lasir.linmodel, lasir.sem, lasir.metrics, lasir.baselines))


def test_traced_fit_on_two_replicate_threads():
    dataset, _, _, basis = lasir.simulate_cube(
        lasir.SimConfig(dims=(6, 6, 6), n=80, n_groups=2, n_sites=3, seed=3))
    rec = spans.Recorder()
    undo = spans.instrument(rec)
    try:
        lasir.fit_sem(dataset, basis, 2, lasir.SemConfig(restarts=4, seed=1, threads=2))
    finally:
        spans.restore(undo)
    totals = rec.totals()
    threads = {thread for name, thread, _, _ in rec.spans if name == "sem.m_step"}
    assert len(threads) == 2
    assert threading.get_ident() not in threads
    assert totals["projection.project_calls"] == 1
    assert totals["projection.project_gflop"] == pytest.approx(2 * 80 * basis.d * basis.L / 1e9)
    assert totals["sem.m_step_calls"] >= totals["linmodel.mnlogit_fit_calls"] > 0
    # m_step's self time excludes the regressions it calls
    m_step_total = sum(end - start for name, _, start, end in rec.spans if name == "sem.m_step")
    assert 0 < totals["sem.m_step_s"] < m_step_total


def test_metric_names_are_valid_and_unique():
    # run.py emits exactly the names BENCHMARK.json lists
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)
    assert {f"{stage}_s" for stage in STAGES} <= set(names)


def test_layer_metrics_are_produced_by_the_instrumentation():
    produced = {"sem.m_step_redraws", "sem.replicates_failed", "projection.project_gflop",
                "basis.psi_mb", "basis.gram_gflop", "bundles.basis_file_mb"}
    for module, func in spans.TARGETS:
        names = [f"{module}.{func}"]
        if func == "validate_projection":
            names = [f"{module}.validate_{mode}" for mode in ("within", "without", "shuffled")]
        produced.update(n + suffix for n in names for suffix in ("_s", "_calls"))
    assert set(LAYERS) <= produced
