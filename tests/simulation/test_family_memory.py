"""Peak allocation of the hybrid family of one.

A single hybrid run goes through the hybrid family evaluator
(:mod:`repro.simulation.sweep_engine`).  Its per-invocation recording
(timestamps, CV, percentile bins, observation counters) and its decision
buffers dominate the memory of a fused or chunked pass, so these tests
pin them:

* per invocation: int32 bins and counters, counters built by one
  in-place cumsum each, and every configuration evaluated in two reused
  float buffers.  On a store with the fused pipeline's wide, thin shape
  (about 150 invocations per app) the evaluator peaks near 61 bytes per
  invocation; int64 recordings, or fresh float temporaries per decision
  term, push it past 100.
* under ``max_resident_bytes``: the chunk geometry charges the
  evaluator's working set, not just the 8-byte ``times`` column, so a
  budgeted pass over invocation-heavy apps peaks near its budget instead
  of several times over it.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.policies.registry import hybrid_factory
from repro.simulation.engine import RunnerOptions, SimulationEngine
from repro.trace.generator import GeneratorConfig, WorkloadGenerator
from tests.conftest import make_workload

#: Bound on traced peak bytes per simulated invocation.
PEAK_BYTES_PER_INVOCATION = 90.0




def traced_hybrid_run(store, options: RunnerOptions):
    engine = SimulationEngine(store, options)
    tracemalloc.start()
    try:
        result = engine.run_policy(hybrid_factory())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.total_invocations == store.num_invocations >= 80_000
    assert result.mode_usage()["histogram"] > 0
    return peak


def test_hybrid_family_of_one_peak_allocation_per_invocation():
    config = GeneratorConfig(
        num_apps=600,
        duration_minutes=1440.0,
        seed=11,
        max_daily_rate=4000.0,
        rng_scheme="v2",
        target_rps=1.0,
    )
    store = WorkloadGenerator(config).generate().store
    per_invocation = traced_hybrid_run(store, RunnerOptions()) / store.num_invocations
    assert per_invocation <= PEAK_BYTES_PER_INVOCATION, (
        f"hybrid family of one peaked at {per_invocation:.1f} B/invocation"
    )


def test_budgeted_hybrid_pass_peaks_near_its_budget():
    # Invocation-heavy apps of equal length, so every chunk steps its
    # apps in lockstep to the end.
    rng = np.random.default_rng(5)
    store = make_workload(
        {f"app{i:03d}": np.sort(rng.uniform(0.0, 1440.0, 250)) for i in range(400)}
    ).store
    budget = 1_000_000
    peak = traced_hybrid_run(store, RunnerOptions(max_resident_bytes=budget))
    assert peak <= 1.5 * budget, (
        f"budgeted pass peaked at {peak / budget:.2f}x its budget"
    )
