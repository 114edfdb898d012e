"""Trace-driven cold-start simulation (Section 5.1 methodology).

Execution engines
-----------------
Policy runs over a workload go through one driver,
:class:`SimulationEngine`; the ``execution`` field of
:class:`RunnerOptions` selects how it evaluates them (see
:mod:`repro.simulation.engine`):

* ``auto`` (default) — every policy is evaluated by its family
  evaluator (:mod:`repro.simulation.sweep_engine`): the constant
  keep-alive grid in closed form over shared per-app gaps, and the hybrid
  histogram policy from one shared histogram-recording pass.  A single
  policy is a family of one.
* ``parallel`` — the same evaluations, with applications sharded across
  a ``fork`` worker pool (``workers`` option, default: all cores) and the
  per-shard results reassembled in workload order, so output is
  deterministic and independent of the worker count.
* ``serial`` — the reference scalar loop: one
  :meth:`ColdStartSimulator.simulate_app` call per application, one
  ``policy.on_invocation`` call per invocation.  Slowest, and the ground
  truth the family evaluators are tested against.  Factories without
  family metadata always take this route.

Multi-policy runs group factories that share a
:attr:`~repro.policies.registry.PolicyFactory.sweep_key` (the whole fixed
keep-alive grid; hybrid configurations sharing one histogram geometry)
into one family evaluation, with per-configuration knobs applied as
decision masks over the shared trace-derived state.  The ``sweep`` field
of :class:`RunnerOptions` selects the grouping.

``tests/simulation/test_engine_equivalence.py`` locks the routes
together: identical cold-start counts and wasted-memory minutes (to
1e-9) for every registered policy family, and
``tests/simulation/test_sweep_equivalence.py`` does the same for
multi-member families.  ``benchmarks/test_bench_engine_speedup.py`` and
``benchmarks/test_bench_sweep_speedup.py`` measure the speedups (see
benchmarks/conftest.py for how to run them).
"""

from repro.simulation.coldstart import (
    AppSimulationTrace,
    ColdStartSimulator,
    InvocationOutcome,
    simulate_application,
)
from repro.simulation.engine import (
    EXECUTION_MODES,
    SWEEP_MODES,
    SimulationEngine,
)
from repro.simulation.metrics import AggregateResult, AppSimResult, merge_results
from repro.simulation.pareto import (
    FrontierComparison,
    TradeOffPoint,
    compare_frontiers,
    interpolate_cold_start_at_memory,
    interpolate_memory_at_cold_start,
    pareto_frontier,
    trade_off_points,
)
from repro.simulation.runner import (
    PolicyComparison,
    RunnerOptions,
    WorkloadRunner,
    run_policy_over_workload,
)
from repro.simulation.sweep import (
    AlwaysColdComparison,
    FIGURE_15_HYBRID_RANGE_HOURS,
    FIGURE_16_CUTOFFS,
    FIGURE_18_CV_THRESHOLDS,
    SweepResult,
    combined_figure_factories,
    figure_factories,
    sweep_arima_contribution,
    sweep_cutoffs,
    sweep_cv_threshold,
    sweep_fixed_and_hybrid,
    sweep_fixed_keepalive,
    sweep_hybrid_ranges,
    sweep_prewarming,
)
from repro.simulation.sweep_engine import (
    FactoryGroup,
    SweepEngine,
    check_unique_policy_names,
    group_factories,
)

__all__ = [
    "AppSimulationTrace",
    "ColdStartSimulator",
    "InvocationOutcome",
    "simulate_application",
    "EXECUTION_MODES",
    "SWEEP_MODES",
    "SimulationEngine",
    "FactoryGroup",
    "SweepEngine",
    "check_unique_policy_names",
    "group_factories",
    "AggregateResult",
    "AppSimResult",
    "merge_results",
    "FrontierComparison",
    "TradeOffPoint",
    "compare_frontiers",
    "interpolate_cold_start_at_memory",
    "interpolate_memory_at_cold_start",
    "pareto_frontier",
    "trade_off_points",
    "PolicyComparison",
    "RunnerOptions",
    "WorkloadRunner",
    "run_policy_over_workload",
    "AlwaysColdComparison",
    "FIGURE_15_HYBRID_RANGE_HOURS",
    "FIGURE_16_CUTOFFS",
    "FIGURE_18_CV_THRESHOLDS",
    "SweepResult",
    "combined_figure_factories",
    "figure_factories",
    "sweep_arima_contribution",
    "sweep_cutoffs",
    "sweep_cv_threshold",
    "sweep_fixed_and_hybrid",
    "sweep_fixed_keepalive",
    "sweep_hybrid_ranges",
    "sweep_prewarming",
]
