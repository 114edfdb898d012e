"""The benchmark's three workloads: inputs, one timed batch, correctness gate.

Every workload is a closed batch: :meth:`build` makes the fixed input
from the seed (set-up), :meth:`batch` drives the same public entry point
as the matching CLI sub-command over that input once (the timed unit),
and :meth:`check` compares the last batch's results with an independent
reference outside the timed region.  Each engine runs in this process:
no fork pool, one generation worker, and the default heapq event core.

Why these three (see ``perfbench/README.md``): ``fused-fleet`` is wide
and thin, so per-application costs (generation, store build, result
rows) dominate; ``policy-sweep`` is narrow and deep, so per-invocation
family evaluation dominates and generation is outside the timed region;
``platform-replay`` bypasses generation and the simulator and times only
the platform's event loop, controller, policy update and invoker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.platform.cluster import ClusterConfig
from repro.platform.replay import ReplayConfig, ReplayFeed, TraceReplayer
from repro.policies.registry import parse_policy_spec
from repro.simulation import fused
from repro.simulation.runner import PolicyComparison, RunnerOptions, WorkloadRunner
from repro.simulation.sweep import combined_figure_factories
from repro.trace.generator import GeneratorConfig, WorkloadGenerator
from repro.trace.store import InvocationStore

MINUTES_PER_DAY = 1440.0
#: The CLI's default cap on per-app average invocations per day.
MAX_DAILY_RATE = 4000.0
#: ``repro simulate`` default policies and ``repro sweep`` default figures.
SIMULATE_POLICIES = ("fixed:10", "fixed:60", "hybrid:240", "no-unloading")
SWEEP_FIGURES = ("fig14", "fig16", "fig18")
REPLAY_POLICIES = ("fixed:10", "hybrid:240")
HYBRID = "hybrid-4h"
BASELINE = "fixed-10min"
#: The repository's oracle tolerance on wasted memory (cold starts: exact).
WASTE_TOLERANCE = 1e-9
#: Stream tag mixed into the seed to pick the oracle's sample of apps.
_SAMPLE_STREAM = 7919


@dataclass
class Check:
    """Outcome of the correctness gate: invocations checked and failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, invocations: int, message: str) -> None:
        self.failed += max(int(invocations), 1)
        self.failures.append(message)


def _serial_oracle(store: InvocationStore, factories) -> dict[str, dict[str, Any]]:
    """Per policy, app id -> result row from the scalar reference loop."""
    runner = WorkloadRunner(store, RunnerOptions(execution="serial", sweep="per-policy"))
    return {
        name: {row.app_id: row for row in result.app_results}
        for name, result in runner.run_policies(factories).items()
    }


def _check_against_oracle(
    check: Check, results: dict, oracle: dict, trace_invocations: int
) -> None:
    """Exact cold starts, waste within tolerance, invocations conserved."""
    for name in oracle:
        check.attempted += trace_invocations
        result = results.get(name)
        if result is None:
            check.fail(trace_invocations, f"{name}: no result")
            continue
        simulated = result.total_invocations
        if simulated != trace_invocations:
            check.fail(
                abs(simulated - trace_invocations),
                f"{name}: simulated {simulated} invocations, trace has {trace_invocations}",
            )
        rows = {row.app_id: row for row in result.app_results if row.app_id in oracle[name]}
        for app_id, expected in oracle[name].items():
            got = rows.get(app_id)
            if got is None:
                check.fail(expected.invocations, f"{name}/{app_id}: missing result row")
            elif got.invocations != expected.invocations or got.cold_starts != expected.cold_starts:
                check.fail(
                    expected.invocations,
                    f"{name}/{app_id}: {got.cold_starts} cold of {got.invocations}, "
                    f"oracle {expected.cold_starts} cold of {expected.invocations}",
                )
            elif abs(got.wasted_memory_minutes - expected.wasted_memory_minutes) > WASTE_TOLERANCE:
                check.fail(
                    expected.invocations,
                    f"{name}/{app_id}: wasted memory {got.wasted_memory_minutes!r}, "
                    f"oracle {expected.wasted_memory_minutes!r}",
                )


def _sample(seed: int, population: int, size: int) -> list[int]:
    rng = np.random.default_rng([seed, _SAMPLE_STREAM])
    return sorted(rng.choice(population, size=min(size, population), replace=False).tolist())


class _Simulated:
    """Gate, modelled metrics and result-derived layer values of the simulator."""

    _oracle: dict | None = None

    def _oracle_inputs(self, inputs) -> tuple[InvocationStore, list]:
        """The sampled apps' store and the policy factories."""
        raise NotImplementedError

    def check(self, inputs, invocations: int, results: dict) -> Check:
        if self._oracle is None:
            self._oracle = _serial_oracle(*self._oracle_inputs(inputs))
        check = Check()
        _check_against_oracle(check, results, self._oracle, invocations)
        return check

    def modelled(self, results: dict) -> tuple[float, float]:
        hybrid = results[HYBRID]
        return (
            hybrid.overall_cold_start_percentage,
            float(hybrid.normalized_wasted_memory(results[BASELINE])),
        )

    def layer_values(self, results: dict) -> dict[str, float]:
        hybrid = results[HYBRID]
        modes = hybrid.mode_usage()
        return {
            "simulation.results.rows": float(sum(r.num_apps for r in results.values())),
            "policies.mode.histogram": float(modes.get("histogram", 0)),
            "policies.mode.standard": float(modes.get("standard", 0)),
            "policies.mode.arima": float(modes.get("arima", 0)),
            "policies.oob_ratio": float(hybrid.oob_idle_time_fraction),
        }


# --------------------------------------------------------------------------- #
class FusedFleet(_Simulated):
    """``repro simulate --fused`` over a wide, thin fleet (``rng_scheme v2``)."""

    name = "fused-fleet"

    def __init__(self, seed: int, *, apps: int, days: float, target_rps: float, sample: int):
        self.seed = seed
        self.sample = sample
        self.config = GeneratorConfig(
            num_apps=apps,
            duration_minutes=days * MINUTES_PER_DAY,
            seed=seed,
            max_daily_rate=MAX_DAILY_RATE,
            rng_scheme="v2",
            target_rps=target_rps,
        )
        self.parameters = {"apps": apps, "days": days, "target_rps": target_rps,
                           "rng_scheme": "v2", "oracle_sample_apps": sample,
                           "policies": list(SIMULATE_POLICIES)}
        self._chunk_invocations = 0

    def build(self) -> list:
        return [parse_policy_spec(spec) for spec in SIMULATE_POLICIES]

    def batch(self, factories: list) -> tuple[int, dict]:
        """One fused generate→simulate pass plus the CLI's result tables."""
        self._chunk_invocations = 0
        chunk_iterator = fused.iter_chunk_columns
        fused.iter_chunk_columns = self._counted(chunk_iterator)
        try:
            results = fused.simulate_streamed(self.config, factories, options=RunnerOptions())
        finally:
            fused.iter_chunk_columns = chunk_iterator
        comparison = PolicyComparison(results=results, baseline_name=BASELINE)
        comparison.rows()
        comparison.mode_usage_rows()
        return self._chunk_invocations, results

    def _counted(self, iterator_fn):
        """The chunk iterator, counting the trace invocations it yields."""

        def counted(*args, **kwargs):
            for chunk in iterator_fn(*args, **kwargs):
                self._chunk_invocations += chunk.num_invocations
                yield chunk

        return counted

    def _oracle_inputs(self, factories: list) -> tuple[InvocationStore, list]:
        generator = WorkloadGenerator(self.config)
        chunks = [
            generator.generate_app_range(i, i + 1)
            for i in _sample(self.seed, self.config.num_apps, self.sample)
        ]
        store = InvocationStore.from_app_columns(
            [pair for chunk in chunks for pair in chunk.app_functions()],
            [times for chunk in chunks for times in chunk.app_times],
            [pos for chunk in chunks for pos in chunk.app_positions],
            duration_minutes=self.config.duration_minutes,
        )
        return store, factories


# --------------------------------------------------------------------------- #
class PolicySweep(_Simulated):
    """``repro sweep`` (figures 14, 16, 18: 19 configs) over a narrow, deep trace."""

    name = "policy-sweep"

    def __init__(self, seed: int, *, apps: int, days: float, target_rps: float, sample: int):
        self.seed = seed
        self.sample = sample
        self.config = GeneratorConfig(
            num_apps=apps,
            duration_minutes=days * MINUTES_PER_DAY,
            seed=seed,
            max_daily_rate=MAX_DAILY_RATE,
            target_rps=target_rps,
        )
        self.parameters = {"apps": apps, "days": days, "target_rps": target_rps,
                           "rng_scheme": "v1", "oracle_sample_apps": sample,
                           "figures": list(SWEEP_FIGURES)}

    def build(self):
        workload = WorkloadGenerator(self.config).generate()
        return workload, combined_figure_factories(SWEEP_FIGURES)

    def batch(self, inputs) -> tuple[int, dict]:
        workload, factories = inputs
        results = WorkloadRunner(workload, RunnerOptions()).run_policies(factories)
        return workload.total_invocations, results

    def _oracle_inputs(self, inputs) -> tuple[InvocationStore, list]:
        workload, factories = inputs
        return workload.store.subset(_sample(self.seed, workload.num_apps, self.sample)), factories


# --------------------------------------------------------------------------- #
class PlatformReplay:
    """``TraceReplayer.run`` for fixed:10 then hybrid:240 on 8 invokers, no faults."""

    name = "platform-replay"

    def __init__(self, seed: int, *, apps: int, minutes: float, target_rps: float):
        self.seed = seed
        self.config = GeneratorConfig(
            num_apps=apps,
            duration_minutes=minutes,
            seed=seed,
            max_daily_rate=MAX_DAILY_RATE,
            target_rps=target_rps,
        )
        self.replay_config = ReplayConfig(duration_minutes=minutes, seed=seed)
        self.parameters = {"apps": apps, "minutes": minutes, "target_rps": target_rps,
                           "num_invokers": 8, "policies": list(REPLAY_POLICIES),
                           "event_core": "heapq"}

    def build(self):
        workload = WorkloadGenerator(self.config).generate()
        feed = ReplayFeed(workload, self.replay_config)
        return workload, feed

    def batch(self, inputs) -> tuple[int, dict]:
        workload, feed = inputs
        replayer = TraceReplayer(
            workload,
            replay_config=self.replay_config,
            cluster_config=ClusterConfig(num_invokers=8),
            feed=feed,
        )
        results = {spec: replayer.run(parse_policy_spec(spec)) for spec in REPLAY_POLICIES}
        return sum(result.submissions for result in results.values()), results

    def check(self, inputs, invocations: int, results: dict) -> Check:
        _, feed = inputs
        check = Check()
        for spec, result in results.items():
            check.attempted += feed.num_submissions
            if result.submissions != feed.num_submissions:
                check.fail(
                    abs(result.submissions - feed.num_submissions),
                    f"{spec}: {result.submissions} submissions, feed has {feed.num_submissions}",
                )
            if result.dropped:
                check.fail(result.dropped, f"{spec}: {result.dropped} invocations dropped")
            if not result.conservation_holds:
                check.fail(
                    abs(result.submissions - result.completed_unique - result.dropped),
                    f"{spec}: conservation broken: {result.completed_unique} completed + "
                    f"{result.dropped} dropped != {result.submissions} submitted",
                )
        return check

    def modelled(self, results: dict) -> tuple[float, float]:
        fixed, hybrid = (results[spec].metrics for spec in REPLAY_POLICIES)
        return (
            100.0 * hybrid.total_cold_starts / hybrid.total_invocations,
            100.0 * hybrid.average_memory_mb() / fixed.average_memory_mb(),
        )

    def layer_values(self, results: dict) -> dict[str, float]:
        completed = sum(r.metrics.total_invocations for r in results.values())
        cold = sum(r.metrics.total_cold_starts for r in results.values())
        return {
            "platform.controller.policy_update_us": results["hybrid:240"].controller_overhead_microseconds,
            "platform.warm_ratio": (completed - cold) / completed,
            "platform.prewarm_loads": float(sum(r.metrics.prewarm_loads for r in results.values())),
            "platform.evictions": float(sum(r.metrics.evictions for r in results.values())),
        }
