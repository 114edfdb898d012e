"""Replicated platform replay campaigns over (policy × seed × cluster).

The paper's OpenWhisk experiment is a single hand-sized replay: one
cluster shape, one seed, two policies.  :class:`ReplayCampaign` turns the
platform layer into a scenario engine — it fans every combination of
policy factory, sampling seed, and :class:`ClusterScenario` (a named
:class:`~repro.platform.cluster.ClusterConfig`) out over the simulation
engine's shared fork pool
(:func:`~repro.core.pool.fork_pool_map`), reassembling results by
task index so the campaign outcome is byte-identical no matter how many
workers ran.

Scenario builders cover the axes the paper only gestures at:

* :func:`invoker_count_scenarios` — invoker-count scaling at fixed
  per-invoker memory;
* :func:`memory_pressure_scenarios` — shrinking per-invoker memory to
  trace eviction-rate curves;
* :func:`heterogeneous_memory_scenario` — mixed-size invoker fleets;
* :func:`fault_rate_scenarios` — invoker crash-rate sweeps (fault
  injection via :class:`~repro.platform.faults.FaultPlan`);
* :func:`domain_outage_scenarios` — correlated rack/zone outage sweeps
  (every invoker in a failure domain goes down together);
* :func:`degradation_scenarios` — partial-degradation sweeps (slow
  invokers with execution/message-delay multipliers and optional
  brownout shedding);
* :func:`controller_failover_scenario` — controller crash/recovery with
  at-least-once redelivery and completion dedup;
* :func:`balancer_scenarios` — load-balancer strategy comparison;
* :func:`autoscaling_scenario` — an elastic fleet driven by the
  :class:`~repro.platform.autoscaler.Autoscaler`;
* :func:`autoscaler_policy_scenarios` — threshold vs predictive
  autoscaling under identical load and faults.

Each replay's outcome travels back as a :class:`CampaignCell` holding
the scalar summary plus the per-app cold-start percentages (the Figure
20 CDF input) — small, picklable, and sufficient for multi-seed error
bars.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.platform.autoscaler import AUTOSCALER_POLICIES, AutoscalerConfig
from repro.platform.cluster import ClusterConfig
from repro.platform.faults import FaultPlan
from repro.platform.loadbalancer import BALANCER_STRATEGIES
from repro.platform.replay import ReplayConfig, ReplayFeed, TraceReplayer
from repro.policies.registry import PolicyFactory
from repro.core.pool import fork_pool_map
from repro.simulation.sweep_engine import check_unique_policy_names
from repro.trace.schema import Workload

#: Summary keys aggregated (mean ± population std across seeds) per row.
AGGREGATED_METRICS: tuple[str, ...] = (
    "cold_start_pct",
    "third_quartile_app_cold_start_pct",
    "average_latency_seconds",
    "p99_latency_seconds",
    "average_memory_mb",
    "evictions",
    "prewarm_loads",
    "invoker_crashes",
    "crash_cold_starts",
    "dropped_invocations",
    "domain_outages",
    "slowdowns",
    "brownout_rejections",
    "controller_failovers",
    "duplicate_completions",
    "redeliveries",
)


@dataclass(frozen=True)
class ClusterScenario:
    """A named cluster shape replayed by a campaign."""

    name: str
    config: ClusterConfig


def invoker_count_scenarios(
    counts: Sequence[int], base: ClusterConfig | None = None
) -> list[ClusterScenario]:
    """One scenario per invoker count (homogeneous memory from ``base``)."""
    base = base or ClusterConfig()
    return [
        ClusterScenario(name=f"invokers-{count}", config=base.scaled(count))
        for count in counts
    ]


def memory_pressure_scenarios(
    memories_mb: Sequence[float], base: ClusterConfig | None = None
) -> list[ClusterScenario]:
    """One scenario per per-invoker memory budget (eviction-rate curves)."""
    base = base or ClusterConfig()
    return [
        ClusterScenario(
            name=f"mem-{memory_mb:g}mb",
            config=replace(
                base, invoker_memory_mb=float(memory_mb), invoker_memories_mb=None
            ),
        )
        for memory_mb in memories_mb
    ]


def heterogeneous_memory_scenario(
    invoker_memories_mb: Sequence[float],
    *,
    name: str = "heterogeneous",
    base: ClusterConfig | None = None,
) -> ClusterScenario:
    """A mixed-size invoker fleet (one invoker per listed budget)."""
    base = base or ClusterConfig()
    memories = tuple(float(m) for m in invoker_memories_mb)
    return ClusterScenario(
        name=name,
        config=replace(
            base, num_invokers=len(memories), invoker_memories_mb=memories
        ),
    )


def fault_rate_scenarios(
    crash_rates_per_hour: Sequence[float],
    *,
    base: ClusterConfig | None = None,
    restart_delay_seconds: float = 30.0,
    retry_limit: int = 1,
    fault_seed: int = 0,
) -> list[ClusterScenario]:
    """One scenario per invoker crash rate (fault-realism curves).

    Rate 0 maps to a scenario without a fault plan — byte-identical to a
    plain replay, anchoring the curve at today's behaviour.
    """
    base = base or ClusterConfig()
    scenarios = []
    for rate in crash_rates_per_hour:
        plan = (
            FaultPlan(
                crash_rate_per_hour=float(rate),
                restart_delay_seconds=restart_delay_seconds,
                retry_limit=retry_limit,
                seed=fault_seed,
            )
            if rate > 0
            else None
        )
        scenarios.append(
            ClusterScenario(
                name=f"crash-{rate:g}ph", config=replace(base, fault_plan=plan)
            )
        )
    return scenarios


def domain_outage_scenarios(
    outage_rates_per_hour: Sequence[float],
    *,
    base: ClusterConfig | None = None,
    fault_domains: int = 3,
    outage_seconds: float = 120.0,
    fault_seed: int = 0,
) -> list[ClusterScenario]:
    """One scenario per correlated domain-outage rate (rack/zone failures).

    Every invoker in a failure domain (``invoker_id % fault_domains``)
    goes down and comes back together.  Rate 0 maps to a scenario
    without a fault plan — byte-identical to a plain replay.
    """
    base = base or ClusterConfig()
    scenarios = []
    for rate in outage_rates_per_hour:
        plan = (
            FaultPlan(
                domain_outage_rate_per_hour=float(rate),
                domain_outage_seconds=outage_seconds,
                seed=fault_seed,
            )
            if rate > 0
            else None
        )
        scenarios.append(
            ClusterScenario(
                name=f"domain-outage-{rate:g}ph",
                config=replace(base, fault_plan=plan, fault_domains=fault_domains),
            )
        )
    return scenarios


def degradation_scenarios(
    slow_rates_per_hour: Sequence[float],
    *,
    base: ClusterConfig | None = None,
    slow_execution_factor: float = 4.0,
    slow_duration_seconds: float = 300.0,
    brownout_concurrency: int = 0,
    fault_seed: int = 0,
) -> list[ClusterScenario]:
    """One scenario per partial-degradation rate (slow invokers).

    Degraded invokers multiply execution and startup times by
    ``slow_execution_factor`` and (with ``brownout_concurrency > 0``)
    shed activations above that in-flight cap.  Rate 0 maps to a
    scenario without a fault plan.
    """
    base = base or ClusterConfig()
    scenarios = []
    for rate in slow_rates_per_hour:
        plan = (
            FaultPlan(
                slow_rate_per_hour=float(rate),
                slow_duration_seconds=slow_duration_seconds,
                slow_execution_factor=slow_execution_factor,
                brownout_concurrency=brownout_concurrency,
                seed=fault_seed,
            )
            if rate > 0
            else None
        )
        scenarios.append(
            ClusterScenario(
                name=f"slow-{rate:g}ph", config=replace(base, fault_plan=plan)
            )
        )
    return scenarios


def controller_failover_scenario(
    mttf_hours: float,
    *,
    name: str | None = None,
    base: ClusterConfig | None = None,
    failover_seconds: float = 5.0,
    fault_seed: int = 0,
) -> ClusterScenario:
    """A controller crash/recovery scenario with at-least-once redelivery.

    The controller crashes on a seeded exponential schedule with the
    given mean time to failure and recovers ``failover_seconds`` later,
    re-driving every unacknowledged activation from its replay log;
    duplicate completions are swallowed by id.
    """
    base = base or ClusterConfig()
    plan = FaultPlan(
        controller_mttf_hours=float(mttf_hours),
        controller_failover_seconds=failover_seconds,
        seed=fault_seed,
    )
    return ClusterScenario(
        name=name or f"failover-{mttf_hours:g}h",
        config=replace(base, fault_plan=plan),
    )


def balancer_scenarios(
    strategies: Sequence[str] | None = None, base: ClusterConfig | None = None
) -> list[ClusterScenario]:
    """One scenario per load-balancer strategy (same fleet, same faults)."""
    base = base or ClusterConfig()
    return [
        ClusterScenario(
            name=f"balancer-{strategy}", config=replace(base, balancer=strategy)
        )
        for strategy in (strategies or BALANCER_STRATEGIES)
    ]


def autoscaling_scenario(
    autoscaler: AutoscalerConfig | None = None,
    *,
    name: str = "autoscaled",
    base: ClusterConfig | None = None,
) -> ClusterScenario:
    """An elastic-fleet scenario (fleet resized on the autoscaler's tick)."""
    base = base or ClusterConfig()
    return ClusterScenario(
        name=name,
        config=replace(base, autoscaler=autoscaler or AutoscalerConfig()),
    )


def autoscaler_policy_scenarios(
    policies: Sequence[str] | None = None,
    *,
    base: ClusterConfig | None = None,
    autoscaler: AutoscalerConfig | None = None,
) -> list[ClusterScenario]:
    """One elastic-fleet scenario per autoscaling policy.

    Same load, same faults, same bounds — only the scaling rule differs
    (``threshold`` reacts to current utilization, ``predictive`` scales
    from the keep-alive policies' arrival histograms).
    """
    base = base or ClusterConfig()
    template = autoscaler or AutoscalerConfig()
    return [
        ClusterScenario(
            name=f"autoscale-{policy}",
            config=replace(base, autoscaler=replace(template, policy=policy)),
        )
        for policy in (policies or AUTOSCALER_POLICIES)
    ]


@dataclass(frozen=True)
class CampaignCell:
    """Outcome of one (policy, scenario, seed) replay."""

    policy_name: str
    scenario_name: str
    seed: int
    summary: Mapping[str, float]
    app_cold_start_pct: np.ndarray


@dataclass
class CampaignResult:
    """All cells of a campaign plus per-(policy, scenario) aggregation."""

    cells: list[CampaignCell]
    seeds: tuple[int, ...] = field(default_factory=tuple)

    def cell(self, policy_name: str, scenario_name: str, seed: int) -> CampaignCell:
        for cell in self.cells:
            if (
                cell.policy_name == policy_name
                and cell.scenario_name == scenario_name
                and cell.seed == seed
            ):
                return cell
        raise KeyError((policy_name, scenario_name, seed))

    def group(self, policy_name: str, scenario_name: str) -> list[CampaignCell]:
        """The per-seed cells of one (policy, scenario) pair, seed order."""
        return [
            cell
            for cell in self.cells
            if cell.policy_name == policy_name and cell.scenario_name == scenario_name
        ]

    def rows(self) -> list[dict[str, float | str]]:
        """One aggregated row per (policy, scenario): mean ± std over seeds.

        The mean lands under the plain metric name and the population
        standard deviation (the multi-seed error bar) under
        ``<metric>_std``; ``invocations`` is seed-independent and kept
        exact.
        """
        rows: list[dict[str, float | str]] = []
        seen: set[tuple[str, str]] = set()
        for cell in self.cells:
            key = (cell.policy_name, cell.scenario_name)
            if key in seen:
                continue
            seen.add(key)
            group = self.group(*key)
            row: dict[str, float | str] = {
                "policy": cell.policy_name,
                "scenario": cell.scenario_name,
                "seeds": float(len(group)),
                "invocations": float(group[0].summary["total_invocations"]),
            }
            for metric in AGGREGATED_METRICS:
                values = np.asarray([g.summary[metric] for g in group], dtype=float)
                row[metric] = float(values.mean())
                row[f"{metric}_std"] = float(values.std())
            rows.append(row)
        return rows

    def mean_cold_start_cdf(
        self, policy_name: str, scenario_name: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Seed-averaged per-app cold-start CDF of one (policy, scenario)."""
        grid = np.linspace(0.0, 100.0, 101)
        group = self.group(policy_name, scenario_name)
        fractions = np.zeros_like(grid)
        contributing = 0
        for cell in group:
            values = np.sort(np.asarray(cell.app_cold_start_pct, dtype=float))
            if values.size == 0:
                continue
            fractions += np.searchsorted(values, grid, side="right") / values.size
            contributing += 1
        if contributing:
            fractions /= contributing
        return grid, fractions

    def as_text_table(self, *, metrics: Sequence[str] | None = None) -> str:
        """Plain-text rendering of the aggregated rows (CLI output)."""
        metrics = tuple(metrics or AGGREGATED_METRICS[:5])
        header = ["policy", "scenario", "seeds", "invocations"]
        for metric in metrics:
            header.append(metric)
            header.append(f"{metric}_std")
        lines = [" | ".join(f"{column:>28}" for column in header)]
        lines.append("-" * len(lines[0]))
        for row in self.rows():
            cells = [str(row["policy"]), str(row["scenario"])]
            cells.append(f"{row['seeds']:.0f}")
            cells.append(f"{row['invocations']:.0f}")
            for metric in metrics:
                cells.append(f"{row[metric]:.4f}")
                cells.append(f"{row[f'{metric}_std']:.4f}")
            lines.append(" | ".join(f"{cell:>28}" for cell in cells))
        return "\n".join(lines)


class ReplayCampaign:
    """Fans (policy × scenario × seed) platform replays over a fork pool.

    Args:
        workload: Workload to replay (typically a mid-range-popularity
            sample, as in Section 5.3).
        policy_factories: Policies to replay; duplicate names are
            rejected (results are keyed by name).
        scenarios: Named cluster shapes; duplicate names are rejected.
            Defaults to the paper's 18-invoker cluster.
        seeds: Execution-duration sampling seeds; one full replay per
            seed.  Defaults to the replay config's seed.
        replay_config: Replay window and duration cap; its ``seed``
            field is overridden per campaign seed.
        workers: Fork-pool size (``None``: all cores).  Results are
            independent of the worker count.
    """

    def __init__(
        self,
        workload: Workload,
        policy_factories: Sequence[PolicyFactory],
        *,
        scenarios: Sequence[ClusterScenario] | None = None,
        seeds: Sequence[int] | None = None,
        replay_config: ReplayConfig | None = None,
        workers: int | None = None,
    ) -> None:
        self.workload = workload
        self.policy_factories = list(policy_factories)
        if not self.policy_factories:
            raise ValueError("campaign needs at least one policy factory")
        self.replay_config = replay_config or ReplayConfig()
        self.scenarios = list(
            scenarios
            if scenarios is not None
            else [ClusterScenario(name="default", config=ClusterConfig())]
        )
        if not self.scenarios:
            raise ValueError("campaign needs at least one cluster scenario")
        if seeds is None:
            seeds = (self.replay_config.seed,)
        self.seeds = tuple(int(s) for s in seeds)
        if not self.seeds:
            raise ValueError("campaign needs at least one seed")
        if workers is not None and workers < 1:
            raise ValueError("worker count must be at least 1")
        self.workers = workers
        check_unique_policy_names(self.policy_factories)
        _reject_duplicate_scenario_names(
            [scenario.name for scenario in self.scenarios]
        )
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate campaign seeds {list(self.seeds)}")
        # Descriptor plumbing for disk-backed workloads: forked replay
        # workers re-open the store memory-mapped instead of reading the
        # parent's heap columns (same path as the simulation engine's
        # parallel shards).
        self._parent_pid = os.getpid()
        self._worker_workload: tuple[int, Workload] | None = None

    def _task_workload(self) -> Workload:
        """The workload handle the calling process should replay from.

        The parent process (and any workload without a backing archive)
        uses the campaign's own workload.  A forked worker whose workload
        store was saved to or opened from disk re-opens it memory-mapped
        once per process (:meth:`~repro.trace.schema.Workload.reopened`):
        the columns come from the shared OS page cache, and results are
        identical because the archive holds byte-identical columns.
        """
        pid = os.getpid()
        if pid == self._parent_pid or self.workload.store.source_path is None:
            return self.workload
        cached = self._worker_workload
        if cached is not None and cached[0] == pid:
            return cached[1]
        workload = self.workload.reopened(mmap=True)
        self._worker_workload = (pid, workload)
        return workload

    @property
    def num_replays(self) -> int:
        return len(self.policy_factories) * len(self.scenarios) * len(self.seeds)

    def run(
        self, *, progress: Callable[[int, int], None] | None = None
    ) -> CampaignResult:
        """Run every (policy, scenario, seed) replay; deterministic order."""
        tasks = [
            (factory, scenario, seed)
            for factory in self.policy_factories
            for scenario in self.scenarios
            for seed in self.seeds
        ]
        # The submission stream depends only on (workload, replay seed):
        # build one feed per seed up front and share it across every
        # (policy, scenario) cell — forked workers inherit the columns.
        feeds = {
            seed: ReplayFeed(self.workload, replace(self.replay_config, seed=seed))
            for seed in self.seeds
        }

        def run_task(task_id: int) -> CampaignCell:
            factory, scenario, seed = tasks[task_id]
            replayer = TraceReplayer(
                self._task_workload(),
                replay_config=replace(self.replay_config, seed=seed),
                cluster_config=scenario.config,
                feed=feeds[seed],
            )
            result = replayer.run(factory)
            return CampaignCell(
                policy_name=factory.name,
                scenario_name=scenario.name,
                seed=seed,
                summary=result.summary(),
                app_cold_start_pct=result.metrics.app_cold_start_percentages(),
            )

        done = 0

        def on_result(task_id: int, cell: object) -> None:
            nonlocal done
            done += 1
            if progress is not None:
                progress(done, len(tasks))

        workers = self.workers if self.workers is not None else (os.cpu_count() or 1)
        cells = fork_pool_map(run_task, len(tasks), workers, on_result=on_result)
        return CampaignResult(cells=list(cells), seeds=self.seeds)


def _reject_duplicate_scenario_names(names: Sequence[str]) -> None:
    seen: set[str] = set()
    duplicates = []
    for name in names:
        if name in seen:
            duplicates.append(name)
        seen.add(name)
    if duplicates:
        raise ValueError(
            f"duplicate scenario name(s) {duplicates}: campaign results are "
            "keyed by scenario name, so duplicates would silently overwrite "
            "each other"
        )
