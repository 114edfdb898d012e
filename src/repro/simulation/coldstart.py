"""Trace-driven cold-start simulator (Section 5.1 of the paper).

The simulator replays an application's invocation timestamps against a
keep-alive policy and determines, for every invocation, whether it would
have been a warm or a cold start, while accumulating the *wasted memory
time*: the time the application's image was kept in memory without
executing anything.

Following the paper's methodology:

* the first invocation of every application is a cold start;
* function execution times are simulated as zero, which makes the measured
  wasted memory time a conservative (worst-case) figure and makes idle
  times equal to inter-arrival times;
* applications are simulated independently (the policy is per-application
  and there is no contention in the simulator — capacity effects are the
  platform substrate's job).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.hybrid import HybridHistogramPolicy
from repro.core.windows import PolicyDecision
from repro.policies.base import KeepAlivePolicy
from repro.simulation.metrics import AppSimResult


@dataclass(frozen=True)
class InvocationOutcome:
    """Outcome of a single simulated invocation."""

    time_minutes: float
    cold: bool
    decision: PolicyDecision


@dataclass(frozen=True)
class AppSimulationTrace:
    """Full per-invocation record of one application's simulation."""

    app_id: str
    outcomes: tuple[InvocationOutcome, ...]
    wasted_memory_minutes: float

    @property
    def cold_starts(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cold)

    @property
    def invocations(self) -> int:
        return len(self.outcomes)


class ColdStartSimulator:
    """Simulates one keep-alive policy over per-application invocation times.

    Args:
        horizon_minutes: End of the simulation window.  Keep-alive windows
            extending past the horizon only accumulate waste up to the
            horizon (the trace ends there).
        first_invocation_cold: Whether the first invocation of every
            application counts as a cold start (True in the paper).
        count_tail_waste: Whether memory kept loaded after the last
            invocation (until the window expires or the horizon is reached)
            counts as waste.  The paper's wasted-memory metric accounts for
            all time an image is loaded without executing, so this defaults
            to True.
    """

    def __init__(
        self,
        horizon_minutes: float,
        *,
        first_invocation_cold: bool = True,
        count_tail_waste: bool = True,
    ) -> None:
        if horizon_minutes <= 0:
            raise ValueError("simulation horizon must be positive")
        self.horizon_minutes = float(horizon_minutes)
        self.first_invocation_cold = first_invocation_cold
        self.count_tail_waste = count_tail_waste

    # ------------------------------------------------------------------ #
    def simulate_app(
        self,
        app_id: str,
        invocation_times_minutes: Sequence[float] | np.ndarray,
        policy: KeepAlivePolicy,
        *,
        memory_mb: float = 1.0,
        detailed: bool = False,
        sort: bool = False,
    ) -> AppSimResult | AppSimulationTrace:
        """Simulate one application under one policy instance.

        Args:
            app_id: Application identifier (only used for reporting).
            invocation_times_minutes: Sorted invocation timestamps.
            policy: A fresh policy instance dedicated to this application.
            memory_mb: Application memory footprint, used to weight the
                wasted memory time; the paper's simulations assume equal
                footprints (the default of 1.0).
            detailed: When True, return the full per-invocation
                :class:`AppSimulationTrace` instead of the summary record.
            sort: Opt-in for unsorted input: sort the timestamps before
                simulating.  By default unsorted input raises ``ValueError``
                — an out-of-order trace usually signals a malformed loader,
                and silently sorting would mask it.

        Raises:
            ValueError: When a timestamp falls outside ``[0, horizon]``, or
                when the timestamps are unsorted and ``sort`` is False.
        """
        times = self._validated_times(invocation_times_minutes, sort=sort)

        outcomes: list[InvocationOutcome] = []
        wasted_minutes = 0.0
        cold_starts = 0
        previous_time: float | None = None
        previous_decision: PolicyDecision | None = None

        for timestamp in times:
            timestamp = float(timestamp)
            if previous_decision is None or previous_time is None:
                cold = self.first_invocation_cold
            else:
                cold = not previous_decision.covers(previous_time, timestamp)
                wasted_minutes += self._waste_between(
                    previous_time, previous_decision, timestamp
                )
            if cold:
                cold_starts += 1
            decision = policy.on_invocation(timestamp, cold=cold)
            if detailed:
                outcomes.append(
                    InvocationOutcome(time_minutes=timestamp, cold=cold, decision=decision)
                )
            previous_time = timestamp
            previous_decision = decision

        if (
            self.count_tail_waste
            and previous_decision is not None
            and previous_time is not None
        ):
            wasted_minutes += self._waste_between(
                previous_time, previous_decision, self.horizon_minutes
            )

        if detailed:
            return AppSimulationTrace(
                app_id=app_id,
                outcomes=tuple(outcomes),
                wasted_memory_minutes=wasted_minutes,
            )
        mode_counts, oob_idle_times = _policy_mode_fields(policy)
        return AppSimResult(
            app_id=app_id,
            invocations=int(times.size),
            cold_starts=cold_starts,
            wasted_memory_minutes=wasted_minutes,
            memory_mb=memory_mb,
            mode_counts=mode_counts,
            oob_idle_times=oob_idle_times,
        )

    # ------------------------------------------------------------------ #
    def validate_times(
        self, invocation_times_minutes: Sequence[float] | np.ndarray
    ) -> np.ndarray:
        """Validate one application's timestamps without a sorting escape hatch.

        Public hook for the engines (the sweep engine in particular) that
        replay many applications and need the exact validation contract of
        :meth:`simulate_app`: within ``[0, horizon]``, ascending.
        """
        return self._validated_times(invocation_times_minutes)

    def _validated_times(
        self,
        invocation_times_minutes: Sequence[float] | np.ndarray,
        *,
        sort: bool | None = None,
    ) -> np.ndarray:
        """Validate one application's timestamps (shared by every engine).

        Validates the raw input before any normalization — range-checking
        a silently sorted array would mask malformed traces.

        Args:
            invocation_times_minutes: Timestamps to validate.
            sort: ``True`` sorts a trusted-but-unsorted trace, ``False``
                rejects unsorted input suggesting the ``sort`` escape
                hatch, ``None`` rejects it outright (engines that do not
                offer sorting).
        """
        times = np.asarray(invocation_times_minutes, dtype=np.float64)
        if times.size:
            if float(np.min(times)) < 0 or float(np.max(times)) > self.horizon_minutes:
                raise ValueError(
                    "invocation timestamps fall outside the simulation horizon"
                )
            if np.any(np.diff(times) < 0):
                if sort:
                    times = np.sort(times)
                elif sort is None:
                    raise ValueError("invocation timestamps must be sorted ascending")
                else:
                    raise ValueError(
                        "invocation timestamps must be sorted ascending; pass "
                        "sort=True to sort a trusted-but-unsorted trace"
                    )
        return times

    # ------------------------------------------------------------------ #
    def waste_between(
        self, previous_time: float, decision: PolicyDecision, next_time: float
    ) -> float:
        """Public alias of :meth:`_waste_between` for the engines.

        The sweep engine accumulates tail waste with exactly this
        per-decision arithmetic (same hook role as :meth:`validate_times`).
        """
        return self._waste_between(previous_time, decision, next_time)

    def _waste_between(
        self, previous_time: float, decision: PolicyDecision, next_time: float
    ) -> float:
        """Idle loaded time between two consecutive invocations.

        The image is loaded over ``[load_start, load_end)`` as scheduled by
        the previous decision; any part of that interval before the next
        invocation (clipped to the horizon) is waste, because the simulated
        execution time is zero.
        """
        load_start, load_end = decision.loaded_interval(previous_time)
        effective_end = min(load_end, next_time, self.horizon_minutes)
        if effective_end <= load_start:
            return 0.0
        return effective_end - load_start


def _policy_mode_fields(policy: KeepAlivePolicy) -> tuple[dict[str, int], int]:
    """Decision-mode counters and OOB count carried into AppSimResult."""
    if isinstance(policy, HybridHistogramPolicy):
        stats = policy.stats
        return (
            {
                "histogram": stats.histogram_decisions,
                "standard": stats.standard_decisions,
                "arima": stats.arima_decisions,
            },
            stats.out_of_bounds_idle_times,
        )
    return {}, 0


def simulate_application(
    invocation_times_minutes: Sequence[float] | np.ndarray,
    policy: KeepAlivePolicy,
    *,
    horizon_minutes: float,
    app_id: str = "app",
    memory_mb: float = 1.0,
) -> AppSimResult:
    """One-call convenience wrapper around :class:`ColdStartSimulator`."""
    simulator = ColdStartSimulator(horizon_minutes)
    result = simulator.simulate_app(
        app_id, invocation_times_minutes, policy, memory_mb=memory_mb
    )
    assert isinstance(result, AppSimResult)
    return result
