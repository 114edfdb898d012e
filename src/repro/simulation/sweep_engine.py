"""Policy-family evaluators, and the sweep layer that groups factories.

Every non-serial policy run is a *family* evaluation: the configurations
of a family share their trace-derived state, and a single policy is a
family of one.

* every **constant-keep-alive** policy (the fixed grid of Figure 14 plus
  the no-unloading bound) sees the same per-application idle gaps — only
  the window length ``K`` changes.  :func:`_evaluate_constant_family`
  resolves the flat timestamp columns once and evaluates each ``K`` in
  closed form against them, with the per-term float operations of the
  scalar simulator.
* every **hybrid histogram** policy with one histogram geometry (range
  and bin width) shares its trace-derived state: histogram contents, the
  bin-count CV trajectory, and the idle-time (ARIMA) forecasts depend
  only on the trace, never on the cutoff/pre-warming/CV knobs — the
  knobs only select *which decision* is made from that state.
  :func:`_record_hybrid_family` therefore steps the workload through one
  :class:`~repro.core.histogram_bank.HistogramBank` (longest application
  first, in lockstep prefixes, with a scalar drain for the few longest
  applications) and records, per invocation, the CV and the percentile
  bin of every distinct cutoff percentile any configuration uses.  Each
  configuration is then evaluated as pure decision *masks* over those
  recordings — flat vectorized passes with no per-step loop, in two
  scratch buffers shared by the whole family — and ARIMA forecasts are
  computed lazily, once per (application, invocation), and reused by
  every configuration that triggers them (:class:`_ArimaForecastMemo`).

The recorded quantities are bit-identical to what a scalar hybrid policy
computes at each decision point (``TestHistogramBankEquivalence`` locks
the shared histogram machinery down), so every configuration's results
match the serial scalar loop exactly on cold-start counts and within
1e-9 on wasted memory (``tests/simulation/test_sweep_equivalence.py``
and ``tests/simulation/test_engine_equivalence.py``).

:class:`SweepEngine` is the multi-policy layer: it groups a factory list
by :attr:`~repro.policies.registry.PolicyFactory.sweep_key` and hands
each group to the engine's single driver
(:meth:`~repro.simulation.engine.SimulationEngine.run_group`), which
walks chunks or parallel shards and calls :func:`evaluate_family` once
per application range.
:meth:`~repro.simulation.runner.WorkloadRunner.run_policies` — and
therefore every ``sweep_*`` function and experiment driver — routes
through it; the ``sweep`` field of
:class:`~repro.simulation.engine.RunnerOptions` selects the grouping
(``auto`` / ``per-policy``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.forecaster import forecast_idle_times
from repro.core.histogram_bank import HistogramBank
from repro.core.windows import PolicyDecision
from repro.policies.registry import (
    FAMILY_CONSTANT_KEEPALIVE,
    FAMILY_HYBRID_HISTOGRAM,
    PolicyFactory,
)
from repro.simulation.metrics import AggregateResult, AppSimResult, merge_results

if TYPE_CHECKING:  # pragma: no cover - typing only (the engine imports us)
    from repro.simulation.coldstart import ColdStartSimulator
    from repro.simulation.engine import SimulationEngine, _AppWorkItem

__all__ = [
    "FactoryGroup",
    "SweepEngine",
    "check_unique_policy_names",
    "evaluate_family",
    "group_factories",
]

#: Zero-count mode counters reported for hybrid-family applications with
#: no invocations, matching what a fresh scalar policy reports.
_EMPTY_HYBRID_MODES = {"histogram": 0, "standard": 0, "arima": 0}

#: Below this many still-active applications the hybrid recording pass
#: drains the remainder through scalar histograms: per-step numpy
#: dispatch overhead exceeds the scalar per-invocation cost once only a
#: handful of (necessarily long) applications are left.
DEFAULT_SCALAR_DRAIN_THRESHOLD = 8


def check_unique_policy_names(factories: Sequence[PolicyFactory]) -> None:
    """Reject factory lists whose names collide.

    Results are keyed by factory name; duplicate names used to overwrite
    each other silently, losing all but the last configuration's results.

    Raises:
        ValueError: Naming the colliding factories and the remedy
            (:meth:`~repro.policies.registry.PolicyFactory.renamed`).
    """
    seen: set[str] = set()
    duplicates: list[str] = []
    for factory in factories:
        if factory.name in seen and factory.name not in duplicates:
            duplicates.append(factory.name)
        seen.add(factory.name)
    if duplicates:
        raise ValueError(
            f"duplicate policy name(s) {duplicates}: results are keyed by "
            "name, so duplicates would silently overwrite each other; give "
            "each configuration a distinct label (PolicyFactory.renamed)"
        )


@dataclass(frozen=True)
class FactoryGroup:
    """A maximal run of factories sharing one sweep key.

    ``key`` is ``None`` for unshareable factories (each forms its own
    group); otherwise every member shares the
    :attr:`~repro.policies.registry.PolicyFactory.sweep_key`.
    """

    key: tuple | None
    factories: tuple[PolicyFactory, ...]


def group_factories(
    factories: Sequence[PolicyFactory], *, enabled: bool = True
) -> list[FactoryGroup]:
    """Group a factory list into shareable families.

    Factories with equal (non-``None``) sweep keys are merged into one
    group, preserving first-appearance order; unshareable factories become
    singleton groups in place.  With ``enabled=False`` every factory is a
    singleton (the per-policy routing).
    """
    groups: list[FactoryGroup] = []
    members: dict[tuple, list[PolicyFactory]] = {}
    ordered_keys: list[tuple | None] = []
    singletons: dict[int, PolicyFactory] = {}
    for position, factory in enumerate(factories):
        key = factory.sweep_key if enabled else None
        if key is None:
            ordered_keys.append(None)
            singletons[len(ordered_keys) - 1] = factory
            continue
        if key not in members:
            members[key] = []
            ordered_keys.append(key)
        members[key].append(factory)
    emitted: set[tuple] = set()
    for position, key in enumerate(ordered_keys):
        if key is None:
            groups.append(FactoryGroup(None, (singletons[position],)))
        elif key not in emitted:
            emitted.add(key)
            groups.append(FactoryGroup(key, tuple(members[key])))
    return groups


class SweepEngine:
    """Groups multi-policy runs into families for the engine's driver.

    Args:
        engine: The engine whose workload, options, and driver
            (:meth:`~repro.simulation.engine.SimulationEngine.run_group`)
            every group runs through.
    """

    def __init__(self, engine: "SimulationEngine") -> None:
        self._engine = engine
        self.options = engine.options

    def run_policies(
        self,
        factories: Sequence[PolicyFactory],
        *,
        progress: Callable[[str, int, int], None] | None = None,
    ) -> dict[str, AggregateResult]:
        """Evaluate several policies, sharing state within policy families.

        Returns results keyed by factory name, in input order.
        ``progress(name, done, total)`` is called once per policy, when
        its group has finished.

        Raises:
            ValueError: When two factories share a name (results would
                silently overwrite each other).
        """
        factories = list(factories)
        check_unique_policy_names(factories)
        results: dict[str, AggregateResult] = {}
        for group in group_factories(factories, enabled=self.family_sharing_enabled()):
            for name, app_results in self._engine.run_group(group.factories).items():
                results[name] = merge_results(name, app_results)
                if progress is not None:
                    progress(name, len(app_results), len(app_results))
        return {factory.name: results[factory.name] for factory in factories}

    def family_sharing_enabled(self) -> bool:
        """Whether shareable factories are grouped into multi-member families.

        ``sweep="auto"`` groups under the ``auto`` and ``parallel``
        execution modes.  ``sweep="per-policy"`` evaluates each factory as
        a family of one, and ``execution="serial"`` runs every factory
        through the scalar reference loop, one at a time.
        """
        return self.options.sweep == "auto" and self.options.execution != "serial"


def evaluate_family(
    factories: Sequence[PolicyFactory],
    items: Sequence["_AppWorkItem"],
    simulator: "ColdStartSimulator",
) -> dict[str, list[AppSimResult]]:
    """Evaluate factories sharing one sweep key over a set of work items."""
    family = factories[0].family
    if family == FAMILY_CONSTANT_KEEPALIVE:
        return _evaluate_constant_family(factories, items, simulator)
    if family == FAMILY_HYBRID_HISTOGRAM:
        return _evaluate_hybrid_family(factories, items, simulator)
    raise ValueError(f"unknown policy family {family!r}")  # pragma: no cover


# --------------------------------------------------------------------------- #
# Constant-keep-alive family (Figure 14): closed form over shared gaps
# --------------------------------------------------------------------------- #
def _evaluate_constant_family(
    factories: Sequence[PolicyFactory],
    items: Sequence["_AppWorkItem"],
    simulator: "ColdStartSimulator",
) -> dict[str, list[AppSimResult]]:
    """Evaluate the whole keep-alive grid against per-app gaps computed once.

    An invocation is warm iff it arrives at or before the previous
    window's expiry, and the idle loaded time of each gap is the part of
    the window that elapsed before the next arrival, clipped to the
    horizon.  The flat timestamp column, its per-invocation start/arrival
    views, and the validation pass are shared by every configuration;
    each ``K`` then costs a handful of flat array operations in one
    reused buffer.  Every per-term float operation matches the scalar
    simulator's; the terms are summed per application with numpy's
    pairwise summation, so waste agrees with the scalar loop to well
    within 1e-9.
    """
    horizon = simulator.horizon_minutes
    times_list = [simulator.validate_times(item.times) for item in items]
    counts = np.array([times.size for times in times_list], dtype=np.int64)
    flat = (
        np.concatenate(times_list) if times_list else np.zeros(0, dtype=np.float64)
    )
    offsets = np.zeros(len(items), dtype=np.int64)
    if len(items):
        np.cumsum(counts[:-1], out=offsets[1:])
    starts = flat[:-1]
    arrivals = flat[1:]
    # Window end, then effective end, then waste term per gap, in place.
    terms = np.empty(starts.size, dtype=np.float64)

    results: dict[str, list[AppSimResult]] = {}
    for factory in factories:
        keepalive = float(factory.family_config)
        np.add(starts, keepalive, out=terms)
        # With a zero pre-warming window an arrival exactly at the expiry
        # instant is still warm (PolicyDecision.covers).
        cold_gap = arrivals > terms
        np.minimum(terms, arrivals, out=terms)
        np.minimum(terms, horizon, out=terms)
        terms -= starts
        np.maximum(terms, 0.0, out=terms)
        app_results: list[AppSimResult] = []
        for index, item in enumerate(items):
            n = int(counts[index])
            if n == 0:
                app_results.append(
                    AppSimResult(
                        app_id=item.app_id,
                        invocations=0,
                        cold_starts=0,
                        wasted_memory_minutes=0.0,
                        memory_mb=item.memory_mb,
                    )
                )
                continue
            o = int(offsets[index])
            # Gap terms live at flat positions [o, o + n - 1); the entry at
            # o + n - 1 pairs this app's last invocation with the next
            # app's first and is never read.
            cold_starts = int(np.count_nonzero(cold_gap[o : o + n - 1]))
            if simulator.first_invocation_cold:
                cold_starts += 1
            wasted = float(np.sum(terms[o : o + n - 1]))
            if simulator.count_tail_waste:
                last = flat[o + n - 1]
                tail_end = min(last + keepalive, horizon)
                if tail_end > last:
                    wasted += tail_end - float(last)
            app_results.append(
                AppSimResult(
                    app_id=item.app_id,
                    invocations=n,
                    cold_starts=cold_starts,
                    wasted_memory_minutes=wasted,
                    memory_mb=item.memory_mb,
                )
            )
        results[factory.name] = app_results
    return results


# --------------------------------------------------------------------------- #
# Hybrid histogram family (Figures 15-19): one recording pass, K config scans
# --------------------------------------------------------------------------- #
@dataclass
class _HybridFamilyRecording:
    """Per-invocation shared state of one hybrid family, in CSR layout.

    Applications are ordered longest-first (the lockstep stepping order);
    application ``r`` occupies flat positions ``[offsets[r],
    offsets[r] + counts[r])``, one per invocation in time order.  Every
    recorded value is exactly what a scalar hybrid policy of this
    geometry observes at that invocation's decision point.  Bins and
    counters are int32 (int64 only past 2**31 invocations): they are the
    bulk of the recording, and int32 halves it.
    """

    order: np.ndarray  #: sorted row -> work-item index
    counts: np.ndarray  #: invocations per sorted row
    offsets: np.ndarray  #: CSR start per sorted row
    times: np.ndarray  #: flat timestamps, sorted-app order
    cv: np.ndarray  #: bin-count CV at each decision point
    bins: dict[float, np.ndarray]  #: percentile -> bin index per invocation
    total: np.ndarray  #: idle times observed at each decision point
    oob: np.ndarray  #: ... of which out of the histogram range
    range_minutes: float
    bin_width_minutes: float


def _record_hybrid_family(
    items: Sequence["_AppWorkItem"],
    simulator: "ColdStartSimulator",
    range_minutes: float,
    bin_width_minutes: float,
    percentiles: Sequence[float],
    drain_threshold: int = DEFAULT_SCALAR_DRAIN_THRESHOLD,
) -> _HybridFamilyRecording:
    """One shared pass over the workload recording per-invocation state.

    Applications are assigned rows longest-first and stepped in lockstep
    prefixes through one :class:`HistogramBank` (step ``k`` feeds the
    ``k``-th idle time of every application that has one, so the active
    set is always a row prefix).  Once ``drain_threshold`` or fewer rows
    remain active, each survivor is cloned into a scalar
    :class:`~repro.core.histogram.IdleTimeHistogram`
    (:meth:`HistogramBank.extract_row` preserves the exact Welford state)
    and recorded to the end through the scalar code path — both paths
    produce bit-identical CV and percentile-bin trajectories.
    """
    num = len(items)
    times_list = [simulator.validate_times(item.times) for item in items]
    counts = np.array([times.size for times in times_list], dtype=np.int64)
    order = np.argsort(-counts, kind="stable")
    counts_sorted = counts[order]
    flat = (
        np.concatenate([times_list[int(i)] for i in order])
        if num
        else np.zeros(0, dtype=np.float64)
    )
    offsets = np.zeros(num, dtype=np.int64)
    if num:
        np.cumsum(counts_sorted[:-1], out=offsets[1:])
    max_count = int(counts_sorted[0]) if num else 0
    occupancy = np.bincount(counts_sorted, minlength=max_count + 1)
    active_per_step = num - np.cumsum(occupancy)[:max_count]

    total_invocations = int(flat.size)
    counter_dtype = np.int32 if total_invocations < 2**31 else np.int64
    cv = np.zeros(total_invocations, dtype=np.float64)
    percentiles = list(percentiles)
    bins = {q: np.zeros(total_invocations, dtype=np.int32) for q in percentiles}
    qs = np.asarray(percentiles, dtype=np.float64)
    qs_fraction = qs / 100.0

    bank = HistogramBank(
        num, range_minutes=range_minutes, bin_width_minutes=bin_width_minutes
    )
    num_bins = bank.num_bins
    for step in range(max_count):
        active = int(active_per_step[step])
        if active <= drain_threshold:
            # Scalar drain: record the few longest applications to the end
            # through scalar histograms resumed from their bank rows.
            for row in range(active):
                o = int(offsets[row])
                histogram = bank.extract_row(row)
                for k in range(step, int(counts_sorted[row])):
                    if k > 0:
                        histogram.observe(float(flat[o + k] - flat[o + k - 1]))
                    position = o + k
                    cv[position] = histogram.bin_count_cv
                    in_bounds = histogram.in_bounds_count
                    if in_bounds:
                        # The scalar percentile() bin search, batched over
                        # every distinct percentile of the family.
                        cumulative = np.cumsum(histogram.counts)
                        targets = np.maximum(qs_fraction * in_bounds, 1e-12)
                        indices = np.minimum(
                            np.searchsorted(cumulative, targets, side="left"),
                            num_bins - 1,
                        )
                        for qi, q in enumerate(percentiles):
                            bins[q][position] = indices[qi]
            break
        positions = offsets[:active] + step
        if step > 0:
            bank.observe_prefix(flat[positions] - flat[positions - 1])
        cv[positions] = bank.bin_count_cv_prefix(active)
        in_bounds = bank.in_bounds_count[:active]
        bin_matrix = bank.percentile_bins_prefix(active, qs, in_bounds)
        for qi, q in enumerate(percentiles):
            bins[q][positions] = bin_matrix[qi]

    # Observation counters are pure gap counts; compute them flat instead
    # of recording them, each with one in-place cumsum over per-position
    # steps that restart at every row's first position.  total at
    # decision k is k (one idle time per preceding gap); oob counts the
    # gaps at or beyond the range, with exactly the ``idle < range``
    # comparison the histogram applies.
    populated = int(np.count_nonzero(counts_sorted))
    firsts = offsets[:populated]
    total = np.ones(total_invocations, dtype=counter_dtype)
    oob = np.zeros(total_invocations, dtype=counter_dtype)
    if total_invocations:
        total[0] = 0
        total[firsts[1:]] = 1 - counts_sorted[: populated - 1]
        np.cumsum(total, out=total)
        oob[1:] = (flat[1:] - flat[:-1]) >= range_minutes
        oob[firsts] = 0
        row_oob = np.add.reduceat(oob, firsts)
        oob[firsts[1:]] = -row_oob[:-1]
        np.cumsum(oob, out=oob)
    return _HybridFamilyRecording(
        order=order,
        counts=counts_sorted,
        offsets=offsets,
        times=flat,
        cv=cv,
        bins=bins,
        total=total,
        oob=oob,
        range_minutes=range_minutes,
        bin_width_minutes=bin_width_minutes,
    )


class _ArimaForecastMemo:
    """Idle-time forecasts shared across a family's configurations.

    The ARIMA branch is a pure function of the retained idle-time history,
    which depends only on the trace (and the history capacity) — never on
    the configuration's margins or thresholds.  Each (invocation, history
    capacity) pair is therefore fitted at most once per sweep, and every
    configuration that triggers the branch at that invocation reuses the
    forecast, applying only its own margin arithmetic.
    """

    def __init__(self, recording: _HybridFamilyRecording) -> None:
        self._recording = recording
        self._predictions: dict[tuple[int, int], float] = {}

    def predictions(self, positions: np.ndarray, max_history: int) -> np.ndarray:
        """Forecast idle times for the given flat invocation positions.

        Cache misses are collected and fitted as stacked batches (one
        stacked grid search per distinct history length) instead of one
        scalar model per position; the batched fits are bit-identical to
        the scalar forecaster, so memoized values are interchangeable
        between the two paths.
        """
        out = np.empty(positions.size, dtype=np.float64)
        missing: list[int] = []
        histories: list[np.ndarray] = []
        for i, position in enumerate(positions):
            key = (int(position), max_history)
            cached = self._predictions.get(key)
            if cached is not None:
                out[i] = cached
            else:
                missing.append(i)
                histories.append(self._history(int(position), max_history))
        if missing:
            values = forecast_idle_times(histories)
            for i, value in zip(missing, values):
                prediction = float(value)
                out[i] = prediction
                self._predictions[(int(positions[i]), max_history)] = prediction
        return out

    def _history(self, position: int, max_history: int) -> np.ndarray:
        """Idle-time history backing the forecast at one flat position.

        The forecaster's history at decision step k is the last
        min(k, capacity) idle gaps, oldest first — reconstructed
        directly from the timestamps, exactly the values the scalar
        forecaster's deque holds at that point.
        """
        recording = self._recording
        row = int(np.searchsorted(recording.offsets, position, side="right") - 1)
        o = int(recording.offsets[row])
        step = position - o
        start = max(1, step - max_history + 1)
        return (
            recording.times[o + start : o + step + 1]
            - recording.times[o + start - 1 : o + step]
        )


def _evaluate_hybrid_family(
    factories: Sequence[PolicyFactory],
    items: Sequence["_AppWorkItem"],
    simulator: "ColdStartSimulator",
) -> dict[str, list[AppSimResult]]:
    """Evaluate every configuration of one hybrid family from one recording."""
    configs = [factory.family_config for factory in factories]
    reference = configs[0]
    assert all(
        config.histogram_range_minutes == reference.histogram_range_minutes
        and config.bin_width_minutes == reference.bin_width_minutes
        for config in configs
    ), "hybrid family members must share the histogram geometry"
    percentiles = sorted(
        {config.head_percentile for config in configs}
        | {config.tail_percentile for config in configs}
    )
    recording = _record_hybrid_family(
        items,
        simulator,
        reference.histogram_range_minutes,
        reference.bin_width_minutes,
        percentiles,
    )
    memo = _ArimaForecastMemo(recording)
    # Two float scratch buffers serve every configuration in turn.
    prewarm = np.empty(recording.times.size, dtype=np.float64)
    keepalive = np.empty(recording.times.size, dtype=np.float64)
    return {
        factory.name: _evaluate_hybrid_config(
            recording, config, memo, items, simulator, prewarm, keepalive
        )
        for factory, config in zip(factories, configs)
    }


def _evaluate_hybrid_config(
    recording: _HybridFamilyRecording,
    config,
    memo: _ArimaForecastMemo,
    items: Sequence["_AppWorkItem"],
    simulator: "ColdStartSimulator",
    prewarm: np.ndarray,
    keepalive: np.ndarray,
) -> list[AppSimResult]:
    """One configuration's decisions, cold starts, and waste from recordings.

    Every float operation mirrors the scalar
    :class:`~repro.core.hybrid.HybridHistogramPolicy` (masks, margin
    arithmetic, the no-pre-warming transform) and the scalar simulator's
    cold/waste terms, evaluated flat over all invocations at once.
    Decisions never depend on cold/warm outcomes, so the flat evaluation
    is exact.  ``prewarm`` and ``keepalive`` are scratch buffers of one
    float per invocation, overwritten in place: decision windows first,
    then load intervals, then waste terms.
    """
    total = recording.total
    oob = recording.oob
    bin_width = recording.bin_width_minutes

    # Decision masks; ``prewarm`` holds the in-bounds counts and then the
    # OOB fraction (exact in float64) before it holds any window.
    np.subtract(total, oob, out=prewarm)
    mask_histogram = prewarm >= config.min_observations
    mask_histogram &= recording.cv >= config.cv_threshold
    mask_arima = None
    if config.enable_arima:
        prewarm.fill(0.0)
        np.divide(oob, total, out=prewarm, where=total > 0)
        mask_arima = prewarm > config.oob_fraction_threshold
        mask_arima &= total >= config.oob_min_observations
        mask_histogram &= ~mask_arima

    # Histogram windows from the head/tail bins, then the standard
    # keep-alive wherever the histogram is not in charge.
    np.multiply(recording.bins[config.head_percentile], bin_width, out=prewarm)
    prewarm *= 1.0 - config.prewarm_margin
    np.add(recording.bins[config.tail_percentile], 1, out=keepalive)
    keepalive *= bin_width
    keepalive *= 1.0 + config.keepalive_margin
    prewarm[prewarm < bin_width] = 0.0
    keepalive -= prewarm
    np.maximum(keepalive, bin_width, out=keepalive)
    not_histogram = ~mask_histogram
    prewarm[not_histogram] = 0.0
    keepalive[not_histogram] = config.histogram_range_minutes
    del not_histogram

    if mask_arima is not None and mask_arima.any():
        positions = np.flatnonzero(mask_arima)
        predictions = memo.predictions(positions, config.arima_max_history)
        prewarm[positions] = np.maximum(
            predictions * (1.0 - config.arima_margin), 0.0
        )
        keepalive[positions] = np.maximum(
            2.0 * config.arima_margin * predictions, bin_width
        )

    if not config.enable_prewarming:
        # "Hybrid No PW" (Figure 17): keep the tail-derived keep-alive but
        # never unload right after the execution.
        unloads = prewarm > 0
        np.add(prewarm, keepalive, out=keepalive, where=unloads)
        prewarm[unloads] = 0.0
        del unloads

    # Each application's last decision governs its tail waste.
    counts = recording.counts
    offsets = recording.offsets
    populated_rows = int(np.count_nonzero(counts))
    firsts = offsets[:populated_rows]
    lasts = firsts + counts[:populated_rows] - 1
    last_prewarm = prewarm[lasts]
    last_keepalive = keepalive[lasts]

    # Cold/warm outcomes and idle-loaded waste from consecutive decisions,
    # flat: position i's decision governs the gap to position i + 1 of the
    # same application (the entry pairing an application's last invocation
    # with the next application's first is masked off below).
    times = recording.times
    horizon = simulator.horizon_minutes
    cold = np.zeros(times.size, dtype=bool)
    terms = prewarm
    if times.size:
        prewarm += times  # load start
        keepalive += prewarm  # load end
        load_start, load_end, arrivals = prewarm[:-1], keepalive[:-1], times[1:]
        np.less_equal(load_start, arrivals, out=cold[1:])
        cold[1:] &= arrivals <= load_end
        np.logical_not(cold[1:], out=cold[1:])
        cold[firsts] = simulator.first_invocation_cold
        np.minimum(load_end, arrivals, out=load_end)
        np.minimum(load_end, horizon, out=load_end)
        load_end -= load_start
        np.maximum(load_end, 0.0, out=load_end)
        # The waste of the gap ending at position i moves to position i.
        terms[1:] = load_end
        terms[firsts] = 0.0

    if populated_rows:
        cold_counts = np.add.reduceat(cold, firsts, dtype=np.int64)
        wasted = np.add.reduceat(terms, firsts)
        histogram_counts = np.add.reduceat(mask_histogram, firsts, dtype=np.int64)
        if mask_arima is not None:
            arima_counts = np.add.reduceat(mask_arima, firsts, dtype=np.int64)
        else:
            arima_counts = np.zeros(populated_rows, dtype=np.int64)

    results: list[AppSimResult | None] = [None] * len(items)
    for row, item_index in enumerate(recording.order.tolist()):
        item = items[item_index]
        n = int(counts[row])
        if n == 0:
            results[item_index] = AppSimResult(
                app_id=item.app_id,
                invocations=0,
                cold_starts=0,
                wasted_memory_minutes=0.0,
                memory_mb=item.memory_mb,
                mode_counts=dict(_EMPTY_HYBRID_MODES),
            )
            continue
        last = int(lasts[row])
        wasted_minutes = float(wasted[row])
        if simulator.count_tail_waste:
            wasted_minutes += simulator.waste_between(
                float(times[last]),
                PolicyDecision(
                    prewarm_minutes=float(last_prewarm[row]),
                    keepalive_minutes=float(last_keepalive[row]),
                ),
                horizon,
            )
        histogram_decisions = int(histogram_counts[row])
        arima_decisions = int(arima_counts[row])
        results[item_index] = AppSimResult(
            app_id=item.app_id,
            invocations=n,
            cold_starts=int(cold_counts[row]),
            wasted_memory_minutes=wasted_minutes,
            memory_mb=item.memory_mb,
            mode_counts={
                "histogram": histogram_decisions,
                "standard": n - histogram_decisions - arima_decisions,
                "arima": arima_decisions,
            },
            oob_idle_times=int(oob[last]),
        )
    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]
