"""The simulation engine: one driver for every policy run over a workload.

The per-application simulations behind Figures 14–18 are embarrassingly
parallel: policies are per-application and the simulator models no
cross-application contention.  :class:`SimulationEngine` exploits that
with a single driver (:meth:`SimulationEngine.run_group`).  It walks the
workload in contiguous application ranges — the ``max_resident_bytes``
chunks of :meth:`SimulationEngine.app_chunk_bounds` in process, or under
``execution="parallel"`` the shards of :meth:`SimulationEngine.shard_ranges`
fanned out over a ``fork`` worker pool — and makes one evaluation per
range:

* factories that declare a policy family (the constant keep-alive grid
  and the hybrid histogram policy) go through the family evaluator of
  :mod:`repro.simulation.sweep_engine`; a single policy is a family of
  one;
* ``execution="serial"``, and factories without family metadata, run the
  scalar loop — :meth:`~repro.simulation.coldstart.ColdStartSimulator.simulate_app`
  with a fresh policy instance per application.  The scalar loop is the
  reference oracle the family evaluators are tested against.

Ranges are reassembled in workload order, and every evaluation is a pure
function of each application's own timestamps, so the merged
:class:`~repro.simulation.metrics.AggregateResult` is byte-identical no
matter how many workers ran, in which order shards completed, or where
the chunk boundaries fell.  Policy factories capture closures, which
cannot be pickled, so tasks travel to forked workers by inheritance; on
platforms without ``fork`` the shards run in-process, preserving results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.pool import fork_pool_map
from repro.policies.registry import PolicyFactory
from repro.simulation.coldstart import ColdStartSimulator
from repro.simulation.metrics import AggregateResult, AppSimResult, merge_results
from repro.simulation.sweep_engine import evaluate_family
from repro.trace.store import InvocationStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.trace.schema import Workload

#: Recognized values of :attr:`RunnerOptions.execution`.
EXECUTION_MODES: tuple[str, ...] = ("auto", "serial", "parallel")

#: Recognized values of :attr:`RunnerOptions.sweep` (multi-policy runs):
#: ``auto`` evaluates each shareable policy family in one shared-state
#: pass, ``per-policy`` evaluates every policy as a family of one.
SWEEP_MODES: tuple[str, ...] = ("auto", "per-policy")

#: Shards per worker: small enough to keep per-shard overhead negligible,
#: large enough that uneven per-app costs still balance across the pool.
_SHARDS_PER_WORKER = 4

#: Estimated resident bytes of per-application engine state in one chunk:
#: the hybrid family's histogram row (240 × int64 at the default config)
#: plus result rows and counters.  Used by the ``max_resident_bytes``
#: chunk geometry so many-small-app workloads are bounded by app count
#: too, not only by invocation bytes.
_PER_APP_RESIDENT_BYTES = 4096


@dataclass(frozen=True)
class RunnerOptions:
    """Options shared by all policy runs over a workload.

    Attributes:
        use_memory_weights: Weight each application's wasted memory time by
            its average allocated memory.  The paper's simulator assumes
            equal footprints (False), because memory data is not available
            for every application; enabling this gives MB-weighted waste.
        min_invocations: Applications with fewer invocations than this are
            skipped entirely (0 keeps every application, including those
            never invoked, which simply produce empty results).
        execution: ``"auto"`` (policy families evaluated in process),
            ``"parallel"`` (the same evaluations, sharded across a worker
            pool), or ``"serial"`` (the reference scalar loop, one policy
            instance per application).
        workers: Worker-pool size for the parallel engine; ``None`` uses
            the machine's CPU count.  Ignored by the other engines.
        sweep: Multi-policy routing (``repro.simulation.sweep_engine``):
            ``"auto"`` evaluates each policy family in one shared-state
            pass, ``"per-policy"`` evaluates each policy as a family of
            one.  Serial execution always runs one policy at a time.
        max_resident_bytes: Memory budget (bytes) for one engine pass.
            ``None`` (the default) iterates the whole workload at once;
            a budget makes the engine — and each parallel shard — walk
            the store in contiguous application chunks whose working set
            (:meth:`SimulationEngine.app_chunk_bounds`) fits the budget,
            releasing memory-mapped pages after each chunk
            (:meth:`~repro.trace.store.InvocationStore.release_mapped_pages`),
            so peak RSS stays near the budget instead of the trace size.
            Results are unaffected: chunked passes are exactly the
            unchunked passes evaluated range by range.
    """

    use_memory_weights: bool = False
    min_invocations: int = 1
    execution: str = "auto"
    workers: int | None = None
    sweep: str = "auto"
    max_resident_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.execution not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode {self.execution!r}; "
                f"expected one of {EXECUTION_MODES}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError("worker count must be at least 1")
        if self.sweep not in SWEEP_MODES:
            raise ValueError(
                f"unknown sweep mode {self.sweep!r}; expected one of {SWEEP_MODES}"
            )
        if self.max_resident_bytes is not None and self.max_resident_bytes < 1:
            raise ValueError("max_resident_bytes must be positive")


# --------------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _AppWorkItem:
    """One application's simulation inputs, resolved from the workload."""

    app_id: str
    times: np.ndarray
    memory_mb: float


class SimulationEngine:
    """Runs policies over a workload under a chosen execution mode.

    The engine is the single routing point used by
    :class:`~repro.simulation.runner.WorkloadRunner` and the sweeps: it
    resolves per-application work items range by range, and its one
    driver (:meth:`run_group`) either loops over chunks in process or
    fans shards out over a worker pool.

    Accepts either a full :class:`~repro.trace.schema.Workload` or a bare
    :class:`~repro.trace.store.InvocationStore` (e.g. one streamed to disk
    by ``repro trace gen`` and re-opened memory-mapped).  Store-only mode
    has no per-application metadata, so ``use_memory_weights`` weighs
    every application at 1 MB.
    """

    def __init__(
        self,
        workload: "Workload | InvocationStore",
        options: RunnerOptions | None = None,
    ) -> None:
        if isinstance(workload, InvocationStore):
            self.workload: "Workload | None" = None
            self._store = workload
            self._apps = None
        else:
            self.workload = workload
            self._store = workload.store
            self._apps = workload.apps
        self.options = options or RunnerOptions()
        self._simulator = ColdStartSimulator(
            horizon_minutes=self._store.duration_minutes
        )
        # Descriptor plumbing for the parallel route: forked workers detect
        # that they are not this pid and re-open the store from its path.
        self._parent_pid = os.getpid()
        self._worker_store: tuple[int, InvocationStore] | None = None

    @property
    def store(self) -> InvocationStore:
        """The columnar invocation store the engine iterates over."""
        return self._store

    def work_items(self) -> list[_AppWorkItem]:
        """Per-application inputs for the whole workload."""
        return self.work_items_range(0, self._store.num_apps)

    def work_items_range(
        self,
        start_app: int,
        stop_app: int,
        *,
        store: InvocationStore | None = None,
    ) -> list[_AppWorkItem]:
        """Work items for the contiguous application range ``[start, stop)``.

        Each item's ``times`` is a read-only, zero-copy slice of the
        store's flat sorted column — for a memory-mapped store the bytes
        are only paged in when a simulation touches them, which is what
        makes the ``max_resident_bytes`` chunked passes stream instead of
        loading the trace.  ``store`` substitutes a re-opened handle of
        the same archive (parallel shard workers); application indices and
        ids are identical by construction.
        """
        store = self._store if store is None else store
        counts = np.diff(store.app_offsets[start_app : stop_app + 1])
        min_invocations = self.options.min_invocations
        use_weights = self.options.use_memory_weights
        apps = self._apps
        items: list[_AppWorkItem] = []
        for offset in range(stop_app - start_app):
            if counts[offset] < min_invocations:
                continue
            app_index = start_app + offset
            if apps is not None:
                app = apps[app_index]
                app_id = app.app_id
                memory_mb = app.memory.average_mb if use_weights else 1.0
            else:
                app_id = store.app_ids[app_index]
                memory_mb = 1.0
            items.append(
                _AppWorkItem(
                    app_id=app_id,
                    times=store.app_slice(app_index),
                    memory_mb=memory_mb,
                )
            )
        return items

    def eligible_app_count(self) -> int:
        """How many applications pass the ``min_invocations`` filter."""
        if self.options.min_invocations <= 0:
            return self._store.num_apps
        counts = self._store.app_counts()
        return int(np.count_nonzero(counts >= self.options.min_invocations))

    # ------------------------------------------------------------------ #
    # Memory-bounded chunking and parallel shard geometry
    # ------------------------------------------------------------------ #
    def app_chunk_bounds(
        self, start_app: int = 0, stop_app: int | None = None
    ) -> list[tuple[int, int]]:
        """Contiguous app ranges honouring ``options.max_resident_bytes``.

        Splits ``[start_app, stop_app)`` greedily so each range's cost
        fits the budget, where cost charges 64 bytes per invocation (the
        family evaluators' per-invocation working set: the ``times``
        column plus the hybrid family's recording and decision buffers,
        about 61 bytes together) plus ``_PER_APP_RESIDENT_BYTES`` per
        application for their per-row state (histogram bins, counters).
        Charging apps as well as invocations keeps peak RSS flat in app
        count, not just in trace length.  A single application larger
        than the budget gets its own range rather than failing.  With no
        budget the whole range comes back as one chunk.
        """
        stop_app = self._store.num_apps if stop_app is None else stop_app
        if stop_app <= start_app:
            return []
        limit = self.options.max_resident_bytes
        if limit is None:
            return [(start_app, stop_app)]
        offsets = np.asarray(self._store.app_offsets)
        # Strictly increasing cumulative cost; searchsorted finds the
        # farthest stop whose chunk stays within budget.
        cost = offsets * 64 + np.arange(offsets.size, dtype=np.int64) * (
            _PER_APP_RESIDENT_BYTES
        )
        bounds: list[tuple[int, int]] = []
        cursor = start_app
        while cursor < stop_app:
            target = int(cost[cursor]) + max(int(limit), 1)
            stop = int(np.searchsorted(cost, target, side="right")) - 1
            stop = min(max(stop, cursor + 1), stop_app)
            bounds.append((cursor, stop))
            cursor = stop
        return bounds

    def shard_ranges(self, workers: int) -> list[tuple[int, int]]:
        """Contiguous app ranges for the parallel route's shards.

        Shards are balanced by invocation count (not application count, so
        skewed workloads still spread evenly), oversharded by
        ``_SHARDS_PER_WORKER``, and — under a ``max_resident_bytes``
        budget — further split so no single shard task exceeds the budget.
        Concatenating per-range results in range order reproduces the
        in-process application order for any worker count.
        """
        store = self._store
        num_apps = store.num_apps
        if num_apps == 0:
            return []
        num_shards = min(num_apps, max(1, int(workers)) * _SHARDS_PER_WORKER)
        offsets = np.asarray(store.app_offsets)
        targets = np.linspace(0, int(offsets[-1]), num_shards + 1)
        bounds = np.searchsorted(offsets, targets, side="left").astype(int)
        bounds = np.minimum(bounds, num_apps)
        bounds[0] = 0
        bounds[-1] = num_apps
        bounds = np.maximum.accumulate(bounds)
        ranges: list[tuple[int, int]] = []
        for index in range(num_shards):
            start, stop = int(bounds[index]), int(bounds[index + 1])
            if stop <= start:
                continue
            if self.options.max_resident_bytes is not None:
                ranges.extend(self.app_chunk_bounds(start, stop))
            else:
                ranges.append((start, stop))
        return ranges

    def worker_store(self) -> InvocationStore:
        """The store handle the calling process should read columns from.

        In the engine's own process this is simply the engine's store.  A
        forked parallel worker whose store came from disk re-opens the
        archive memory-mapped instead: only the ``(path, app range)``
        descriptor travels through fork, the pages come from the shared
        OS page cache, and the worker never touches the parent's columns.
        Stores without a backing file (built in memory, or subsets) fall
        back to the fork-inherited arrays, which preserves results.
        """
        pid = os.getpid()
        if pid == self._parent_pid:
            return self._store
        cached = self._worker_store
        if cached is not None and cached[0] == pid:
            return cached[1]
        path = self._store.source_path
        if path is None:
            store = self._store
        else:
            store = InvocationStore.open(path, mmap=True)
        self._worker_store = (pid, store)
        return store

    # ------------------------------------------------------------------ #
    def run_policy(
        self,
        factory: PolicyFactory,
        *,
        progress: Callable[[int, int], None] | None = None,
    ) -> AggregateResult:
        """Simulate one policy over the workload, as a family of one."""
        results = self.run_group((factory,), progress=progress)
        return merge_results(factory.name, results[factory.name])

    def run_group(
        self,
        factories: Sequence[PolicyFactory],
        *,
        progress: Callable[[int, int], None] | None = None,
    ) -> dict[str, list[AppSimResult]]:
        """Evaluate one group of policies over the workload: the driver.

        ``factories`` share one sweep key, and each application range is
        evaluated with one family evaluation.  Under ``execution="serial"``,
        or for a factory without family metadata, the group must be a
        single factory, and it runs through the scalar loop.

        Walks :meth:`app_chunk_bounds` in process, or under ``parallel``
        the :meth:`shard_ranges` over the fork pool; each forked worker
        reads its range through :meth:`worker_store`.  Under a
        ``max_resident_bytes`` budget the store's mapped pages are
        released after every range.  ``progress(done, total)`` reports
        applications done after each range.

        Returns:
            Per-application results keyed by factory name, in workload
            order.
        """
        factories = tuple(factories)
        if self.options.execution == "serial" or factories[0].sweep_key is None:
            (factory,) = factories

            def evaluate(items: list[_AppWorkItem]) -> dict[str, list[AppSimResult]]:
                results = [self._simulate_scalar(item, factory) for item in items]
                return {factory.name: results}

        else:

            def evaluate(items: list[_AppWorkItem]) -> dict[str, list[AppSimResult]]:
                return evaluate_family(factories, items, self._simulator)

        total = self.eligible_app_count()
        workers = 1
        if self.options.execution == "parallel":
            workers = self.options.workers or os.cpu_count() or 1
            workers = max(1, min(workers, total))
        ranges = self.shard_ranges(workers) if workers > 1 else self.app_chunk_bounds()

        def run_range(index: int) -> dict[str, list[AppSimResult]]:
            start, stop = ranges[index]
            store = self.worker_store()
            results = evaluate(self.work_items_range(start, stop, store=store))
            if self.options.max_resident_bytes is not None:
                store.release_mapped_pages()
            return results

        done = 0

        def on_result(index: int, results: dict[str, list[AppSimResult]]) -> None:
            nonlocal done
            done += len(results[factories[0].name])
            if progress is not None:
                progress(done, total)

        merged: dict[str, list[AppSimResult]] = {f.name: [] for f in factories}
        ordered = fork_pool_map(run_range, len(ranges), workers, on_result=on_result)
        for results in ordered:
            for name, app_results in results.items():
                merged[name].extend(app_results)
        return merged

    def _simulate_scalar(
        self, item: _AppWorkItem, factory: PolicyFactory
    ) -> AppSimResult:
        result = self._simulator.simulate_app(
            item.app_id, item.times, factory.create(), memory_mb=item.memory_mb
        )
        assert isinstance(result, AppSimResult)
        return result
