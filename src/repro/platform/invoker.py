"""Invokers: worker nodes that host application containers.

Each invoker mirrors an OpenWhisk invoker VM: it owns a memory budget,
creates Docker-like containers on demand (paying a cold-start latency),
runs function executions inside them, and unloads containers when the
keep-alive window received with the activation message expires — the
paper's modification to OpenWhisk's ``ContainerProxy``.  When memory runs
short the invoker evicts the least-recently-used idle container.

Invokers can also **fail**: :meth:`Invoker.crash` models the VM dying —
every container (busy or not) is destroyed, in-flight executions are
lost and reported back for retry accounting, keep-alive deadlines and
their queued expiry events are dropped, and the incremental memory
accounting resets to zero.  A crashed invoker rejects activations (the
controller retries them elsewhere) until :meth:`Invoker.restart` brings
it back empty and cold.

Beyond dying outright, an invoker can be **degraded** (slow, not dead):
:meth:`Invoker.degrade` applies a multiplier to container start-up and
execution time and optionally a brownout concurrency cap above which new
activations are shed back to the controller.  Degradation changes the
invoker's *effective* capacity — :attr:`Invoker.effective_load_fraction`
and :attr:`Invoker.effective_free_memory_mb` discount for the slowdown —
which is what the least-loaded balancer and the autoscaler observe, so a
slow invoker never looks more attractive than a healthy one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.platform.container import Container, ContainerState
from repro.platform.events import EventHandle, EventLoop
from repro.platform.messages import ActivationMessage, CompletionMessage, ContainerUnloadNotice
from repro.platform.metrics import PlatformMetrics


@dataclass(frozen=True)
class ColdStartModel:
    """Latency model for container creation and runtime bootstrap.

    The paper reports container initiation of O(100 ms)–seconds and an
    in-memory language-runtime initiation of O(10 ms); the runtime
    bootstrap is additionally paid *inside* the measured execution time of
    cold invocations, which is why eliminating cold starts also shortened
    the observed execution times in Section 5.3.
    """

    container_start_mean_seconds: float = 1.2
    container_start_sigma: float = 0.35
    runtime_bootstrap_seconds: float = 0.35
    warm_start_overhead_seconds: float = 0.01

    def sample_container_start(self, rng: np.random.Generator) -> float:
        draw = rng.lognormal(mean=np.log(self.container_start_mean_seconds), sigma=self.container_start_sigma)
        return float(max(draw, 0.05))


class Invoker:
    """One worker VM hosting containers for many applications.

    Args:
        invoker_id: Index of this invoker in the cluster.
        memory_capacity_mb: Total memory available for containers (the
            paper's experiment uses 18 invoker VMs with 4 GB each).
        loop: Shared event loop.
        metrics: Shared metrics collector.
        cold_start_model: Container-start latency model.
        rng: Random generator for latency sampling.
        on_completion: Callback invoked with every CompletionMessage (the
            controller wires itself here).
        on_unload: Optional callback for container unload notices.
    """

    def __init__(
        self,
        invoker_id: int,
        memory_capacity_mb: float,
        *,
        loop: EventLoop,
        metrics: PlatformMetrics,
        cold_start_model: ColdStartModel | None = None,
        rng: np.random.Generator | None = None,
        on_completion: Callable[[CompletionMessage], None] | None = None,
        on_unload: Callable[[ContainerUnloadNotice], None] | None = None,
    ) -> None:
        if memory_capacity_mb <= 0:
            raise ValueError("invoker memory capacity must be positive")
        self.invoker_id = invoker_id
        self.memory_capacity_mb = float(memory_capacity_mb)
        self.loop = loop
        self.metrics = metrics
        self.cold_start_model = cold_start_model or ColdStartModel()
        self.rng = rng or np.random.default_rng(invoker_id)
        self.on_completion = on_completion
        self.on_unload = on_unload
        #: Called with the activations lost when this invoker crashes (or
        #: when an activation is delivered to it while down); the
        #: controller wires itself here for retry-or-drop accounting.
        self.on_activations_lost: Callable[[list[ActivationMessage]], None] | None = None
        #: Completion gate wired by the controller in failover mode: it
        #: returns False for duplicate deliveries (the completion is then
        #: neither recorded nor reported, but container bookkeeping still
        #: runs).  ``None`` keeps the direct path.
        self.completion_gate: Callable[[CompletionMessage], bool] | None = None
        #: False while the invoker is down after a crash.
        self.alive = True
        #: True once the autoscaler has permanently removed this invoker.
        self.decommissioned = False
        #: True while the invoker is in its slow (degraded) state.
        self.degraded = False
        #: Execution/start-up multiplier while degraded (>= 1).
        self.slow_factor = 1.0
        #: Concurrency cap while degraded; above it new activations are
        #: shed (brownout).  0 disables shedding.
        self.brownout_concurrency = 0
        #: Loaded containers by application id, in creation order.  Every
        #: entry is loaded: _unload() removes it in the same step that
        #: marks the container UNLOADED.  Owned by the invoker; the load
        #: balancer only reads it (a warm container is a membership test).
        self.containers: dict[str, Container] = {}
        # In-flight executions keyed by a local delivery sequence (not the
        # activation id: under at-least-once delivery two copies of the
        # same activation can run here concurrently): the completion event
        # handle plus the activation message, so a crash can cancel the
        # completions and report exactly which activations were lost.
        self._inflight: dict[int, tuple[EventHandle, ActivationMessage]] = {}
        self._delivery_counter = 0
        # Lazy keep-alive bookkeeping: the authoritative expiry time per
        # application lives in _keepalive_deadline; _keepalive_handles
        # tracks at most one outstanding expiry event per application,
        # which re-arms itself when the deadline has moved later instead
        # of being cancelled and re-pushed on every completion.
        self._keepalive_handles: dict[str, EventHandle] = {}
        self._keepalive_deadline: dict[str, float] = {}
        self._activation_counter = 0
        #: Memory of the loaded containers, maintained incrementally on
        #: container create/unload (read-only for everyone else).  A plain
        #: attribute, not a property: the load balancer reads it for every
        #: candidate of every placement.
        self.used_memory_mb = 0.0

    # ------------------------------------------------------------------ #
    # Capacity accounting
    # ------------------------------------------------------------------ #
    @property
    def free_memory_mb(self) -> float:
        return self.memory_capacity_mb - self.used_memory_mb

    @property
    def load_fraction(self) -> float:
        """Memory utilization in [0, 1+]; the load balancer keys off this."""
        return self.used_memory_mb / self.memory_capacity_mb

    @property
    def effective_load_fraction(self) -> float:
        """Load discounted for degradation (>= the raw load when slow).

        A degraded invoker processes work ``slow_factor`` times slower,
        so the same resident memory represents proportionally more
        pending work.  Healthy invokers return :attr:`load_fraction`
        unchanged (bit-identical, not merely equal).
        """
        load = self.load_fraction
        if not self.degraded:
            return load
        return load * self.slow_factor

    @property
    def effective_free_memory_mb(self) -> float:
        """Free memory discounted for degradation (<= the raw free when slow)."""
        free = self.free_memory_mb
        if not self.degraded:
            return free
        return free / self.slow_factor

    @property
    def total_in_flight(self) -> int:
        """Executions currently running on this invoker (all containers)."""
        return len(self._inflight)

    @property
    def in_service(self) -> bool:
        """Whether this invoker belongs to the fleet (possibly mid-restart)."""
        return not self.decommissioned

    def container_for(self, app_id: str) -> Optional[Container]:
        return self.containers.get(app_id)

    def loaded_app_ids(self) -> list[str]:
        return list(self.containers)

    # ------------------------------------------------------------------ #
    # Activation handling
    # ------------------------------------------------------------------ #
    def handle_activation(self, message: ActivationMessage) -> None:
        """Execute one activation, creating a container if needed."""
        if not self.alive:
            # Delivered to a dead invoker (it crashed while the message
            # was in flight, or was decommissioned): the execution is
            # lost; the controller decides whether to retry it.
            if self.on_activations_lost is not None:
                self.on_activations_lost([message])
            return
        if (
            self.degraded
            and self.brownout_concurrency > 0
            and len(self._inflight) >= self.brownout_concurrency
        ):
            # Brownout: the degraded invoker sheds load above its cap;
            # the controller retries the activation elsewhere.
            self.metrics.record_brownout_rejection(self.invoker_id)
            if self.on_activations_lost is not None:
                self.on_activations_lost([message])
            return
        loop = self.loop
        now = loop.now
        container = self.containers.get(message.app_id)
        cold = container is None
        if cold:
            container = self._create_container(message.app_id, message.memory_mb)
            startup = max(container.warm_at_seconds - now, 0.0)
            startup += self.cold_start_model.runtime_bootstrap_seconds
        else:
            startup = self.cold_start_model.warm_start_overhead_seconds
        self._cancel_keepalive(message.app_id)
        container.begin_invocation(now)
        queued = max(now - message.arrival_time_seconds, 0.0)
        execution_seconds = message.execution_seconds
        if self.degraded:
            # The slowdown stretches both start-up and execution; the
            # healthy path leaves the floats untouched (bit-identical).
            startup *= self.slow_factor
            execution_seconds *= self.slow_factor
        finish_delay = startup + execution_seconds
        self._delivery_counter += 1
        delivery_id = self._delivery_counter

        def _finish() -> None:
            self._finish_activation(
                delivery_id, message, container, cold, queued, startup, execution_seconds
            )

        self._inflight[delivery_id] = (loop.schedule(finish_delay, _finish), message)

    def _finish_activation(
        self,
        delivery_id: int,
        message: ActivationMessage,
        container: Container,
        cold: bool,
        queued: float,
        startup: float,
        execution_seconds: float,
    ) -> None:
        self._inflight.pop(delivery_id, None)
        now = self.loop.now
        container.mark_warm(now)
        container.end_invocation(now)
        completion = CompletionMessage(
            activation_id=message.activation_id,
            app_id=message.app_id,
            function_id=message.function_id,
            invoker_id=self.invoker_id,
            cold_start=cold,
            queued_seconds=queued,
            startup_seconds=startup,
            execution_seconds=execution_seconds,
        )
        # Under controller failover the gate rejects duplicate deliveries:
        # the execution still happened (container bookkeeping runs), but
        # the completion is neither recorded nor reported.
        gate = self.completion_gate
        accepted = gate is None or gate(completion)
        if accepted:
            self.metrics.record(message.app_id, cold, queued, startup, execution_seconds)
        if container.in_flight == 0:
            self._apply_post_execution_policy(message, container)
        if accepted and self.on_completion is not None:
            self.on_completion(completion)

    def _apply_post_execution_policy(
        self, message: ActivationMessage, container: Container
    ) -> None:
        """Apply the activation's keep-alive / pre-warm directives."""
        if message.prewarm_seconds > 0:
            # Policy wants the image unloaded right away; the controller
            # schedules the pre-warm load separately.
            self._unload(message.app_id, reason="policy-unload")
            return
        self._schedule_keepalive(message.app_id, message.keepalive_seconds)

    # ------------------------------------------------------------------ #
    # Pre-warming
    # ------------------------------------------------------------------ #
    def prewarm(self, app_id: str, memory_mb: float, keepalive_seconds: float) -> bool:
        """Load a container ahead of an expected invocation.

        Returns True when a container is (now) loaded for the application.
        """
        if not self.alive:
            return False
        if self.container_for(app_id) is not None:
            self._schedule_keepalive(app_id, keepalive_seconds)
            return True
        container = self._create_container(app_id, memory_mb)
        if container is None:
            return False
        self.metrics.record_prewarm_load()
        self._schedule_keepalive(app_id, keepalive_seconds)
        return True

    # ------------------------------------------------------------------ #
    # Container lifecycle
    # ------------------------------------------------------------------ #
    def _create_container(self, app_id: str, memory_mb: float) -> Container:
        self._ensure_capacity(memory_mb)
        now = self.loop.now
        startup = self.cold_start_model.sample_container_start(self.rng)
        container = Container(
            app_id=app_id,
            memory_mb=memory_mb,
            created_at_seconds=now,
            warm_at_seconds=now + startup,
        )
        self.containers[app_id] = container
        self.used_memory_mb += container.memory_mb
        self.loop.schedule(startup, lambda: container.mark_warm(self.loop.now))
        return container

    def _ensure_capacity(self, needed_mb: float) -> None:
        """Evict least-recently-used idle containers until memory fits.

        The victim is the IDLE container with nothing in flight that went
        idle earliest; on a tie the first one in creation order wins (the
        strict ``<``).  STARTING and BUSY containers are never evicted.
        """
        idle_state = ContainerState.IDLE
        guard = len(self.containers) + 1
        while self.free_memory_mb < needed_mb and guard > 0:
            guard -= 1
            victim = None
            oldest = 0.0
            for container in self.containers.values():
                if container.state is idle_state and container.in_flight == 0:
                    idle_at = container.last_idle_at_seconds
                    if victim is None or idle_at < oldest:
                        victim = container
                        oldest = idle_at
            if victim is None:
                break
            self.metrics.record_eviction(self.invoker_id)
            self._unload(victim.app_id, reason="memory-pressure")

    def _schedule_keepalive(self, app_id: str, keepalive_seconds: float) -> None:
        if keepalive_seconds == float("inf"):
            self._keepalive_deadline.pop(app_id, None)
            return
        deadline = self.loop.now + max(keepalive_seconds, 0.0)
        self._keepalive_deadline[app_id] = deadline
        handle = self._keepalive_handles.get(app_id)
        if handle is not None and not handle.cancelled:
            if handle.time <= deadline:
                # The outstanding expiry fires first and re-arms itself to
                # the (later) deadline: no cancel, no extra heap entry.
                return
            handle.cancel()
        self._keepalive_handles[app_id] = self.loop.schedule_at(
            deadline, lambda: self._expire_keepalive(app_id)
        )

    def _expire_keepalive(self, app_id: str) -> None:
        deadline = self._keepalive_deadline.get(app_id)
        if deadline is None:
            # Deadline was cleared (new activation, unload, or infinite
            # keep-alive) after this event was queued: stale, drop it.
            self._keepalive_handles.pop(app_id, None)
            return
        if deadline > self.loop.now:
            # The keep-alive was extended while this event was in flight;
            # re-arm exactly at the authoritative deadline.
            self._keepalive_handles[app_id] = self.loop.schedule_at(
                deadline, lambda: self._expire_keepalive(app_id)
            )
            return
        self._keepalive_handles.pop(app_id, None)
        self._keepalive_deadline.pop(app_id, None)
        container = self.containers.get(app_id)
        if container is None or container.in_flight > 0:
            return
        self._unload(app_id, reason="keepalive-expired")

    def _cancel_keepalive(self, app_id: str) -> None:
        # Clearing the deadline is enough: a stale expiry event no-ops.
        self._keepalive_deadline.pop(app_id, None)

    def _unload(self, app_id: str, *, reason: str) -> None:
        container = self.containers.get(app_id)
        if container is None or not container.is_loaded:
            return
        self._cancel_keepalive(app_id)
        loaded = container.unload(self.loop.now)
        self.metrics.record_container_unload(
            self.invoker_id, container.memory_mb, loaded, reason=reason, app_id=app_id
        )
        del self.containers[app_id]
        self.used_memory_mb -= container.memory_mb
        if self.on_unload is not None:
            self.on_unload(
                ContainerUnloadNotice(
                    app_id=app_id,
                    invoker_id=self.invoker_id,
                    time_seconds=self.loop.now,
                    reason=reason,
                )
            )

    def flush(self) -> None:
        """Unload every idle container (end of the experiment) for accounting."""
        for app_id in list(self.containers):
            container = self.containers[app_id]
            if container.is_loaded and container.in_flight == 0:
                self._unload(app_id, reason="experiment-end")

    # ------------------------------------------------------------------ #
    # Failure lifecycle
    # ------------------------------------------------------------------ #
    def crash(self) -> list[ActivationMessage]:
        """Fail the invoker: lose containers, in-flight work, and timers.

        Models the VM dying.  Every container is destroyed with its
        residency accounted (the memory *was* occupied until now), queued
        completion events for in-flight executions are cancelled, and all
        keep-alive bookkeeping — both the authoritative deadlines and the
        queued expiry events — is dropped, so nothing scheduled before
        the crash can act on containers created after the restart.

        Returns:
            The activation messages of the executions that were lost, in
            delivery order (activation-id order when every activation is
            delivered once), for the controller to retry or drop.
        """
        now = self.loop.now
        lost = [message for _handle, message in self._inflight.values()]
        for handle, _message in self._inflight.values():
            handle.cancel()
        self._inflight.clear()
        for handle in self._keepalive_handles.values():
            handle.cancel()
        self._keepalive_handles.clear()
        self._keepalive_deadline.clear()
        for app_id, container in self.containers.items():
            loaded = container.destroy(now)
            self.metrics.record_container_unload(
                self.invoker_id,
                container.memory_mb,
                loaded,
                reason="invoker-crash",
                app_id=app_id,
            )
        self.containers.clear()
        self.used_memory_mb = 0.0
        self.alive = False
        return lost

    def restart(self) -> None:
        """Bring a crashed invoker back: empty, cold, and accepting work.

        Degradation survives the restart: a slow episode belongs to the
        host, not the process, so its end is governed solely by the
        seeded slowdown schedule.
        """
        if self.decommissioned:
            raise RuntimeError(
                f"invoker {self.invoker_id} was decommissioned and cannot restart"
            )
        self.alive = True

    # ------------------------------------------------------------------ #
    # Degradation lifecycle (slow invokers)
    # ------------------------------------------------------------------ #
    def degrade(self, slow_factor: float, *, brownout_concurrency: int = 0) -> None:
        """Enter the slow state: stretch executions, optionally shed load.

        Args:
            slow_factor: Multiplier (>= 1) on start-up and execution time
                for activations *started* while degraded.
            brownout_concurrency: When positive, new activations are
                rejected (back to the controller) once this many
                executions are in flight.
        """
        if slow_factor < 1.0:
            raise ValueError("slow factor must be >= 1")
        if brownout_concurrency < 0:
            raise ValueError("brownout concurrency must be non-negative")
        self.degraded = True
        self.slow_factor = float(slow_factor)
        self.brownout_concurrency = int(brownout_concurrency)

    def recover(self) -> None:
        """Leave the slow state (already-running executions keep their pace)."""
        self.degraded = False
        self.slow_factor = 1.0
        self.brownout_concurrency = 0

    def decommission(self) -> None:
        """Permanently remove the invoker from service (autoscaler scale-in).

        Only an idle invoker may be decommissioned; the autoscaler checks
        ``total_in_flight`` first.  Idle containers are unloaded with
        their residency accounted.
        """
        if self._inflight:
            raise RuntimeError(
                f"cannot decommission invoker {self.invoker_id} with "
                f"{len(self._inflight)} in-flight executions"
            )
        for app_id in list(self.containers):
            self._unload(app_id, reason="scale-in")
        self._keepalive_handles.clear()
        self._keepalive_deadline.clear()
        self.alive = False
        self.decommissioned = True
