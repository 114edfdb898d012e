"""Tests for containers, invokers, and the load balancer."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.platform.container import Container, ContainerState
from repro.platform.events import EventLoop
from repro.platform.invoker import ColdStartModel, Invoker
from repro.platform.loadbalancer import LoadBalancer
from repro.platform.messages import ActivationMessage
from repro.platform.metrics import PlatformMetrics


def _make_invoker(loop=None, memory=1000.0, invoker_id=0, metrics=None, **kwargs):
    loop = loop or EventLoop()
    metrics = metrics or PlatformMetrics()
    invoker = Invoker(
        invoker_id=invoker_id,
        memory_capacity_mb=memory,
        loop=loop,
        metrics=metrics,
        cold_start_model=ColdStartModel(container_start_mean_seconds=1.0, container_start_sigma=0.01),
        rng=np.random.default_rng(0),
        **kwargs,
    )
    return loop, metrics, invoker


def _activation(activation_id=1, app_id="app", arrival=0.0, execution=1.0, memory=100.0,
                keepalive=600.0, prewarm=0.0):
    return ActivationMessage(
        activation_id=activation_id,
        app_id=app_id,
        function_id="fn",
        arrival_time_seconds=arrival,
        execution_seconds=execution,
        memory_mb=memory,
        keepalive_seconds=keepalive,
        prewarm_seconds=prewarm,
    )


class TestContainer:
    def test_lifecycle(self):
        container = Container(app_id="a", memory_mb=100, created_at_seconds=0.0, warm_at_seconds=1.0)
        assert container.state is ContainerState.STARTING
        container.begin_invocation(0.0)
        container.mark_warm(1.0)
        assert container.state is ContainerState.BUSY
        container.end_invocation(2.0)
        assert container.state is ContainerState.IDLE
        assert container.idle_seconds(5.0) == pytest.approx(3.0)
        loaded = container.unload(10.0)
        assert loaded == pytest.approx(10.0)
        assert not container.is_loaded

    def test_concurrency_limit(self):
        container = Container(
            app_id="a", memory_mb=100, created_at_seconds=0.0, warm_at_seconds=0.0,
            concurrency_limit=1,
        )
        container.begin_invocation(0.0)
        assert not container.has_capacity()
        with pytest.raises(RuntimeError):
            container.begin_invocation(0.0)

    def test_cannot_unload_busy_container(self):
        container = Container(app_id="a", memory_mb=100, created_at_seconds=0.0, warm_at_seconds=0.0)
        container.begin_invocation(0.0)
        with pytest.raises(RuntimeError):
            container.unload(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Container(app_id="a", memory_mb=0, created_at_seconds=0.0, warm_at_seconds=0.0)
        with pytest.raises(ValueError):
            Container(app_id="a", memory_mb=1, created_at_seconds=5.0, warm_at_seconds=1.0)


class TestInvoker:
    def test_first_activation_is_cold_then_warm(self):
        loop, metrics, invoker = _make_invoker()
        completions = []
        invoker.on_completion = completions.append
        loop.schedule_at(0.0, lambda: invoker.handle_activation(_activation(1, arrival=0.0)))
        loop.schedule_at(10.0, lambda: invoker.handle_activation(_activation(2, arrival=10.0)))
        loop.run()
        assert [c.cold_start for c in completions] == [True, False]
        # Cold start pays container start + runtime bootstrap.
        assert completions[0].startup_seconds > completions[1].startup_seconds

    def test_keepalive_expiry_unloads_container(self):
        loop, metrics, invoker = _make_invoker()
        unloads = []
        invoker.on_unload = unloads.append
        loop.schedule_at(
            0.0, lambda: invoker.handle_activation(_activation(1, keepalive=30.0))
        )
        loop.run()
        assert invoker.container_for("app") is None
        assert len(unloads) == 1
        assert unloads[0].reason == "keepalive-expired"
        # The unloaded container's residency was accounted.
        assert metrics.total_memory_mb_seconds() > 0

    def test_invocation_after_expiry_is_cold_again(self):
        loop, metrics, invoker = _make_invoker()
        completions = []
        invoker.on_completion = completions.append
        loop.schedule_at(0.0, lambda: invoker.handle_activation(_activation(1, keepalive=5.0)))
        loop.schedule_at(60.0, lambda: invoker.handle_activation(_activation(2, arrival=60.0, keepalive=5.0)))
        loop.run()
        assert [c.cold_start for c in completions] == [True, True]

    def test_policy_unload_with_prewarm_directive(self):
        loop, metrics, invoker = _make_invoker()
        loop.schedule_at(
            0.0, lambda: invoker.handle_activation(_activation(1, prewarm=100.0, keepalive=10.0))
        )
        loop.run()
        # The invoker unloads right after the execution ends.
        assert invoker.container_for("app") is None

    def test_prewarm_loads_container(self):
        loop, metrics, invoker = _make_invoker()
        loop.schedule_at(0.0, lambda: invoker.prewarm("app", 100.0, keepalive_seconds=60.0))
        loop.run(until_seconds=5.0)
        assert invoker.container_for("app") is not None
        assert metrics.prewarm_loads == 1
        loop.run()
        # After the keep-alive expires the container goes away again.
        assert invoker.container_for("app") is None

    def test_memory_pressure_evicts_lru_idle_container(self):
        loop, metrics, invoker = _make_invoker(memory=250.0)
        loop.schedule_at(0.0, lambda: invoker.handle_activation(_activation(1, app_id="a", memory=100.0)))
        loop.schedule_at(10.0, lambda: invoker.handle_activation(_activation(2, app_id="b", memory=100.0)))
        loop.schedule_at(20.0, lambda: invoker.handle_activation(_activation(3, app_id="c", memory=100.0)))
        loop.run(until_seconds=25.0)
        assert metrics.evictions >= 1
        # The oldest idle container ("a") was the eviction victim.
        assert invoker.container_for("a") is None
        assert invoker.container_for("c") is not None

    def test_eviction_tie_goes_to_first_created(self):
        # Zero start-up spread: both containers warm at the same instant,
        # so their last-idle times are equal.
        loop, metrics, invoker = _make_invoker(memory=250.0)
        invoker.cold_start_model = ColdStartModel(container_start_sigma=0.0)
        for app_id in ("first", "second"):
            loop.schedule_at(
                0.0, lambda a=app_id: invoker.prewarm(a, 100.0, keepalive_seconds=1e6)
            )
        loop.run(until_seconds=5.0)
        first, second = invoker.container_for("first"), invoker.container_for("second")
        assert first.last_idle_at_seconds == second.last_idle_at_seconds
        loop.schedule_at(6.0, lambda: invoker.prewarm("third", 100.0, keepalive_seconds=1e6))
        loop.run(until_seconds=7.0)
        assert metrics.evictions == 1
        assert invoker.container_for("first") is None
        assert invoker.container_for("second") is second

    def test_starting_and_busy_containers_are_never_evicted(self):
        loop, metrics, invoker = _make_invoker(memory=350.0)
        loop.schedule_at(0.0, lambda: invoker.prewarm("idle", 100.0, keepalive_seconds=1e6))
        loop.schedule_at(
            0.0,
            lambda: invoker.handle_activation(
                _activation(1, app_id="busy", execution=1000.0, memory=100.0)
            ),
        )
        loop.schedule_at(10.0, lambda: invoker.prewarm("starting", 100.0, keepalive_seconds=1e6))
        loop.run(until_seconds=10.0)
        assert invoker.container_for("busy").state is ContainerState.BUSY
        assert invoker.container_for("starting").state is ContainerState.STARTING
        # Needs room: only the IDLE container may go.
        invoker.prewarm("new", 100.0, keepalive_seconds=1e6)
        assert metrics.evictions == 1
        assert invoker.container_for("idle") is None
        # Full again and nothing is IDLE: nothing is evicted (the invoker
        # over-commits rather than kill a starting or busy container).
        invoker.prewarm("over", 100.0, keepalive_seconds=1e6)
        assert metrics.evictions == 1
        for app_id in ("busy", "starting", "new", "over"):
            assert invoker.container_for(app_id) is not None
        assert invoker.used_memory_mb == 400.0

    def test_eviction_stops_once_the_container_fits(self):
        loop, metrics, invoker = _make_invoker(memory=300.0)
        for start, app_id in ((0.0, "a"), (10.0, "b"), (20.0, "c")):
            loop.schedule_at(
                start, lambda a=app_id: invoker.prewarm(a, 100.0, keepalive_seconds=1e6)
            )
        loop.schedule_at(30.0, lambda: invoker.prewarm("d", 100.0, keepalive_seconds=1e6))
        loop.run(until_seconds=35.0)
        assert metrics.evictions == 1
        assert invoker.loaded_app_ids() == ["b", "c", "d"]
        # 200 MB needs two victims, taken in last-idle order; "d" went
        # idle last and survives.
        loop.schedule_at(40.0, lambda: invoker.prewarm("e", 200.0, keepalive_seconds=1e6))
        loop.run(until_seconds=45.0)
        assert metrics.evictions == 3
        assert invoker.loaded_app_ids() == ["d", "e"]
        assert invoker.used_memory_mb == 300.0

    def test_load_fraction(self):
        loop, metrics, invoker = _make_invoker(memory=200.0)
        loop.schedule_at(0.0, lambda: invoker.handle_activation(_activation(1, memory=100.0)))
        loop.run(until_seconds=2.0)
        assert invoker.load_fraction == pytest.approx(0.5)
        assert invoker.free_memory_mb == pytest.approx(100.0)

    def test_infinite_keepalive_never_unloads(self):
        loop, metrics, invoker = _make_invoker()
        loop.schedule_at(
            0.0, lambda: invoker.handle_activation(_activation(1, keepalive=math.inf))
        )
        loop.run(until_seconds=10_000.0)
        assert invoker.container_for("app") is not None

    def test_flush_unloads_idle_containers(self):
        loop, metrics, invoker = _make_invoker()
        loop.schedule_at(0.0, lambda: invoker.handle_activation(_activation(1)))
        loop.run(until_seconds=30.0)
        invoker.flush()
        assert invoker.container_for("app") is None


class TestLoadBalancer:
    def _cluster(self, count=4, memory=1000.0):
        loop = EventLoop()
        metrics = PlatformMetrics()
        invokers = [
            Invoker(
                invoker_id=i,
                memory_capacity_mb=memory,
                loop=loop,
                metrics=metrics,
                rng=np.random.default_rng(i),
            )
            for i in range(count)
        ]
        return loop, invokers, LoadBalancer(invokers)

    def test_home_invoker_is_stable(self):
        _, invokers, balancer = self._cluster()
        first = balancer.home_invoker("some-app")
        second = balancer.home_invoker("some-app")
        assert first is second

    def test_placement_prefers_warm_container(self):
        loop, invokers, balancer = self._cluster()
        # Manually warm a container on a non-home invoker.
        target = invokers[(balancer.home_invoker("app-x").invoker_id + 1) % len(invokers)]
        loop.schedule_at(0.0, lambda: target.prewarm("app-x", 100.0, keepalive_seconds=600.0))
        loop.run(until_seconds=5.0)
        decision = balancer.place("app-x", 100.0)
        assert decision.invoker is target
        assert decision.had_warm_container

    def test_placement_skips_full_invoker(self):
        loop, invokers, balancer = self._cluster(count=2, memory=150.0)
        home = balancer.home_invoker("app-y")
        loop.schedule_at(0.0, lambda: home.prewarm("filler", 140.0, keepalive_seconds=1e6))
        loop.run(until_seconds=5.0)
        decision = balancer.place("app-y", 100.0)
        assert decision.invoker is not home

    def test_saturated_cluster_falls_back_to_least_loaded(self):
        loop, invokers, balancer = self._cluster(count=2, memory=100.0)
        for index, invoker in enumerate(invokers):
            loop.schedule_at(
                0.0,
                lambda inv=invoker, i=index: inv.prewarm(f"filler{i}", 95.0, keepalive_seconds=1e6),
            )
        loop.run(until_seconds=5.0)
        decision = balancer.place("new-app", 100.0)
        assert decision.invoker in invokers

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadBalancer([])

    def test_failed_removal_leaves_the_fleet_intact(self):
        loop, invokers, balancer = self._cluster(count=2)
        balancer.remove_invoker(invokers[1])
        with pytest.raises(ValueError, match="last invoker"):
            balancer.remove_invoker(invokers[0])
        assert balancer.fleet_size == 1
        with pytest.raises(ValueError):
            balancer.remove_invoker(invokers[1])  # no longer in the fleet
        assert balancer.fleet_size == 1
        decision = balancer.place("app", 100.0)
        assert decision.invoker is invokers[0]
