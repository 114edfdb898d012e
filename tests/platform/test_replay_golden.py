"""Golden digest of a saturated replay, pinned bit for bit.

``reference_replay`` in ``test_replay_equivalence.py`` drives the same
:class:`~repro.platform.cluster.FaasCluster` as the feed, so it cannot
notice a change inside the components both share (placement, eviction,
container bookkeeping, the hybrid policy's histogram).  This test pins
their joint output instead: a sha256 over every completion column, the
per-invoker memory integrals, and the eviction and pre-warm counts of a
small replay on a cluster too small for its working set, for a
generated workload and for a lockstep one whose exact ties exercise the
tie rules (eviction order, overload threshold, free-memory fit,
least-loaded fallback).  Any change to which invoker runs an activation,
which container is evicted, or what keep-alive / pre-warm window the
policy picks moves the digest.

The digests were recorded before the replay hot path (direct-read
placement, one-pass eviction, one-pass histogram cutoffs) was
optimised, so the optimisation is pinned to the original output.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.platform.cluster import ClusterConfig
from repro.platform.metrics import PlatformMetrics
from repro.platform.replay import ReplayConfig, TraceReplayer
from repro.policies.registry import fixed_keepalive_factory, hybrid_factory
from repro.trace.generator import GeneratorConfig, WorkloadGenerator
from repro.trace.schema import (
    AppSpec,
    ExecutionProfile,
    FunctionSpec,
    MemoryProfile,
    TriggerType,
    Workload,
)
from tests.platform.test_replay_equivalence import PRESSURED_CLUSTER

#: Two invokers sized in whole 170 MB containers, so loads land exactly on
#: the 0.9 overload threshold and free memory exactly on a request.
LOCKSTEP_CLUSTER = ClusterConfig(num_invokers=2, invoker_memory_mb=1700.0, seed=5)

GOLDEN_DIGESTS = {
    ("generated", "fixed:10"): "4cfc82aa6c9a68a40fb974d03dd75dbcbb7951a0cb8ebbbcb3277d8c2b800f69",
    ("generated", "hybrid:240"): "c86c2e204eb8004f93f1c6c8ce9c04001dd579e4dec4e6320249a6057b74988e",
    ("lockstep", "fixed:10"): "ee5481a3f2add5eb20537176e56a89cfcafc0a299de517e2aaf928591fba53dd",
    ("lockstep", "hybrid:240"): "ee9f6be4615c729d6b9d6112d2b27334c906654c7a8d89be910dbc333eca07ae",
}
POLICIES = {"fixed:10": fixed_keepalive_factory(10.0), "hybrid:240": hybrid_factory()}


def metrics_digest(metrics: PlatformMetrics) -> str:
    """sha256 over every completion column and the memory/eviction state."""
    digest = hashlib.sha256()
    digest.update("\x00".join(metrics.app_ids).encode())
    for column, dtype in (
        (metrics._completion_app, np.int64),
        (metrics._completion_cold, np.int8),
        (metrics._completion_queued, np.float64),
        (metrics._completion_startup, np.float64),
        (metrics._completion_execution, np.float64),
    ):
        digest.update(np.asarray(column, dtype=dtype).tobytes())
    memory = metrics.per_invoker_memory_mb_seconds()
    for invoker_id in sorted(memory):
        digest.update(f"{invoker_id}:{memory[invoker_id].hex()};".encode())
    evictions = metrics.evictions_by_invoker()
    for invoker_id in sorted(evictions):
        digest.update(f"{invoker_id}:{evictions[invoker_id]};".encode())
    digest.update(f"{metrics.evictions}/{metrics.prewarm_loads}".encode())
    return digest.hexdigest()


def lockstep_workload(num_apps: int = 24, minutes: float = 480.0) -> Workload:
    """Timer apps firing on shared whole-minute ticks with fixed 2 s runs.

    Apps invoked at the same instant on warm containers go idle at the
    same instant, so LRU eviction meets exact ties in last-idle time.
    Memory alternates between 170 and 340 MB.
    """
    apps, invocations = [], {}
    execution = ExecutionProfile(
        average_seconds=2.0,
        minimum_seconds=2.0,
        maximum_seconds=2.0,
        lognormal_mu=float(np.log(2.0)),
        lognormal_sigma=0.3,
    )
    for index in range(num_apps):
        app_id = f"app{index:02d}"
        function_id = f"{app_id}-fn0"
        function = FunctionSpec(function_id, app_id, "owner0", TriggerType.TIMER, execution)
        memory_mb = 170.0 * (1 + index % 2)
        apps.append(
            AppSpec(
                app_id=app_id,
                owner_id="owner0",
                functions=(function,),
                memory=MemoryProfile(memory_mb, 0.7 * memory_mb, 1.8 * memory_mb),
            )
        )
        period = (2, 3, 5, 7, 11, 13)[index % 6]
        invocations[function_id] = np.arange(index % 4, minutes, period, dtype=float)
    return Workload(apps, invocations, minutes)


@pytest.fixture(scope="module")
def replayers() -> dict[str, TraceReplayer]:
    generated = WorkloadGenerator(
        GeneratorConfig(num_apps=40, duration_minutes=1440.0, seed=9, max_daily_rate=900.0)
    ).generate()
    return {
        "generated": TraceReplayer(
            generated,
            replay_config=ReplayConfig(duration_minutes=720.0, seed=3),
            cluster_config=PRESSURED_CLUSTER,
        ),
        "lockstep": TraceReplayer(
            lockstep_workload(),
            replay_config=ReplayConfig(duration_minutes=480.0, seed=3),
            cluster_config=LOCKSTEP_CLUSTER,
        ),
    }


@pytest.mark.parametrize("scenario, policy", sorted(GOLDEN_DIGESTS))
def test_saturated_replay_matches_golden_digest(replayers, scenario, policy):
    metrics = replayers[scenario].run(POLICIES[policy]).metrics
    assert metrics.evictions > 0, "cluster sized to force evictions"
    if policy.startswith("hybrid"):
        assert metrics.prewarm_loads > 0, "hybrid policy must pre-warm here"
    assert metrics_digest(metrics) == GOLDEN_DIGESTS[scenario, policy]
