"""Hybrid family-of-one equivalence: the family evaluator vs the scalar loop.

Every non-serial run of the hybrid histogram policy goes through the
hybrid family evaluator (:mod:`repro.simulation.sweep_engine`), a single
policy as a family of one, instead of one scalar
:class:`~repro.core.hybrid.HybridHistogramPolicy` instance per
application.  The evaluator records the trace-derived state through one
struct-of-arrays :class:`~repro.core.histogram_bank.HistogramBank` whose
float operations mirror the scalar histogram element for element; this
suite locks that down:

* :class:`HistogramBank` rows match a scalar
  :class:`~repro.core.histogram.IdleTimeHistogram` fed the same idle times
  — counts, OOB, CV, percentile bins, and scalar extraction — under both
  generic and prefix stepping;
* on randomized multi-app workloads (including ARIMA-triggering sparse
  apps and sub-``min_observations`` apps), the family of one reproduces
  the serial engine's per-app cold-start counts exactly and wasted-memory
  minutes within 1e-9, along with mode counts and OOB counters, for any
  scalar-drain threshold;
* the route composes with the parallel engine: 1, 2, and 4 workers
  produce byte-identical comparison rows.
"""

from __future__ import annotations

import numpy as np
import pytest

import functools

import repro.simulation.sweep_engine as sweep_engine_module
from repro.core.config import HybridPolicyConfig
from repro.core.histogram import IdleTimeHistogram
from repro.core.histogram_bank import HistogramBank
from repro.core.hybrid import HybridHistogramPolicy
from repro.policies.registry import fixed_keepalive_factory, hybrid_factory
from repro.simulation.coldstart import ColdStartSimulator
from repro.simulation.engine import RunnerOptions, _AppWorkItem
from repro.simulation.metrics import AppSimResult
from repro.simulation.runner import WorkloadRunner
from repro.simulation.sweep_engine import evaluate_family
from tests.conftest import make_workload

WASTE_TOLERANCE = 1e-9

#: A resident budget that splits the routing workloads into application
#: chunks of at most a few apps each.
CHUNK_BUDGET = 8 * 1024

HORIZON = 3 * 1440.0


def random_app_streams(seed: int, num_apps: int = 30) -> dict[str, np.ndarray]:
    """Synthetic per-app invocation streams covering all policy modes.

    Cycles through four archetypes: dense (histogram-mode), sparse with
    gaps beyond the 4-hour histogram range (ARIMA-triggering), tiny
    (below ``min_observations``), and bursty with a concentrated
    idle-time distribution.
    """
    rng = np.random.default_rng(seed)
    streams: dict[str, np.ndarray] = {}
    for i in range(num_apps):
        kind = i % 4
        if kind == 0:
            n = int(rng.integers(50, 400))
            times = np.sort(rng.uniform(0.0, HORIZON, n))
        elif kind == 1:
            n = int(rng.integers(6, 14))
            gaps = rng.uniform(250.0, 500.0, n)
            times = np.cumsum(gaps)
            times = times[times <= HORIZON]
        elif kind == 2:
            n = int(rng.integers(1, 4))
            times = np.sort(rng.uniform(0.0, HORIZON, n))
        else:
            n = int(rng.integers(30, 120))
            gaps = rng.choice([2.0, 3.0, 5.0, 300.0], n, p=[0.4, 0.3, 0.25, 0.05])
            times = np.cumsum(gaps)
            times = times[times <= HORIZON]
        streams[f"app{i:03d}"] = times
    return streams


def assert_app_results_match(
    reference: list[AppSimResult], candidate: list[AppSimResult]
) -> None:
    assert len(candidate) == len(reference)
    for expected, actual in zip(reference, candidate):
        assert actual.app_id == expected.app_id
        assert actual.invocations == expected.invocations
        assert actual.cold_starts == expected.cold_starts
        assert actual.wasted_memory_minutes == pytest.approx(
            expected.wasted_memory_minutes, abs=WASTE_TOLERANCE, rel=WASTE_TOLERANCE
        )
        assert dict(actual.mode_counts) == dict(expected.mode_counts)
        assert actual.oob_idle_times == expected.oob_idle_times


# --------------------------------------------------------------------------- #
# HistogramBank against the scalar histogram
# --------------------------------------------------------------------------- #
class TestHistogramBankEquivalence:
    RANGE = 60.0

    def random_bank_and_scalars(self, seed: int, prefix: bool):
        """Drive a bank and per-row scalar histograms with the same stream."""
        rng = np.random.default_rng(seed)
        num_apps = int(rng.integers(1, 8))
        bank = HistogramBank(num_apps, range_minutes=self.RANGE, bin_width_minutes=1.0)
        scalars = [IdleTimeHistogram(self.RANGE, 1.0) for _ in range(num_apps)]
        for _ in range(80):
            if prefix:
                k = int(rng.integers(1, num_apps + 1))
                rows = np.arange(k)
                idle = rng.uniform(0.0, 2.0 * self.RANGE, size=k)
                bank.observe_prefix(idle)
            else:
                k = int(rng.integers(1, num_apps + 1))
                rows = np.sort(rng.choice(num_apps, size=k, replace=False))
                idle = rng.uniform(0.0, 2.0 * self.RANGE, size=k)
                bank.observe(rows, idle)
            for row, value in zip(rows, idle):
                scalars[row].observe(value)
        return bank, scalars

    @pytest.mark.parametrize("prefix", [False, True], ids=["generic", "prefix"])
    @pytest.mark.parametrize("seed", range(4))
    def test_counts_cv_and_cutoffs_match(self, seed, prefix):
        bank, scalars = self.random_bank_and_scalars(seed, prefix)
        n = len(scalars)
        cv = bank.bin_count_cv_prefix(n)
        bins = bank.percentile_bins_prefix(n, (5.0, 99.0))
        for row, scalar in enumerate(scalars):
            np.testing.assert_array_equal(bank.counts_row(row), scalar.counts)
            assert int(bank.oob_count[row]) == scalar.oob_count
            assert int(bank.total_count[row]) == scalar.total_count
            assert cv[row] == scalar.bin_count_cv
            if scalar.in_bounds_count:
                assert bins[0, row] * 1.0 == scalar.head_cutoff(5.0)
                assert (bins[1, row] + 1) * 1.0 == scalar.tail_cutoff(99.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_extract_row_matches_scalar_state(self, seed):
        bank, scalars = self.random_bank_and_scalars(seed, prefix=True)
        for row, scalar in enumerate(scalars):
            clone = bank.extract_row(row)
            np.testing.assert_array_equal(clone.counts, scalar.counts)
            assert clone.oob_count == scalar.oob_count
            assert clone.total_count == scalar.total_count
            # Exact Welford state, not a from-scratch recompute.
            assert clone.bin_count_cv == scalar.bin_count_cv

    def test_validation_matches_scalar_conventions(self):
        bank = HistogramBank(2, range_minutes=60.0)
        with pytest.raises(ValueError, match="non-negative"):
            bank.observe(np.array([0]), np.array([-1.0]))
        with pytest.raises(ValueError):
            HistogramBank(-1)
        with pytest.raises(ValueError):
            HistogramBank(2, range_minutes=0.0)


# --------------------------------------------------------------------------- #
# The hybrid family of one against the serial simulator
# --------------------------------------------------------------------------- #
def family_of_one(
    streams: dict[str, np.ndarray],
    config: HybridPolicyConfig | None = None,
    memory_mb=None,
) -> list[AppSimResult]:
    """One hybrid configuration's family evaluation over the streams."""
    items = [
        _AppWorkItem(
            app_id=app_id,
            times=np.asarray(times, dtype=float),
            memory_mb=1.0 if memory_mb is None else memory_mb[index],
        )
        for index, (app_id, times) in enumerate(streams.items())
    ]
    simulator = ColdStartSimulator(horizon_minutes=HORIZON)
    factory = hybrid_factory(config)
    return evaluate_family([factory], items, simulator)[factory.name]


class TestHybridFamilyOfOneAgainstSerial:
    def run_both(self, streams: dict[str, np.ndarray]):
        config = HybridPolicyConfig()
        simulator = ColdStartSimulator(horizon_minutes=HORIZON)
        serial = [
            simulator.simulate_app(app_id, times, HybridHistogramPolicy(config))
            for app_id, times in streams.items()
        ]
        return serial, family_of_one(streams, config)

    @pytest.mark.parametrize("seed", [0, 1, 2020])
    def test_randomized_workloads_match(self, seed):
        streams = random_app_streams(seed)
        serial, family = self.run_both(streams)
        assert_app_results_match(serial, family)
        # The archetypes must actually exercise the ARIMA and
        # sub-min_observations paths, or this test proves nothing.
        assert sum(r.mode_counts.get("arima", 0) for r in serial) > 0
        assert any(r.invocations < HybridPolicyConfig().min_observations for r in serial)

    @pytest.mark.parametrize("drain", [0, 2, 1000])
    def test_drain_threshold_is_observationally_transparent(self, drain, monkeypatch):
        monkeypatch.setattr(
            sweep_engine_module,
            "_record_hybrid_family",
            functools.partial(
                sweep_engine_module._record_hybrid_family, drain_threshold=drain
            ),
        )
        streams = random_app_streams(5, num_apps=12)
        serial, family = self.run_both(streams)
        assert_app_results_match(serial, family)

    def test_edge_case_streams_match(self):
        streams = {
            "empty": np.array([]),
            "single": np.array([700.0]),
            "duplicates": np.array([10.0, 10.0, 10.0, 400.0, 400.0]),
            "at-horizon": np.array([500.0, HORIZON]),
            "dense": np.linspace(0.0, HORIZON, 97),
        }
        serial, family = self.run_both(streams)
        assert_app_results_match(serial, family)

    @pytest.mark.parametrize("factory", [hybrid_factory(), fixed_keepalive_factory(10.0)])
    def test_input_validation_matches_serial_contract(self, factory):
        simulator = ColdStartSimulator(horizon_minutes=HORIZON)

        def evaluate(times):
            item = _AppWorkItem(app_id="a", times=np.asarray(times), memory_mb=1.0)
            return evaluate_family([factory], [item], simulator)

        with pytest.raises(ValueError, match="sorted"):
            evaluate([5.0, 1.0])
        with pytest.raises(ValueError, match="horizon"):
            evaluate([HORIZON + 1.0])

    def test_memory_weights_flow_through(self):
        streams = {"a": np.array([0.0, 10.0, 400.0]), "b": np.array([5.0, 30.0])}
        family = family_of_one(streams, memory_mb=[128.0, 256.0])
        assert [r.memory_mb for r in family] == [128.0, 256.0]
        # Footprints may arrive as a numpy array (with falsy elements).
        family = family_of_one(streams, memory_mb=np.array([0.0, 256.0]))
        assert [r.memory_mb for r in family] == [0.0, 256.0]


# --------------------------------------------------------------------------- #
# Engine routing and parallel composition
# --------------------------------------------------------------------------- #
class TestHybridEngineRouting:
    def workload(self, seed: int = 3):
        return make_workload(
            {
                app_id: list(times)
                for app_id, times in random_app_streams(seed, num_apps=16).items()
            },
            duration_minutes=HORIZON,
        )

    @pytest.mark.parametrize(
        "execution, max_resident_bytes",
        [
            pytest.param("auto", None, id="auto"),
            pytest.param("parallel", None, id="parallel"),
            pytest.param("auto", CHUNK_BUDGET, id="auto-chunked"),
            pytest.param("parallel", CHUNK_BUDGET, id="parallel-chunked"),
        ],
    )
    def test_engine_routes_match_serial(self, execution, max_resident_bytes):
        workload = self.workload()
        factory = hybrid_factory()
        reference = WorkloadRunner(
            workload, RunnerOptions(execution="serial")
        ).run_policy(factory)
        candidate = WorkloadRunner(
            workload,
            RunnerOptions(
                execution=execution, workers=3, max_resident_bytes=max_resident_bytes
            ),
        ).run_policy(factory)
        assert_app_results_match(
            list(reference.app_results), list(candidate.app_results)
        )

    def test_parallel_workers_byte_identical(self):
        workload = self.workload(seed=11)
        rows_by_workers = {}
        for workers in (1, 2, 4):
            runner = WorkloadRunner(
                workload, RunnerOptions(execution="parallel", workers=workers)
            )
            comparison = runner.compare(
                [fixed_keepalive_factory(10.0), hybrid_factory()]
            )
            rows_by_workers[workers] = comparison.rows()
        assert rows_by_workers[1] == rows_by_workers[2] == rows_by_workers[4]
        # Byte-identical: equal values AND equal representations, so no
        # float differs even in its last bit.
        assert (
            repr(rows_by_workers[1])
            == repr(rows_by_workers[2])
            == repr(rows_by_workers[4])
        )

    def test_mode_usage_identical_across_routes(self):
        workload = self.workload(seed=17)
        factory = hybrid_factory()
        routes = {
            "serial": RunnerOptions(execution="serial"),
            "auto": RunnerOptions(execution="auto"),
            "parallel": RunnerOptions(execution="parallel"),
            "chunked": RunnerOptions(max_resident_bytes=CHUNK_BUDGET),
        }
        by_route = {
            route: WorkloadRunner(workload, options).run_policy(factory)
            for route, options in routes.items()
        }
        usages = {mode: result.mode_usage() for mode, result in by_route.items()}
        assert (
            usages["auto"] == usages["serial"] == usages["parallel"] == usages["chunked"]
        )
        assert usages["serial"]  # hybrid tracks modes
        oob = {mode: result.total_oob_idle_times for mode, result in by_route.items()}
        assert oob["auto"] == oob["serial"] == oob["parallel"] == oob["chunked"]
