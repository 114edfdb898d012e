"""Which public ``repro`` callables are timed, and the per-layer metrics.

Span names are ``<layer>.<stage>``; the layer is the ``repro`` package
the callable lives in.  :func:`instrument_setup` covers input building
(generation, store build, replay feed) and :func:`instrument_batch` the
timed batch.  :func:`layer_metrics` turns the two span summaries into
the per-layer metrics named in ``BENCHMARK.json``; a metric whose layer
the workload does not exercise reads 0.
"""

from __future__ import annotations

from repro.core.histogram import IdleTimeHistogram
from repro.core.histogram_bank import HistogramBank
from repro.core.hybrid import HybridHistogramPolicy
from repro.platform.controller import Controller
from repro.platform.events import EventLoop
from repro.platform.invoker import Invoker
from repro.platform.metrics import PlatformMetrics
from repro.platform.replay import ReplayFeed
from repro.policies.fixed import FixedKeepAlivePolicy
from repro.simulation import fused
from repro.simulation.engine import SimulationEngine
from repro.simulation.runner import PolicyComparison
from repro.simulation.sweep_engine import SweepEngine
from repro.trace.generator import WorkloadGenerator
from repro.trace.store import InvocationStore

from tracer import Tracer

#: Root span of one timed batch; its self time is work in no wrapped callable.
BATCH_ROOT = "bench.batch"
SETUP_ROOT = "bench.setup"


def _app_count(chunk) -> int:
    return chunk.num_apps


def instrument_setup(tracer: Tracer) -> None:
    tracer.patch(
        WorkloadGenerator,
        "generate_chunks",
        tracer.timed_iterator(WorkloadGenerator.generate_chunks, "trace.generate", _app_count),
    )
    tracer.wrap_method(InvocationStore, "from_app_columns", "trace.store.build")
    tracer.wrap_method(ReplayFeed, "__init__", "platform.feed.build")


def instrument_batch(tracer: Tracer) -> None:
    tracer.patch(
        fused,
        "iter_chunk_columns",
        tracer.timed_iterator(fused.iter_chunk_columns, "trace.generate", _app_count),
    )
    tracer.wrap_method(InvocationStore, "from_app_columns", "trace.store.build")
    tracer.wrap_function("repro.simulation.fused", "simulate_streamed", "simulation.fused")
    tracer.wrap_method(SweepEngine, "run_policies", "simulation.sweep")
    tracer.wrap_method(SimulationEngine, "run_policy", "simulation.engine.run_policy")
    tracer.wrap_method(PolicyComparison, "rows", "simulation.summary")
    tracer.wrap_method(PolicyComparison, "mode_usage_rows", "simulation.summary")
    tracer.wrap_method(HistogramBank, "observe", "core.histogram_bank.observe")
    tracer.wrap_method(HistogramBank, "observe_prefix", "core.histogram_bank.observe")
    tracer.wrap_function(
        "repro.core.forecaster",
        "forecast_idle_times",
        "core.forecaster",
        units=lambda args, kwargs, result: len(result),
    )
    tracer.wrap_method(IdleTimeHistogram, "percentile", "core.histogram.percentile")
    tracer.wrap_method(FixedKeepAlivePolicy, "on_invocation", "policies.fixed.on_invocation")
    tracer.wrap_method(HybridHistogramPolicy, "on_invocation", "policies.hybrid.on_invocation")
    tracer.wrap_method(
        EventLoop,
        "run",
        "platform.events.run",
        units=lambda args, kwargs, result: args[0].processed_events,
    )
    tracer.wrap_method(Controller, "submit", "platform.controller.submit")
    tracer.wrap_method(Invoker, "handle_activation", "platform.invoker.handle_activation")
    tracer.wrap_method(PlatformMetrics, "record", "platform.metrics.record")


#: Per-layer metric -> (span name, field, unit).  ``self_s`` is the span's
#: duration minus its wrapped children; ``total_s`` includes them.
SPAN_METRICS: dict[str, tuple[str, str, str]] = {
    "trace.generate.busy_s": ("trace.generate", "self_s", "s"),
    "trace.store.build_s": ("trace.store.build", "self_s", "s"),
    "trace.store.build_calls": ("trace.store.build", "calls", "count"),
    "simulation.fused.self_s": ("simulation.fused", "self_s", "s"),
    "simulation.sweep.self_s": ("simulation.sweep", "self_s", "s"),
    "simulation.engine.run_policy_s": ("simulation.engine.run_policy", "self_s", "s"),
    "simulation.engine.run_policy_calls": ("simulation.engine.run_policy", "calls", "count"),
    "simulation.summary_s": ("simulation.summary", "self_s", "s"),
    "core.histogram_bank.observe_s": ("core.histogram_bank.observe", "self_s", "s"),
    "core.histogram_bank.observe_calls": ("core.histogram_bank.observe", "calls", "count"),
    "core.forecaster.busy_s": ("core.forecaster", "self_s", "s"),
    "core.forecaster.calls": ("core.forecaster", "calls", "count"),
    "core.forecaster.series": ("core.forecaster", "units", "count"),
    "core.histogram.percentile_s": ("core.histogram.percentile", "self_s", "s"),
    "core.histogram.percentile_calls": ("core.histogram.percentile", "calls", "count"),
    "policies.fixed.on_invocation_s": ("policies.fixed.on_invocation", "self_s", "s"),
    "policies.fixed.on_invocation_calls": ("policies.fixed.on_invocation", "calls", "count"),
    "policies.hybrid.on_invocation_s": ("policies.hybrid.on_invocation", "self_s", "s"),
    "policies.hybrid.on_invocation_calls": ("policies.hybrid.on_invocation", "calls", "count"),
    "platform.feed.build_s": ("platform.feed.build", "self_s", "s"),
    "platform.events.run_s": ("platform.events.run", "total_s", "s"),
    "platform.events.self_s": ("platform.events.run", "self_s", "s"),
    "platform.events.processed": ("platform.events.run", "units", "count"),
    "platform.controller.submit_s": ("platform.controller.submit", "self_s", "s"),
    "platform.controller.submit_calls": ("platform.controller.submit", "calls", "count"),
    "platform.invoker.handle_activation_s": ("platform.invoker.handle_activation", "self_s", "s"),
    "platform.invoker.handle_activation_calls": (
        "platform.invoker.handle_activation", "calls", "count"),
    "platform.metrics.record_s": ("platform.metrics.record", "self_s", "s"),
    "bench.unattributed_s": (BATCH_ROOT, "self_s", "s"),
}

#: Per-layer metrics read off the workload's results, not from spans.
RESULT_METRICS: dict[str, str] = {
    "simulation.results.rows": "count",
    "policies.mode.histogram": "count",
    "policies.mode.standard": "count",
    "policies.mode.arima": "count",
    "policies.oob_ratio": "ratio",
    "platform.controller.policy_update_us": "us",
    "platform.warm_ratio": "ratio",
    "platform.prewarm_loads": "count",
    "platform.evictions": "count",
}

#: Metrics the benchmark derives itself.
DERIVED_METRICS: dict[str, str] = {
    "trace.generate.apps_per_s": "1/s",
    "simulation.rss_growth_mb": "MB",
    "bench.trace_overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, (_, _, unit) in SPAN_METRICS.items()}
    units.update(RESULT_METRICS)
    units.update(DERIVED_METRICS)
    return units


def layer_metrics(
    setup_summary: dict,
    batch_summary: dict,
    batches: int,
    result_values: dict[str, float],
    *,
    rss_growth_mb: float,
    trace_overhead_frac: float,
) -> dict[str, float]:
    """Every per-layer metric: set-up spans of one build plus batch spans per batch."""
    spans = {name: dict(row) for name, row in setup_summary.items()}
    for name, row in batch_summary.items():
        totals = spans.setdefault(name, dict.fromkeys(row, 0.0))
        for key, value in row.items():
            totals[key] += value / batches
    values = {
        metric: float(spans.get(span, {}).get(field, 0.0))
        for metric, (span, field, _) in SPAN_METRICS.items()
    }
    for metric in RESULT_METRICS:
        values[metric] = float(result_values.get(metric, 0.0))
    generate = spans.get("trace.generate", {})
    values["trace.generate.apps_per_s"] = (
        generate["units"] / generate["total_s"] if generate.get("total_s") else 0.0
    )
    values["simulation.rss_growth_mb"] = rss_growth_mb
    values["bench.trace_overhead_frac"] = trace_overhead_frac
    return values
