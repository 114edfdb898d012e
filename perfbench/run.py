"""Benchmark entry point: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fused-fleet --seed 1 --seconds 25 --trace 0

Set-up imports the program (here and in two fresh interpreters) and
builds the workload's input from ``--seed`` three times; the medians
count.  The timed region then repeats the workload's batch until
``--seconds`` have passed and reports the median batch throughput.
Times are scaled to a reference host speed by probes of the host's
speed taken inside each timed part (``hostclock.py``).  The last batch's
results go through the correctness gate.  With
``--trace 1`` the untraced batches get half of ``--seconds`` and traced
ones (spans around the program's public callables, see ``layers.py``)
the other half; the per-layer metrics replace the end-to-end ones in the
result line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import hostclock

# Set-up is timed from here: this process's imports are its first part.
_IMPORT_CLOCK = hostclock.HostClock().start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Input sizes per workload (see README.md for how they were chosen).
SIZES: dict[str, dict] = {
    "fused-fleet": {"apps": 5000, "days": 1.0, "target_rps": 5.0, "sample": 150},
    "policy-sweep": {"apps": 1000, "days": 1.0, "target_rps": 10.0, "sample": 16},
    "platform-replay": {"apps": 2000, "minutes": 240.0, "target_rps": 1.5},
}
SETUP_REPEATS = 3
#: Allowed gap between the summed self times and the traced wall time:
#: a share of the wall, but never below a floor in seconds.
SELF_TIME_TOLERANCE = 0.005
SELF_TIME_FLOOR_S = 0.001

END_TO_END_UNITS = {
    "inv_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_start_pct": "%",
    "wasted_memory_pct": "%",
}


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # Never report the sha of an enclosing repository.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def _manifest(args: argparse.Namespace, workload, repro_compiled: str | None) -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        numba_importable = True
    except ImportError:
        numba_importable = False
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": workload.parameters,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": numba_importable,
        "REPRO_COMPILED": repro_compiled,
        "host": platform.machine(),
    }


def _import_clock() -> tuple[float, float]:
    """Host and reference import time of the benchmark's modules in a fresh interpreter."""
    code = (
        "import hostclock; clock = hostclock.HostClock().start(); import workloads; "
        "clock.stop(); print(clock.wall_s, clock.reference_s)"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        cwd=BENCH_DIR,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    wall, reference = completed.stdout.split()
    return float(wall), float(reference)


@dataclass
class Measurement:
    """Batches of one phase: host walls, reference walls and mean probe times."""

    walls: list[float] = field(default_factory=list)
    reference_walls: list[float] = field(default_factory=list)
    probe_means: list[float] = field(default_factory=list)
    invocations: int = 0
    results: dict | None = None

    def rates(self, walls: list[float]) -> list[float]:
        return [self.invocations / wall for wall in walls]


def _measure(batch, inputs, seconds: float) -> Measurement:
    """Repeat ``batch(inputs)`` for ``seconds``, each batch on its own host clock."""
    measured = Measurement()
    started = time.perf_counter()
    while True:
        # Free the previous batch's results before timing the next one.
        measured.results = None
        with hostclock.HostClock() as clock:
            measured.invocations, measured.results = batch(inputs)
        measured.walls.append(clock.wall_s)
        measured.reference_walls.append(clock.reference_s)
        measured.probe_means.append(clock.probe_mean_s)
        if time.perf_counter() - started >= seconds:
            return measured


def _gate(workload, inputs, invocations: int, results: dict, label: str):
    started = time.perf_counter()
    check = workload.check(inputs, invocations, results)
    for message in check.failures:
        print(f"FAILED [{label}] {message}")
    print(f"  correctness gate ({label}): {check.failed} of {check.attempted} invocations "
          f"failed, {time.perf_counter() - started:.2f}s")
    return check


def _traced(workload, inputs, seconds: float, untraced_wall: float, result_values: dict):
    """Traced set-up build and batches; per-layer metrics and span tables."""
    import layers
    from tracer import Tracer

    setup_tracer = Tracer()
    layers.instrument_setup(setup_tracer)
    try:
        started = time.perf_counter()
        traced_inputs = setup_tracer.timed(workload.build, layers.SETUP_ROOT)()
        setup_wall = time.perf_counter() - started
        del traced_inputs
    finally:
        setup_tracer.uninstall()

    batch_tracer = Tracer()
    batch_root = batch_tracer.timed(workload.batch, layers.BATCH_ROOT)
    layers.instrument_batch(batch_tracer)
    rss_before = _max_rss_mb()
    try:
        traced = _measure(batch_root, inputs, seconds)
    finally:
        batch_tracer.uninstall()
    rss_growth = _max_rss_mb() - rss_before

    setup_summary = setup_tracer.summary()
    batch_summary = batch_tracer.summary()
    for phase, summary, wall in (
        ("set-up", setup_summary, setup_wall),
        ("batch", batch_summary, sum(traced.walls)),
    ):
        self_sum = sum(row["self_s"] for row in summary.values())
        print(f"  {phase} spans: self times sum to {self_sum:.4f}s of {wall:.4f}s traced wall")
        if abs(self_sum - wall) > max(SELF_TIME_TOLERANCE * wall, SELF_TIME_FLOOR_S):
            raise SystemExit(
                f"span bookkeeping error: {phase} self times sum to {self_sum:.6f}s, "
                f"traced wall is {wall:.6f}s"
            )
    overhead = statistics.median(traced.reference_walls) / untraced_wall - 1.0
    values = layers.layer_metrics(
        setup_summary,
        batch_summary,
        len(traced.walls),
        result_values,
        rss_growth_mb=rss_growth,
        trace_overhead_frac=overhead,
    )
    tables = {"setup": setup_summary, "batch": batch_summary, "traced_batches": len(traced.walls)}
    return values, tables, (setup_tracer, batch_tracer), traced


def _print_span_table(title: str, summary: dict, runs: int) -> None:
    wall = max(row["total_s"] for row in summary.values())
    print(f"{title} (per run, {runs} run(s); self = duration minus wrapped children)")
    print(f"  {'span':<40} {'calls':>10} {'total s':>10} {'self s':>10} {'self %':>7}")
    for name, row in sorted(summary.items(), key=lambda item: -item[1]["self_s"]):
        print(
            f"  {name:<40} {row['calls'] / runs:>10.0f} {row['total_s'] / runs:>10.4f} "
            f"{row['self_s'] / runs:>10.4f} {100.0 * row['self_s'] / wall:>6.1f}%"
        )


def main(argv: list[str] | None = None, sizes: dict[str, dict] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)

    # The default in-process engines only: the heapq event core, no pools.
    repro_compiled = os.environ.pop("REPRO_COMPILED", None)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import workloads

    _IMPORT_CLOCK.stop()
    size = (sizes or SIZES)[args.workload]
    workload = {
        "fused-fleet": workloads.FusedFleet,
        "policy-sweep": workloads.PolicySweep,
        "platform-replay": workloads.PlatformReplay,
    }[args.workload](args.seed, **size)

    # Set-up is repeated, each part on its own host clock: this process's
    # imports plus fresh interpreters' imports, then the input builds.
    import_walls = [_IMPORT_CLOCK.wall_s]
    import_samples = [_IMPORT_CLOCK.reference_s]
    for _ in range(SETUP_REPEATS - 1):
        wall, reference = _import_clock()
        import_walls.append(wall)
        import_samples.append(reference)
    build_walls = []
    build_samples = []
    for _ in range(SETUP_REPEATS):
        with hostclock.HostClock() as clock:
            inputs = workload.build()
        build_walls.append(clock.wall_s)
        build_samples.append(clock.reference_s)
    setup_host_s = statistics.median(import_walls) + statistics.median(build_walls)

    # A traced run splits its time between the untraced and traced batches.
    phase_seconds = args.seconds / 2 if args.trace else args.seconds
    measured = _measure(workload.batch, inputs, phase_seconds)
    peak_rss_mb = _max_rss_mb()
    invocations, results = measured.invocations, measured.results
    cold_start_pct, wasted_memory_pct = workload.modelled(results)
    end_to_end = {
        "inv_per_s": statistics.median(measured.rates(measured.reference_walls)),
        "setup_s": statistics.median(import_samples) + statistics.median(build_samples),
        "peak_rss_mb": peak_rss_mb,
        "cold_start_pct": cold_start_pct,
        "wasted_memory_pct": wasted_memory_pct,
    }
    host_rates = measured.rates(measured.walls)
    print(f"workload {args.workload} seed {args.seed}: {invocations:,} invocations per batch")
    print(f"  host walls  {' '.join(f'{w:.3f}' for w in measured.walls)}s")
    print(f"  mean probe  {' '.join(f'{1e3 * p:.3f}' for p in measured.probe_means)}ms "
          f"(reference {1e3 * hostclock.REFERENCE_PROBE_S}ms)")
    print(f"  host time: inv_per_s median {statistics.median(host_rates):.1f}, set-up "
          f"{setup_host_s:.4f}s (imports {', '.join(f'{w:.4f}' for w in import_walls)}s, "
          f"builds {', '.join(f'{w:.4f}' for w in build_walls)}s)")
    print(f"  {len(measured.walls)} batches; times below are scaled to the reference host")
    for name, value in end_to_end.items():
        print(f"  {name:<20} {value:>16.4f} {END_TO_END_UNITS[name]}")
    check = _gate(workload, inputs, invocations, results, "untraced")
    failed_frac = check.failed / check.attempted
    print(f"  {'failed_frac':<20} {failed_frac:>16.4f} ratio ({check.failed} of {check.attempted} invocations)")

    record = {
        "manifest": _manifest(args, workload, repro_compiled),
        "import_walls_s": import_walls,
        "build_walls_s": build_walls,
        "batch_walls_s": measured.walls,
        "probe_means_s": measured.probe_means,
        "host_inv_per_s": statistics.median(host_rates),
        "host_setup_s": setup_host_s,
        "invocations_per_batch": invocations,
    }
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in end_to_end.items()}
    record["end_to_end"] = metrics
    if args.trace:
        import layers

        values, tables, tracers, traced = _traced(
            workload,
            inputs,
            phase_seconds,
            statistics.median(measured.reference_walls),
            workload.layer_values(results),
        )
        traced_check = _gate(workload, inputs, traced.invocations, traced.results, "traced")
        check.attempted += traced_check.attempted
        check.failed += traced_check.failed
        _print_span_table("set-up spans", tables["setup"], 1)
        _print_span_table("batch spans", tables["batch"], tables["traced_batches"])
        units = layers.per_layer_units()
        print("per-layer metrics")
        for name, value in values.items():
            print(f"  {name:<42} {value:>16.6f} {units[name]}")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
        record["per_layer"] = metrics
        for tracer, phase in zip(tracers, ("setup", "batch")):
            tracer.save(OUT_DIR / f"spans-{args.workload}-{phase}.npz")

    print("manifest " + json.dumps(record["manifest"], sort_keys=True))
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }
    record["result"] = result
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
