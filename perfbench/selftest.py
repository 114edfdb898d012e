"""Smoke-size self-test of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that every workload runs at a tiny size with and without
tracing, that each run prints exactly the metrics ``BENCHMARK.json``
names with their units, that the correctness gate rejects deliberately
corrupted results, and that the benchmark fails without a result when
the program's sources are missing.  Exit code 0 means all checks passed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run

SMOKE_SIZES: dict[str, dict] = {
    "fused-fleet": {"apps": 200, "days": 0.25, "target_rps": 0.5, "sample": 20},
    "policy-sweep": {"apps": 60, "days": 0.5, "target_rps": 2.0, "sample": 4},
    "platform-replay": {"apps": 100, "minutes": 60.0, "target_rps": 0.5},
}

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {message}")
    if not condition:
        failures.append(message)


def run_quietly(argv: list[str]) -> tuple[dict, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run.main(argv, sizes=SMOKE_SIZES)
    output = buffer.getvalue()
    return json.loads(output.strip().splitlines()[-1]), output


def check_outputs(spec: dict) -> None:
    for workload in SMOKE_SIZES:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            print(f"{workload} --trace {trace}")
            result, _ = run_quietly(
                ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
            )
            expect(
                sorted(result) == ["attempted", "correct", "failed", "metrics"],
                "result line has exactly correct/attempted/failed/metrics",
            )
            expect(result["correct"] and result["failed"] == 0, "outputs pass the gate")
            expect(result["attempted"] >= 1, "attempted is at least 1")
            wanted = {metric["name"]: metric["unit"] for metric in spec[kind]}
            got = {name: value["unit"] for name, value in result["metrics"].items()}
            expect(got == wanted, f"emits every {kind} metric with its unit")
            if trace == 0:
                expect(
                    all(value["value"] > 0 for value in result["metrics"].values()),
                    "end-to-end metrics are positive",
                )


def _corrupt_cold_starts(results: dict, oracle: dict, policy: str) -> dict:
    """Results with one sampled app's cold-start count altered by one."""
    app_id = next(app_id for app_id, row in oracle[policy].items() if row.invocations > 1)
    result = results[policy]
    rows = tuple(
        dataclasses.replace(
            row, cold_starts=row.cold_starts + (1 if row.cold_starts < row.invocations else -1)
        )
        if row.app_id == app_id
        else row
        for row in result.app_results
    )
    return {**results, policy: dataclasses.replace(result, app_results=rows)}


def check_gate() -> None:
    import workloads

    for cls in (workloads.FusedFleet, workloads.PolicySweep):
        workload = cls(5, **SMOKE_SIZES[cls.name])
        print(f"{cls.name} gate")
        inputs = workload.build()
        invocations, results = workload.batch(inputs)
        expect(workload.check(inputs, invocations, results).failed == 0, "clean results pass")
        corrupted = _corrupt_cold_starts(results, workload._oracle, workloads.HYBRID)
        expect(
            workload.check(inputs, invocations, corrupted).failed > 0,
            "one altered cold-start count fails",
        )
        expect(
            workload.check(inputs, invocations + 1, results).failed > 0,
            "an invocation-count mismatch fails",
        )

    workload = workloads.PlatformReplay(5, **SMOKE_SIZES["platform-replay"])
    print(f"{workload.name} gate")
    inputs = workload.build()
    invocations, results = workload.batch(inputs)
    expect(workload.check(inputs, invocations, results).failed == 0, "clean results pass")
    for field, value in (("dropped", 1), ("submissions", results["hybrid:240"].submissions - 1)):
        corrupted = {**results, "hybrid:240": dataclasses.replace(results["hybrid:240"], **{field: value})}
        expect(workload.check(inputs, invocations, corrupted).failed > 0, f"altered {field} fails")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark exits non-zero, printing no result."""
    print("bare checkout")
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "fused-fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(completed.returncode != 0, "exits non-zero")
    expect('"correct"' not in completed.stdout, "prints no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_outputs(spec)
    check_gate()
    check_bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
