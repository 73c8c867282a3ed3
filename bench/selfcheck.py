"""The benchmark's own check.

Usage (from the repository root):

    python3 bench/selfcheck.py

For every workload in BENCHMARK.json it makes a short untraced run and two
traced runs with one fixed seed, and checks that:

- the untraced run reports every end-to-end metric, no failed operation;
- each traced run reports every per-layer metric, no failed operation;
- the two traced runs agree exactly on every deterministic count (calls,
  points, optimizer evaluations, optima, rows, bytes) and on every output
  digest.

It also runs the benchmark in a directory holding only BENCHMARK.json and
the benchmark files, where it must fail without printing a result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# per-layer metrics that count work rather than time it
DETERMINISTIC_UNITS = ("count", "B", "ratio")
NOT_DETERMINISTIC = ("trace.overhead",)
SEED = 1


def _run(cwd: Path, spec: dict, workload: str, trace: int):
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    return proc


def _summary(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _record(workload: str, trace: int) -> dict:
    path = ROOT / ".bench_out" / "results" / f"{workload}_seed{SEED}_trace{trace}.json"
    return json.loads(path.read_text())


def _expect_metrics(summary: dict, wanted: list[dict], label: str, problems: list) -> None:
    names = {m["name"] for m in wanted}
    if set(summary["metrics"]) != names:
        problems.append(f"{label}: metrics {sorted(summary['metrics'])} != {sorted(names)}")
    if not summary["correct"] or summary["failed"] != 0:
        problems.append(f"{label}: {summary['failed']} of {summary['attempted']} failed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    for wl in spec["workloads"]:
        name = wl["name"]
        summary = _summary(_run(ROOT, spec, name, 0))
        _expect_metrics(summary, spec["end_to_end"], f"{name} untraced", problems)
        counts = []
        for attempt in (1, 2):
            summary = _summary(_run(ROOT, spec, name, 1))
            _expect_metrics(summary, spec["per_layer"], f"{name} traced #{attempt}", problems)
            rec = _record(name, 1)
            counts.append((
                {k: v["value"] for k, v in summary["metrics"].items()
                 if v["unit"] in DETERMINISTIC_UNITS and k not in NOT_DETERMINISTIC},
                rec["outputs_sha256"],
            ))
        if counts[0] != counts[1]:
            diff = {k: (v, counts[1][0].get(k)) for k, v in counts[0][0].items()
                    if counts[1][0].get(k) != v}
            problems.append(f"{name}: traced runs disagree on counts {diff} or digests")
        print(f"{name}: checked", flush=True)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    first = spec["workloads"][0]["name"]
    proc = _run(bare, spec, first, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("the benchmark ran without the program's sources")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck:", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
