"""Run one optospring benchmark workload and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload cli_datasets --seed 1 --seconds 15 --trace 0

The program under test is imported from ``src/``. With ``--trace 0`` the
run measures the end-to-end metrics: a closed loop (one client, one
process) over the workload's cycle of operations until they have taken
``--seconds`` seconds, and set-up time in fresh interpreters started
between cycles. With ``--trace 1`` it runs the same loop without the
set-up samples, then one more cycle under the outside-in tracer, and
reports the per-layer metrics. The full record of the run goes to
``.bench_out/results/``; the last line of standard output is the JSON
summary.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP threads before numpy loads; set-up subprocesses inherit them
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# the CLI reads OPTOSPRING_* overrides; the benchmark's inputs come from the seed only
for _var in [v for v in os.environ if v.startswith("OPTOSPRING_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 5  # timed fresh interpreters per untraced run, after one untimed
TAIL_BEYOND = 10  # samples above the reported tail percentile
SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name, absent from os.sysconf_names

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "rows_per_s": "rows/s",
    "ok_ratio": "ok/attempted",
    "peak_rss_mb": "MB",
}


def _git_commit() -> str | None:
    """The checked-out commit, read from .git inside the checkout if present."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((SRC / "optospring").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    try:
        l3 = os.sysconf(SC_LEVEL3_CACHE_SIZE)
    except (OSError, ValueError):
        l3 = None
    return {
        "commit": _git_commit(),
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
    }


def _setup_sample(code: str) -> float:
    """Wall time of one fresh interpreter running the set-up code."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=120,
        check=False,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.decode()[-2000:]}")
    return elapsed


class Runner:
    """Executes operations, records latencies and checks each output once."""

    def __init__(self):
        self.digests: dict[str, str] = {}
        self.checked: dict[str, object] = {}
        self.problems: dict[str, str] = {}

    def execute(self, op, check: bool = True) -> dict:
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except (Exception, SystemExit) as exc:  # an operation failure, counted
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if error is None:
            try:
                digest = op.digest(result)
            except Exception as exc:  # e.g. an output the operation should have written
                digest, error = None, f"{type(exc).__name__}: {exc}"
            if error is None and self.digests.setdefault(op.key, digest) != digest:
                error = "output bytes differ from an earlier repeat"
        if error is None and check and op.key not in self.checked and op.key not in self.problems:
            try:
                self.checked[op.key] = op.check(result)
            except Exception as exc:  # a failed check, or one that could not run
                self.problems[op.key] = f"{type(exc).__name__}: {exc}"
        return {"key": op.key, "latency": latency, "error": error}

    def failed(self, rec: dict) -> bool:
        """An operation failed, or its output failed or never had its check."""
        key = rec["key"]
        return rec["error"] is not None or key in self.problems or key not in self.checked

    def rows(self, rec: dict) -> int:
        return 0 if self.failed(rec) else self.checked[rec["key"]].rows


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise RuntimeError(f"{n} operations are too few for a tail percentile")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _cross_format(runner: Runner, keys) -> None:
    """CSV and JSON of one command must carry identical values."""
    for key in keys:
        stem, _, fmt = key.rpartition(".")
        twin = f"{stem}.json"
        if fmt == "csv" and key in runner.checked and twin in runner.checked:
            if runner.checked[key].values != runner.checked[twin].values:
                runner.problems[twin] = "JSON values differ from the CSV values"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "optospring" / "__init__.py").is_file():
        print(f"bench: no optospring sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import optospring

    if Path(optospring.__file__).resolve().parent != SRC / "optospring":
        print(f"bench: imported optospring from {optospring.__file__}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, out, SRC)
    record: dict = {
        "workload": wl.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(args.seed),
        "ops_per_cycle": [op.key for op in wl.cycle],
    }

    setup_runs = 0 if args.trace else SETUP_RUNS
    if setup_runs:
        _setup_sample(wl.setup_code)  # untimed: may compile bytecode, which users pay once
    setup_samples: list[float] = []

    runner = Runner()
    # one untimed cycle first: it checks every output once, and lazy set-up
    # (first-use imports, allocator growth) finishes before timing starts
    warmup = [runner.execute(op) for op in wl.cycle]
    loop: list[dict] = []
    cycles = 0
    start = time.perf_counter()
    busy = 0.0
    while cycles < wl.min_cycles or busy < args.seconds:
        done = [runner.execute(op) for op in wl.cycle]
        loop += done
        busy += sum(r["latency"] for r in done)
        cycles += 1
        # set-up samples are spread over the loop, so that both see the same
        # machine; they run between cycles and are not operation time
        if len(setup_samples) < setup_runs * min(1.0, busy / args.seconds):
            setup_samples.append(_setup_sample(wl.setup_code))
    while len(setup_samples) < setup_runs:
        setup_samples.append(_setup_sample(wl.setup_code))
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced: list[dict] = []
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
        per_op = {}
        try:
            for op in wl.cycle:
                lo = tr.span_count()
                rec = runner.execute(op, check=False)
                traced.append(rec)
                per_op[op.key] = {
                    "latency_s": rec["latency"],
                    "self_s_by_layer": tr.self_s_by_layer(lo, tr.span_count()),
                }
        finally:
            tr.uninstall()
        tr.write(str(results_dir / f"{wl.name}_seed{args.seed}.spans.npz"))

    _cross_format(runner, [op.key for op in wl.cycle])
    records = warmup + loop + traced
    failed = sum(runner.failed(r) for r in records)
    latencies = [r["latency"] for r in loop]
    p50 = statistics.median(latencies)
    tail, tail_pct = _tail(latencies)

    if args.trace:
        metrics = tr.metrics()
        metrics["trace.overhead"] = statistics.median(r["latency"] for r in traced) / p50 - 1.0
        units = tracer.PER_LAYER_UNITS
        record["trace"] = {"spans": tr.span_count(), "per_op": per_op}
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "op_p50_s": p50,
            "op_tail_s": tail,
            "rows_per_s": sum(runner.rows(r) for r in loop) / busy,
            "ok_ratio": (len(records) - failed) / len(records),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    record.update(
        cycles=cycles,
        wall_s=wall,
        busy_s=busy,
        fail_ratio=failed / len(records),
        percentiles={
            "op_p50_s": {"percentile": 50.0, "samples": len(latencies)},
            "op_tail_s": {
                "percentile": tail_pct,
                "samples": len(latencies),
                "samples_beyond": TAIL_BEYOND,
            },
        },
        metrics=metrics,
        setup_samples_s=setup_samples,
        latency_median_by_op={
            op.key: statistics.median(r["latency"] for r in loop if r["key"] == op.key)
            for op in wl.cycle
        },
        outputs_sha256=runner.digests,
        rows={k: c.rows for k, c in runner.checked.items()},
        optima=[o for c in runner.checked.values() for o in c.optima],
        problems=runner.problems,
        errors=[r for r in records if r["error"]],
    )
    results_path = results_dir / f"{wl.name}_seed{args.seed}_trace{args.trace}.json"
    results_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    summary = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(f"results: {results_path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
