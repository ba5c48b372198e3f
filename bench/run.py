"""lcmech benchmark: derive-sweep, verify-pit and simulate-rk4.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an lcmech checkout.  Each round starts one fresh,
single-threaded worker process (``worker.py``) that imports lcmech from
``src/`` and works through the whole seeded job list of the workload, one
CLI call at a time (closed loop).  Untraced runs repeat whole rounds until
S seconds of job time and at least 100 jobs are done, then print the
end-to-end metrics.  Traced runs alternate three untraced and three traced
rounds of the same list and print the per-layer metrics and the tracing
overhead.
Every job's output is checked by ``check.py``; later rounds must reproduce
the first round's output byte for byte.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import jobs as joblists

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
TIME_LIMIT_S = 170.0
MIN_JOBS = 100  # job_s.p90 needs at least ten jobs above it
TRACE_PAIRS = 3


def drift_loop_ms() -> float:
    """A fixed pure-Python loop that never touches lcmech: a machine-speed gauge."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1e3


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


class Bench:
    def __init__(self, args, root: Path):
        self.args = args
        self.rundir = root / ".bench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.rundir, ignore_errors=True)
        self.rundir.mkdir(parents=True)
        self.jobs = joblists.build(args.workload, args.seed, root, self.rundir)
        self.jobs_json = self.rundir / "jobs.json"
        self.jobs_json.write_text(json.dumps([j.argv for j in self.jobs]), encoding="utf-8")
        self.env = worker_env(root)
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.drift = []
        self.first_outputs = None
        self.csv_hashes = {}
        self.references = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark ran out of time")
        return left

    def run_round(self, index: int, mode: str) -> dict:
        out = self.rundir / f"round-{index:02d}"
        out.mkdir()
        self.drift.append(drift_loop_ms())
        subprocess.run(
            [sys.executable, str(WORKER), str(self.jobs_json), str(out), mode],
            env=self.env, timeout=self._timeout(), check=True,
        )
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        print(
            f"round {index} ({mode}): {len(result['job_s'])} jobs in {sum(result['job_s']):.3f} s, "
            f"drift loop {self.drift[-1]:.2f} ms",
            file=sys.stderr,
        )
        outputs = [
            (out / f"job-{k:04d}.out").read_text(encoding="utf-8") for k in range(len(self.jobs))
        ]
        self._check_round(result, outputs)
        if (out / "spans.json").exists():
            (out / "spans.json").replace(self.rundir / "spans.json")
        shutil.rmtree(out)
        return result

    def _check_round(self, result, outputs):
        first = self.first_outputs is None
        for k, (job, code, error, stdout) in enumerate(
            zip(self.jobs, result["codes"], result["errors"], outputs)
        ):
            self.attempted += 1
            if code not in (0, 1):  # an exception, an input error (2) or a numerical one (3)
                self.failed += 1
                print(f"job {k} failed: exit {code}: {(error or '').strip()[-300:]}", file=sys.stderr)
                continue
            if first:
                problem = self._check_job(k, job, code, stdout)
            elif (code, stdout) != self.first_outputs[k]:
                problem = "output differs from the first round"
            elif job.csv and self._hash(job.csv) != self.csv_hashes[k]:
                problem = "CSV differs from the first round"
            else:
                problem = None
            if job.csv:
                Path(job.csv).unlink(missing_ok=True)
            if problem:
                self.mismatches.append(f"job {k} ({' '.join(job.argv)}): {problem}")
        if first:
            self.first_outputs = list(zip(result["codes"], outputs))

    @staticmethod
    def _hash(path) -> str:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def _check_job(self, k, job, code, stdout):
        if job.kind == "verify":
            return check.check_verify(job, stdout, code)
        if code != 0:
            return f"exit {code}"
        if job.kind == "derive":
            return check.check_derive(job, stdout, f"{self.args.seed} {k}")
        self.csv_hashes[k] = self._hash(job.csv)
        return check.check_simulate(job, stdout, self.references)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(bench: Bench) -> dict:
    setups, job_s, rss = [], [], []
    while sum(job_s) < bench.args.seconds or len(job_s) < MIN_JOBS:
        result = bench.run_round(len(rss), "plain")
        setups.append(result["setup_s"])
        job_s += result["job_s"]
        rss.append(result["peak_rss_mb"])
    print(f"rounds: {len(rss)}, jobs: {len(job_s)}, job time: {sum(job_s):.3f} s")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "job_s.p50": (statistics.median(job_s), "s"),
        "job_s.p90": (percentile(job_s, 0.9), "s"),
        "jobs_per_s": ((len(job_s) - bench.failed) / sum(job_s), "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(bench: Bench) -> dict:
    """Per-layer metrics averaged over TRACE_PAIRS traced rounds, and the
    tracing overhead as the median, over the pairs, of traced minus untraced
    job time; the rounds alternate so that a slow spell hits both kinds."""
    layers, overheads = [], []
    for pair in range(TRACE_PAIRS):
        plain = bench.run_round(2 * pair, "plain")
        traced = bench.run_round(2 * pair + 1, "trace")
        layers.append(traced["layers"])
        overheads.append(sum(traced["job_s"]) - sum(plain["job_s"]))
    metrics = {
        name: (statistics.fmean(row[name] for row in layers), layer_unit(name))
        for name in layers[0]
    }
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=joblists.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lcmech" / "__init__.py").is_file():
        print("error: run from the root of an lcmech checkout (no src/lcmech)", file=sys.stderr)
        return 2
    bench = Bench(args, root)
    try:
        metrics = per_layer(bench) if args.trace else end_to_end(bench)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for line in bench.mismatches:
        print(f"check failed: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"drift_loop_ms (machine speed, not a metric): {statistics.median(bench.drift):.3f}")
    result = {
        "correct": not bench.mismatches,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
