"""Run one workload in this interpreter and print its measurements as JSON.

``run.py`` starts one fresh interpreter per workload with the workload's
thread environment and ``src`` on ``PYTHONPATH``, so import time, peak
memory and thread use belong to that workload alone.  The last line of
standard output is a JSON object; nothing else is printed there.

Untraced (``--trace 0``): iterations of the workload's CLI calls until
``--seconds`` of them have been timed, reported as means per iteration.
Between iterations, fresh interpreters time the import of ``cohlab.cli``;
their median is the set-up time.  Traced (``--trace 1``): pairs of one
untraced and one traced iteration for the same time, then the isolated
layer probes; counts are per iteration and times are means per iteration.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, payload_bytes

SETUP_SAMPLES = 10  # fresh interpreters per untraced run, spread over its iterations


class Run:
    """Iterations of one workload, with their failures and payload digests."""

    def __init__(self, workload, seed: int):
        import cohlab.cli

        self.main = cohlab.cli.main
        self.workload = workload
        self.seed = seed
        self.argv = workload.argv(seed)
        self.digests: list[str] | None = None
        self.iterations = 0
        self.failures: list[str] = []

    def call(self, argv: list[str], main=None) -> tuple[int, str, str, float, float]:
        """One CLI call through ``main`` (default ``cohlab.cli.main``): exit code,
        standard output and error, wall and CPU seconds."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                code = (main or self.main)(argv)
            except SystemExit as exc:  # argparse rejects a command line this way
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed iteration, not a failed benchmark
                traceback.print_exc(file=err)
                code = 1
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        return code, out.getvalue(), err.getvalue(), wall, cpu

    def iteration(self, main=None) -> tuple[float, float, int]:
        """Run every CLI call once; returns wall and CPU seconds and output bytes."""
        wall = cpu = 0.0
        size = 0
        digests, problems = [], []
        for argv in self.argv:
            code, output, error, dw, dc = self.call(argv, main)
            wall, cpu, size = wall + dw, cpu + dc, size + len(output.encode())
            try:
                problem = self.workload.check(code, output)
                if problem is None:
                    digests.append(hashlib.sha256(payload_bytes(output)).hexdigest())
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem:
                tail = error.strip().splitlines()[-1:]
                problems.append(f"{' '.join(argv)}: {problem} {' '.join(tail)}".strip())
        if not problems and self.digests is None:
            self.digests = digests
        elif not problems and digests != self.digests:
            problems.append("payload SHA-256 differs from the first iteration")
        self.iterations += 1
        if problems:
            self.failures.append("; ".join(problems))
        return wall, cpu, size

    def warm_up(self) -> None:
        for argv in self.workload.warmup_argv(self.seed):
            self.call(argv)


def setup_seconds() -> float:
    """Seconds from a fresh interpreter's start until ``cohlab.cli`` is imported."""
    probe = "import time, cohlab.cli; print(time.monotonic())"
    start = time.monotonic()  # CLOCK_MONOTONIC is shared with the child
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1]) - start


def untraced(run: Run, seconds: float) -> dict:
    walls, cpus, setups = [], [], []
    while not walls or sum(walls) < seconds:
        # set-up samples keep pace with the timed iterations, so both see the same machine
        while len(setups) < min(SETUP_SAMPLES, 1 + int(sum(walls) / seconds * SETUP_SAMPLES)):
            setups.append(setup_seconds())
        wall, cpu, _ = run.iteration()
        walls.append(wall)
        cpus.append(cpu)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_seconds())
    # Means, not medians: the machine's speed drifts over tens of seconds,
    # and the whole run's time per iteration varies least from run to run.
    wall = statistics.fmean(walls)
    return {
        "wall_s": wall,
        "states_per_s": run.workload.states_per_iteration / wall,
        "cpu_s": statistics.fmean(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
        "iteration_walls_s": walls,
        "setup_samples_s": setups,
    }


def layer_metrics(tracer, wall: float, payload_size: int) -> dict:
    """Per-layer figures of one traced iteration."""
    seconds, threads = tracer.attribute()
    calls, counts, peak_chunk = tracer.totals()

    def per(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    kernels = ("entropy", "purity", "trdist", "l1")
    keys = calls.get("streams.new_generator", 0)
    return {
        "streams.new_generator_s": seconds.get("streams.new_generator", 0.0),
        "streams.new_generator_calls": keys,
        "streams.us_per_key": per(seconds.get("streams.new_generator", 0.0), keys, 1e6),
        "sampler.draw_s": seconds.get("sampler.draw", 0.0),
        "sampler.variates_drawn": counts.get("sampler.variates_drawn", 0),
        "sampler.positive_qr_s": seconds.get("sampler.positive_qr", 0.0),
        "sampler.qr_matrices": counts.get("sampler.qr_matrices", 0),
        "sampler.subspace_self_s": seconds.get("sampler.subspace", 0.0),
        **{f"measures.{k}_s": seconds.get(f"measures.{k}", 0.0) for k in kernels},
        "measures.elements": sum(counts.get(f"measures.{k}.elements", 0) for k in kernels),
        "measures.entropy_ns_per_element": per(
            seconds.get("measures.entropy", 0.0), counts.get("measures.entropy.elements", 0), 1e9
        ),
        "experiments.self_s": seconds.get("experiments", 0.0),
        "experiments.chunks": counts.get("experiments.chunks", 0),
        "experiments.peak_chunk_bytes": peak_chunk,
        "experiments.threads": threads,
        "analytics.s": seconds.get("analytics", 0.0),
        "cli.self_s": seconds.get("cli", 0.0),
        "cli.payload_bytes": payload_size,
        "trace.wall_s": wall,
        "trace.accounted_s": sum(seconds.values()),
    }


def traced(run: Run, seconds: float) -> dict:
    from probes import run_probes
    from spans import CLI, Tracer, installed

    walls, per_iteration = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(run.iteration()[0])
        tracer = Tracer()
        with installed(tracer):
            wall, _, size = run.iteration(tracer.wrap(run.main, CLI))
        per_iteration.append(layer_metrics(tracer, wall, size))
    metrics = {}
    for key, first in per_iteration[0].items():
        # counts repeat exactly from one iteration to the next
        average = statistics.median_low if isinstance(first, int) else statistics.fmean
        metrics[key] = average([m[key] for m in per_iteration])
    metrics["trace_overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(walls)
    metrics.update(run_probes(run.seed))
    return metrics


def versions() -> dict:
    import numpy
    import scipy

    import cohlab

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("openblas configuration", blas.get("name", "unknown")),
        "cohlab_file": cohlab.__file__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True, help="the src directory cohlab must come from")
    args = parser.parse_args()

    import cohlab

    if Path(args.src).resolve() not in Path(cohlab.__file__).resolve().parents:
        print(f"cohlab imported from {cohlab.__file__}, not from {args.src}", file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed)
    run.warm_up()
    metrics = traced(run, args.seconds) if args.trace else untraced(run, args.seconds)
    result = {
        "metrics": metrics,
        "iterations": run.iterations,
        "failures": run.failures,
        "payload_sha256": run.digests,
        "versions": versions(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
