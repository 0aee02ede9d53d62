"""Benchmark of the cohlab CLI campaigns.

    python3 perfbench/run.py --workload laws-d1000 [--seed N] [--trace 0|1]
    python3 perfbench/run.py --workload all     # every workload, one table each

Run from any directory of a source checkout; the program is imported from
the checkout's ``src``.  Each workload runs in its own fresh interpreter
with ``OPENBLAS_NUM_THREADS=1``, ``OMP_NUM_THREADS=1`` and the workload's
``COHLAB_THREADS``, so its threads, memory and import time are its own.
Each run measures ``run_seconds`` of BENCHMARK.json; ``--seconds``, which
callers of the benchmark pass, must agree with it.

The report is printed first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Exit code 0 when the run completed, even if
an output check failed (then ``correct`` is false); 2 when the run could
not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def workload_env(threads: int) -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        COHLAB_THREADS=str(threads),
    )


def run_child(argv: list[str], env: dict[str, str], deadline: float) -> str:
    """Run a child interpreter to completion and return its standard output."""
    try:
        done = subprocess.run(
            [sys.executable, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[:2]} did not finish within the time limit") from exc
    if done.returncode != 0:
        raise BenchError(f"{argv[:2]} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout


def machine_notes() -> dict:
    notes = {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "git_sha": None,
        "src_sha256": source_digest(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    notes["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():  # an exported checkout has only src_sha256
        try:
            notes["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return notes


def source_digest() -> str:
    """SHA-256 over the paths and bytes of every .py file under src."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    workload = WORKLOADS[name]
    env = workload_env(workload.threads)
    argv = [str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--src", str(SRC)]
    result = json.loads(run_child(argv, env, deadline).strip().splitlines()[-1])
    result["seed"] = seed
    result["threads_env"] = {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "COHLAB_THREADS")}
    return result


def print_report(name: str, result: dict, spec: dict, trace: int) -> None:
    failed = len(result["failures"])
    print(f"== {name}  seed {result['seed']}  iterations {result['iterations']}  "
          f"failed_frac {failed / result['iterations']:.4g}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    metrics = result["metrics"]
    if trace:
        wall = metrics["trace.wall_s"]
        for key, value in sorted(metrics.items()):
            share = f"{value / wall:8.2%}" if key.endswith(("_s", ".s")) and "." in key and wall else ""
            print(f"   {key:36s} {value:>16.6g} {share}")
        print(f"   layer times account for {metrics['trace.accounted_s'] / wall:.4%} of traced wall")
    else:
        for m in spec["end_to_end"]:
            print(f"   {m['name']:16s} {metrics[m['name']]:>14.6g} {m['unit']}")
    notes = {k: result[k] for k in ("seed", "threads_env", "versions", "payload_sha256")}
    notes.update({k: metrics.get(k) for k in ("iteration_walls_s", "setup_samples_s")})
    print("   notes " + json.dumps(notes, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        if not (SRC / "cohlab" / "cli.py").is_file():
            raise BenchError(f"no cohlab sources at {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = spec["run_seconds"]
        if args.seconds is not None and args.seconds != seconds:
            raise BenchError(f"--seconds {args.seconds:g} differs from run_seconds {seconds} of BENCHMARK.json")
        # byte-compile first so that no set-up sample pays for compiling
        run_child(["-m", "compileall", "-q", str(SRC)], dict(os.environ), time.monotonic() + 60)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        notes = machine_notes()
        print("machine " + json.dumps(notes, sort_keys=True))
        attempted = failed = 0
        metrics = {}
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            result = run_workload(name, args.seed, seconds, args.trace, deadline)
            print_report(name, result, spec, args.trace)
            attempted += result["iterations"]
            failed += len(result["failures"])
            for m in wanted:
                key = m["name"] if len(names) == 1 else f"{name}.{m['name']}"
                if m["name"] not in result["metrics"]:
                    raise BenchError(f"{name} did not report {m['name']}")
                metrics[key] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
