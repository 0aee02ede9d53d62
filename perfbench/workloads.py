"""The cohlab CLI campaigns the benchmark runs, and their output checks.

Each workload is a list of ``cohlab`` command lines run in order as one
iteration, the ``COHLAB_THREADS`` value it runs with, the number of Haar
states one iteration samples, and a check of each command's output.  The
checks hold for any seed and survive a deliberate change of the stream
contract: they test the science (laws, floors, exit codes), never fixed
payload bytes.

Stdlib only, so run.py can import it without numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    commands: tuple[tuple[str, ...], ...]
    # command lines for an untimed warm-up pass: same code paths, little work
    warmup: tuple[tuple[str, ...], ...]
    states_per_iteration: int
    check: Callable[[int, str], str | None]

    def argv(self, seed: int) -> list[list[str]]:
        return [[*cmd, "--seed", str(seed)] for cmd in self.commands]

    def warmup_argv(self, seed: int) -> list[list[str]]:
        return [[*cmd, "--seed", str(seed)] for cmd in self.warmup]


def payload_bytes(output: str) -> bytes:
    """The seed-determined part of a command's output: the JSON envelope
    carries a timestamp, so only its ``payload`` is kept."""
    payload = json.loads(output)["payload"]
    return json.dumps(payload, sort_keys=True).encode()


def _check_law(code: int, output: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    p = json.loads(output)["payload"]
    z = abs(p["empirical_mean"] - p["analytic_mean"]) / p["empirical_stderr"]
    if not z <= 4.0:
        return f"{p['config']['measure_kind']} mean is {z:.2f} stderr from its law"
    return None


def _check_subspace(code: int, output: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    p = json.loads(output)["payload"]
    if p["sub_dim"] != 4:
        return f"sub_dim {p['sub_dim']} != 4"
    if p["violations"] != 0:
        return f"{p['violations']} floor violations"
    if not p["min_observed_cr"] >= p["threshold"]:
        return f"min observed cr {p['min_observed_cr']!r} below {p['threshold']!r}"
    return None


def _concentrate(measure: str, dim: int, trials: int) -> tuple[str, ...]:
    return ("concentrate", "--measure", measure, "--dim", str(dim), "--trials", str(trials))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="laws-d1000",
            threads=1,
            commands=tuple(_concentrate(m, 1000, 20000) for m in ("cr", "purity", "trdist")),
            warmup=tuple(_concentrate(m, 1000, 200) for m in ("cr", "purity", "trdist")),
            states_per_iteration=60000,
            check=_check_law,
        ),
        Workload(
            name="subspace-1e5",
            threads=2,
            commands=(("subspace", "--dim", "100000", "--eps-frac", "0.9", "--states", "2000"),),
            warmup=(("subspace", "--dim", "100000", "--eps-frac", "0.9", "--states", "64"),),
            states_per_iteration=2000,
            check=_check_subspace,
        ),
    )
}
