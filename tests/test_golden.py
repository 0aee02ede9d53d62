"""Golden payloads: cross-version pins of the stream and kernel contract.

The other tests pin self-consistency only (thread invariance, repeated
runs); these pin the actual bytes, so a silent change of a stream, a
sampler or a measure kernel fails here.  Each case is the SHA-256 of
``json.dumps(payload, sort_keys=True)`` of one campaign, or a ``repr`` of
one number, stored in ``tests/golden/payloads.json``.

The file also records the stream contract version
(:data:`cohlab.streams.STREAM_VERSION`) its cases were generated under.
Two rules:

* A hash changes only by a deliberate, documented stream or kernel
  change, which bumps ``STREAM_VERSION``.  Regenerate with
  ``PYTHONPATH=src python tests/test_golden.py`` in the same change, and
  say in CHANGES.md which cases moved and why.  The regeneration refuses
  to move a case without a bump, and ``test_golden_stream_version`` fails
  on a bump without a regeneration.
* A refactor that claims to keep payloads passes these tests unchanged.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from cohlab.cli import main
from cohlab.experiments import (
    MEASURE_KINDS,
    _decomposition_averages,
    first_prob_samples,
    ks_distance_u11,
    run_decomposition_check,
    run_inequality_sweep,
    run_matrix_integral_check,
    subspace_cr_samples,
)
from cohlab.streams import STREAM_VERSION

GOLDEN = Path(__file__).with_name("golden") / "payloads.json"
SEED = 20260810


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _payload_sha(payload: dict) -> str:
    return _sha(json.dumps(payload, sort_keys=True).encode())


def _cli_payload(argv: list[str]) -> str:
    # the CLI prints the envelope to stdout; only its payload is seed-determined
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--seed", str(SEED)])
    assert code == 0
    return _payload_sha(json.loads(out.getvalue())["payload"])


def _concentrate(kind: str, dim: int):
    trials = {2: 5000, 20: 5000, 1000: 2500}[dim]
    argv = ["concentrate", "--measure", kind, "--dim", str(dim), "--trials", str(trials)]
    return lambda: _cli_payload([*argv, "--eps", "0.05,0.2", "--bins", "20"])


CASES = {
    **{f"concentrate-{k}-d{d}": _concentrate(k, d) for k in MEASURE_KINDS for d in (2, 20, 1000)},
    "subspace-d34000": lambda: _cli_payload(
        ["subspace", "--dim", "34000", "--eps-frac", "0.99", "--states", "100"]
    ),
    # its minimum C_r moved by 1 ulp when v3 summed each state's entropy
    # over fixed column blocks, and again when v4 built the probabilities of
    # s <= 4 states as quadratic forms
    "subspace-d34000-states400": lambda: _cli_payload(
        ["subspace", "--dim", "34000", "--eps-frac", "0.99", "--states", "400"]
    ),
    # s = 6: the real-form projection, squared and folded
    "subspace-d100000-s6": lambda: _cli_payload(
        ["subspace", "--dim", "100000", "--eps-frac", "0.999", "--states", "50"]
    ),
    # the subspace payloads above see only the least C_r, which may keep its
    # bytes while the others move; these hash every state's C_r (s = 2, the
    # benchmark's s = 4, and s = 6 on the real-form side)
    **{
        name: (lambda dim=dim, frac=frac, n=n: _sha(
            subspace_cr_samples(dim, frac * math.log(dim), n, SEED).tobytes()
        ))
        for name, dim, frac, n in (
            ("subspace-cr-d34000", 34000, 0.99, 300),
            ("subspace-cr-d100000-s4", 100000, 0.9, 200),
            ("subspace-cr-d100000-s6", 100000, 0.999, 100),
        )
    },
    **{
        f"sweep-d{d}": (
            lambda d=d: _payload_sha(
                dataclasses.asdict(run_inequality_sweep(d, 3000, SEED))
            )
        )
        for d in (1, 2, 20, 1000)
    },
    # moved when v7 computed the subspace frame by Cholesky QR; the
    # subspace cases kept their hashes, though the frame moved by ulps
    "decomposition-d34000": lambda: _payload_sha(
        dataclasses.asdict(run_decomposition_check(34000, 0.99 * math.log(34000), 3, 4, SEED, 2, 2))
    ),
    # the decomposition payload above sees only the least average, which
    # kept its bytes when v9 moved the check into coefficient space; these
    # hash every average (s = 2, and s = 6 on the real-form side)
    **{
        name: (lambda dim=dim, frac=frac: _sha(
            _decomposition_averages(dim, frac * math.log(dim), 3, 4, SEED, 2, 2).tobytes()
        ))
        for name, dim, frac in (
            ("decomposition-averages-d34000", 34000, 0.99),
            ("decomposition-averages-d100000-s6", 100000, 0.999),
        )
    },
    **{
        f"first-prob-d{d}": (lambda d=d: _sha(first_prob_samples(d, 5000, SEED).tobytes()))
        for d in (2, 100)
    },
    **{
        f"matrix-deviation-d{d}": (
            lambda d=d: repr(run_matrix_integral_check(d, 3000, SEED).max_abs_deviation)
        )
        for d in (2, 4, 8)
    },
    "ks-u11-d2": lambda: repr(ks_distance_u11(2, 5000, SEED)),
}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_stream_version(golden):
    assert golden["stream_version"] == STREAM_VERSION


def test_golden_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, golden):
    assert CASES[name]() == golden["cases"][name]


def _regenerate() -> int:
    cases = {name: CASES[name]() for name in sorted(CASES)}
    if GOLDEN.exists():
        old = json.loads(GOLDEN.read_text())
        moved = sorted(n for n, v in old["cases"].items() if n in cases and cases[n] != v)
        if moved and old["stream_version"] == STREAM_VERSION:
            print(
                f"{len(moved)} cases moved under stream_version {STREAM_VERSION!r} "
                f"({', '.join(moved)}); bump cohlab.streams.STREAM_VERSION first",
                file=sys.stderr,
            )
            return 1
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {"stream_version": STREAM_VERSION, "cases": cases}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {len(cases)} cases under stream_version {STREAM_VERSION!r} to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(_regenerate())
