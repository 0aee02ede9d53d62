"""Isolated layer probes at the workloads' shapes.

Each probe times one public cohlab function on its own, outside any
campaign, and reports the median of a few repetitions per unit of work.
The figures stay comparable when a refactor changes which campaign code
calls the function.  A name that no longer exists reads 0.0.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from cohlab import measures, sampler, streams

REPEATS = 5
KEYS = 4000  # new_generator calls per repetition
NORMALS = 2_000_000  # Philox standard normals per repetition
ELEMENTS = 2_000_000  # probabilities per entropy repetition
ENTROPY_DIMS = (20, 1000, 100000)  # acceptance criterion 1, laws-d1000, subspace-1e5
QR_DIM, QR_STACK = 8, 2048  # one stacked chunk of `verify --suite matrix` at d = 8


def _median_seconds(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_probes(seed: int) -> dict[str, float]:
    out: dict[str, float] = {}
    new_generator = getattr(streams, "new_generator", None)
    rng = np.random.default_rng(seed)

    if new_generator is None:
        out["probe.us_per_key"] = out["probe.ns_per_normal"] = 0.0
    else:

        def keys():
            for i in range(KEYS):
                new_generator(seed, i)

        t = _median_seconds(keys)
        out["probe.us_per_key"] = t / KEYS * 1e6
        gen = new_generator(seed, 0)
        out["probe.ns_per_normal"] = _median_seconds(lambda: gen.standard_normal(NORMALS)) / NORMALS * 1e9

    entropy = getattr(measures, "entropy_from_probs", None)
    for d in ENTROPY_DIMS:
        # Haar diagonals are Dirichlet(1, ..., 1): normalised exponentials
        probs = rng.standard_exponential((ELEMENTS // d, d))
        probs /= probs.sum(axis=1, keepdims=True)
        t = 0.0 if entropy is None else _median_seconds(lambda: entropy(probs))
        out[f"probe.entropy_ns_per_element_d{d}"] = t / probs.size * 1e9

    positive_qr = getattr(sampler, "positive_qr", None)
    z = rng.standard_normal((QR_STACK, QR_DIM, 2 * QR_DIM)).view(np.complex128) / np.sqrt(2.0)
    t = 0.0 if positive_qr is None else _median_seconds(lambda: positive_qr(z))
    out["probe.positive_qr_us_per_matrix"] = t / QR_STACK * 1e6
    return out
