import numpy as np
import pytest

from cohlab import experiments


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_state_vector(dim, rng):
    """Unit complex vector built independently of the package samplers."""
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


@pytest.fixture
def chunk_workers(monkeypatch):
    """``chunk_workers(cpus, min_dim=1)`` sets the usable CPU count and the
    chunk runner's parallel cutoff (by default every dimension runs on up to
    ``cpus`` threads; ``cpus=1`` runs serially).  It returns the worker
    counts of the thread pools made since the fixture started."""
    pools = []
    pool_class = experiments.futures.ThreadPoolExecutor

    def pool(max_workers):
        pools.append(max_workers)
        return pool_class(max_workers=max_workers)

    monkeypatch.setattr(experiments.futures, "ThreadPoolExecutor", pool)

    def set_workers(cpus, min_dim=1):
        monkeypatch.setattr(experiments, "_PARALLEL_MIN_DIM", min_dim)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        return pools

    return set_workers
