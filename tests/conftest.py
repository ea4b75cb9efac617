import sys
from pathlib import Path

import numpy as np
import pytest

from framemeasures import WhiteNoiseEnsemble, mercedes_benz_frame, orthonormal_basis_frame, streams
from framemeasures.whitenoise import Reduction

# the golden-file tests import tools/payload_diff.py
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))


@pytest.fixture(scope="session")
def mb():
    return mercedes_benz_frame()


@pytest.fixture(scope="session")
def onb2():
    return orthonormal_basis_frame(2)


@pytest.fixture(scope="session")
def ens_small():
    # shared medium ensemble for unit tests: D = 16, M = 2e5
    return WhiteNoiseEnsemble(16, 200_000, seed=20240811)


def random_spanning_frame(rng, dim=None, n=None):
    dim = dim or int(rng.integers(2, 7))
    n = n or int(rng.integers(dim, dim + 6))
    return rng.normal(size=(n, dim))


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def stream_rows(ens):
    """The (M, D) samples of an ensemble, read straight from its stream:
    the reference its passes are compared against."""
    return streams.normal_rows(ens.seed, 0, ens.sample_count, ens.truncation_dim,
                               streams.STREAM_WHITENOISE)


def per_sample(probes, values=lambda p, z: p.T):
    """A test-only reduction to a per-sample array, which the library never
    builds: `values(p, z)` of each tile's pairings p (k, rows) with
    `probes` and coordinates z (rows, D), one row per sample, copied (the
    pass reuses both buffers) and joined in sample order. By default the
    (M, k) pairings."""
    return Reduction(
        np.atleast_2d(probes),
        block=lambda p, z: [values(p, z).copy()],
        finish=lambda parts, m: np.concatenate(parts),
    )
