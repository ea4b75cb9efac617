import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare

from framemeasures import (
    FrameChain,
    build_chain,
    build_frame,
    markov,
    orthonormal_basis_frame,
    path_probability,
    sample_path_indices,
    start_distribution,
    streams,
)
from framemeasures.errors import (
    IndexOutOfRange,
    InvalidChain,
    InvalidEnsembleSize,
    NotAFrame,
    ZeroFrameVector,
    ZeroVector,
)
from framemeasures.streams import STREAM_MARKOV, uniform_columns
from conftest import random_spanning_frame


class TestNormalizer:
    # c(x) = sum_n <x, phi_n>^2: the chain holds c(phi_j), and
    # start_distribution divides by c(x)
    def test_onb(self, onb2):
        np.testing.assert_allclose(build_chain(onb2).normalizers, [1.0, 1.0])

    def test_mb(self, mb):
        # direct: 1 + 1/4 + 1/4 for every frame vector
        np.testing.assert_allclose(build_chain(mb).normalizers, 1.5, rtol=1e-14)

    def test_quadratic_scaling(self, mb):
        # c is quadratic in x and in the frame, so scaling the frame by t
        # scales c(phi_j) by t^4 and leaves the transitions as they were
        base = build_chain(mb)
        for t in (2.0, -3.5, 0.125):
            scaled = build_chain(build_frame(t * mb.vectors))
            np.testing.assert_allclose(scaled.normalizers, t**4 * base.normalizers, rtol=1e-12)
            np.testing.assert_allclose(scaled.transition_matrix, base.transition_matrix,
                                       rtol=1e-12)

    def test_zero_rejected(self, mb):
        with pytest.raises(ZeroVector):
            start_distribution(build_chain(mb), [0.0, 0.0])

    def test_bounded_by_frame_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            f = build_frame(random_spanning_frame(rng))
            c = build_chain(f).normalizers
            nsq = (f.vectors**2).sum(axis=1)
            assert np.all(f.lower_bound * nsq - 1e-10 <= c)
            assert np.all(c <= f.upper_bound * nsq + 1e-10)


class TestTransitionProb:
    # p(x, phi_j) = <x, phi_j>^2 / c(x) is entry j of start_distribution
    def test_onb_self(self, onb2):
        np.testing.assert_array_equal(start_distribution(build_chain(onb2), [1.0, 0.0]),
                                      [1.0, 0.0])

    def test_mb_pair(self, mb):
        # <phi0, phi1>^2 / c(phi0) = (1/4) / 1.5
        p = start_distribution(build_chain(mb), mb.vectors[0])[1]
        assert p == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_orthogonal(self, onb2):
        assert start_distribution(build_chain(onb2), [2.0, 0.0])[1] == 0.0

    def test_scale_invariance_in_x(self, mb):
        chain = build_chain(mb)
        x = np.random.default_rng(3).normal(size=2)
        base = start_distribution(chain, x)
        for t in (5.0, -0.25):
            np.testing.assert_allclose(start_distribution(chain, t * x), base, rtol=1e-12)

    def test_normalization_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            f = build_frame(random_spanning_frame(rng))
            p = start_distribution(build_chain(f), rng.normal(size=f.dim))
            assert np.all(p <= (f.vectors**2).sum(axis=1) / f.lower_bound + 1e-12)


class TestBuildChain:
    def test_onb_identity(self, onb2):
        chain = build_chain(onb2)
        np.testing.assert_allclose(chain.transition_matrix, np.eye(2), atol=1e-15)

    def test_mb_rows(self, mb):
        chain = build_chain(mb)
        expected = np.full((3, 3), 1.0 / 6.0)
        np.fill_diagonal(expected, 2.0 / 3.0)
        np.testing.assert_allclose(chain.transition_matrix, expected, rtol=1e-13)

    def test_zero_vector_rejected(self):
        f = build_frame([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ZeroFrameVector):
            build_chain(f)

    def test_not_a_frame_rejected(self):
        with pytest.raises(NotAFrame):
            build_chain(build_frame([[1.0, 0.0], [2.0, 0.0]]))

    def chain_of(self, frame, p, c=None):
        p = np.array(p, dtype=float)
        c = np.ones(len(p)) if c is None else np.array(c, dtype=float)
        return FrameChain(frame=frame, normalizers=c, transition_matrix=p)

    def test_row_sum_rejected(self, onb2):
        with pytest.raises(InvalidChain, match="do not sum to 1"):
            self.chain_of(onb2, [[0.5, 0.4], [0.5, 0.5]])

    def test_negative_entry_rejected(self, onb2):
        with pytest.raises(InvalidChain, match="negative"):
            self.chain_of(onb2, [[1.5, -0.5], [-0.5, 1.5]])

    def test_detailed_balance_rejected(self, onb2):
        with pytest.raises(InvalidChain, match="detailed balance"):
            self.chain_of(onb2, [[0.5, 0.5], [0.25, 0.75]])

    def test_normalization_bound_rejected(self):
        # alpha = 1 and ||phi_3||^2 = 0.01, so P[j, 3] = 1/4 breaks the bound
        frame = build_frame([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.1]])
        with pytest.raises(InvalidChain, match="normalization bound"):
            self.chain_of(frame, np.full((4, 4), 0.25))

    def test_invariants_random(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            chain = build_chain(build_frame(random_spanning_frame(rng)))
            p = chain.transition_matrix
            c = chain.normalizers
            assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12
            flux = c[:, None] * p
            scale = np.maximum(np.maximum(np.abs(flux), np.abs(flux.T)), 1e-300)
            assert (np.abs(flux - flux.T) / scale).max() <= 1e-12
            norms_sq = (chain.frame.vectors**2).sum(axis=1)
            assert (p - norms_sq[None, :] / chain.frame.lower_bound).max() <= 1e-12

    def test_residuals_kept_from_construction(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            chain = build_chain(build_frame(random_spanning_frame(rng)))
            p = chain.transition_matrix
            flux = chain.normalizers[:, None] * p
            scale = np.maximum(np.maximum(np.abs(flux), np.abs(flux.T)), 1e-300)
            norms_sq = (chain.frame.vectors**2).sum(axis=1)
            assert chain.row_sum_residual == np.abs(p.sum(axis=1) - 1.0).max()
            assert chain.reversibility_rel_residual == (np.abs(flux - flux.T) / scale).max()
            assert chain.bound_residual == (p - norms_sq[None, :] / chain.frame.lower_bound).max()


class TestPathProbability:
    def test_onb_repeat(self, onb2):
        chain = build_chain(onb2)
        assert path_probability(chain, [1.0, 0.0], [0, 0, 0]) == pytest.approx(1.0)

    def test_mb_two_step(self, mb):
        chain = build_chain(mb)
        # (2/3) * (1/6) with 0-based indices
        p = path_probability(chain, mb.vectors[0], [0, 1])
        assert p == pytest.approx(1.0 / 9.0, rel=1e-13)

    def test_orthogonal_step_kills_path(self):
        f = build_frame([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        chain = build_chain(f)
        assert path_probability(chain, [1.0, 0.0], [0, 1]) == 0.0

    def test_bad_inputs(self, mb):
        chain = build_chain(mb)
        with pytest.raises(IndexOutOfRange):
            path_probability(chain, [1.0, 0.0], [3])
        with pytest.raises(IndexOutOfRange):
            path_probability(chain, [1.0, 0.0], [])
        with pytest.raises(ZeroVector):
            path_probability(chain, [0.0, 0.0], [0])


class TestSampling:
    def test_onb_deterministic(self, onb2):
        chain = build_chain(onb2)
        idx, probs = sample_path_indices(chain, [1.0, 0.0], k=4, m=50, seed=9)
        assert idx.shape == (50, 4) and (idx == 0).all()
        np.testing.assert_allclose(probs, 1.0)

    def test_first_step_frequency(self, mb):
        # binomial CI oracle around p = 2/3 at m = 1e5
        chain = build_chain(mb)
        m = 100_000
        idx, _ = sample_path_indices(chain, mb.vectors[0], 1, m, seed=12)
        p_hat = float((idx[:, 0] == 0).mean())
        sigma = np.sqrt((2 / 3) * (1 / 3) / m)
        assert abs(p_hat - 2 / 3) <= 3 * sigma

    def test_probabilities_match_recompute_bitwise(self, mb):
        chain = build_chain(mb)
        x = np.array([0.3, 1.1])
        idx, probs = sample_path_indices(chain, x, k=3, m=200, seed=4)
        for path, prob in zip(idx, probs):
            assert prob == path_probability(chain, x, path)

    def test_determinism_and_prefix(self, mb):
        chain = build_chain(mb)
        a, pa = sample_path_indices(chain, mb.vectors[0], 2, 500, seed=77)
        b, pb = sample_path_indices(chain, mb.vectors[0], 2, 500, seed=77)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(pa, pb)
        c, _ = sample_path_indices(chain, mb.vectors[0], 2, 100, seed=77)
        np.testing.assert_array_equal(a[:100], c)

    def test_seed_changes_paths(self, mb):
        chain = build_chain(mb)
        a, _ = sample_path_indices(chain, mb.vectors[0], 2, 500, seed=1)
        b, _ = sample_path_indices(chain, mb.vectors[0], 2, 500, seed=2)
        assert not np.array_equal(a, b)

    def test_rejects_bad_counts(self, mb):
        chain = build_chain(mb)
        with pytest.raises(ValueError):
            sample_path_indices(chain, [1.0, 0.0], k=2, m=0, seed=0)
        with pytest.raises(ValueError):
            sample_path_indices(chain, [1.0, 0.0], k=0, m=1, seed=0)

    def test_path_count_below_one(self, mb):
        with pytest.raises(InvalidEnsembleSize, match="path count"):
            sample_path_indices(build_chain(mb), [1.0, 0.0], k=2, m=0, seed=0)

    def test_horizon_below_one(self, mb):
        with pytest.raises(InvalidEnsembleSize, match="horizon"):
            sample_path_indices(build_chain(mb), [1.0, 0.0], k=0, m=1, seed=0)

    def test_length2_chi_square(self, mb):
        chain = build_chain(mb)
        m = 200_000
        idx, _ = sample_path_indices(chain, mb.vectors[0], 2, m, seed=31)
        codes = idx[:, 0] * 3 + idx[:, 1]
        counts = np.bincount(codes, minlength=9)
        expected = np.array(
            [
                path_probability(chain, mb.vectors[0], [a, b])
                for a in range(3)
                for b in range(3)
            ]
        )
        result = chisquare(counts, expected * m)
        assert result.pvalue >= 0.001

    def test_length2_chi_square_asymmetric_frame(self):
        # an asymmetric frame exposes row-indexing mistakes the symmetric
        # Mercedes-Benz chain would mask
        rng = np.random.default_rng(59)
        frame = build_frame(rng.normal(size=(4, 2)))
        chain = build_chain(frame)
        x = rng.normal(size=2)
        m = 200_000
        idx, _ = sample_path_indices(chain, x, 2, m, seed=32)
        counts = np.bincount(idx[:, 0] * 4 + idx[:, 1], minlength=16)
        expected = np.array(
            [
                path_probability(chain, x, [a, b])
                for a in range(4)
                for b in range(4)
            ]
        )
        keep = expected * m >= 5  # merge sparse cells for chi-square validity
        obs = np.append(counts[keep], counts[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum()) * m
        result = chisquare(obs[exp > 0], exp[exp > 0])
        assert result.pvalue >= 0.001


# integer vectors: every Gram product is exact, whatever the BLAS; the
# orthogonal pairs give zero transitions, hence repeated CDF values
INTEGER_FRAME = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 2], [2, 0, -1], [0, 3, 1]]


def gather_reference(chain, x, k, m, seed):
    """The earlier sampler: each step gathers every path's whole CDF row
    and counts the partial sums below its uniform."""
    start = start_distribution(chain, x)
    p = chain.transition_matrix
    n = chain.n_states
    # positions [0, mk), read as units of width 1
    u = uniform_columns(seed, 0, m * k, STREAM_MARKOV, np.empty((1, m * k))).reshape(m, k)
    cum_rows = np.cumsum(p, axis=1)
    idx = np.empty((m, k), dtype=np.int64)
    idx[:, 0] = np.minimum((np.cumsum(start) < u[:, 0, None]).sum(axis=1), n - 1)
    prob = start[idx[:, 0]].copy()
    for step in range(1, k):
        prev = idx[:, step - 1]
        idx[:, step] = np.minimum((cum_rows[prev] < u[:, step, None]).sum(axis=1), n - 1)
        prob *= p[prev, idx[:, step]]
    return idx, prob


class TestSamplerBits:
    def assert_matches_reference(self, chain, x, k, m, seed):
        idx, prob = sample_path_indices(chain, x, k, m, seed)
        ref_idx, ref_prob = gather_reference(chain, x, k, m, seed)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(prob.view(np.uint64), ref_prob.view(np.uint64))

    # at n = 300 the gather's flat position prev * n + state passes 2^16,
    # so arithmetic done in the uint16 of the stored indices would wrap
    @pytest.mark.parametrize("n", [3, 5, 17, 64, 300])
    def test_random_chains(self, n):
        rng = np.random.default_rng(100 + n)
        dim = min(n, 8)
        chain = build_chain(build_frame(rng.normal(size=(n, dim))))
        self.assert_matches_reference(chain, rng.normal(size=dim), 6, 4000, seed=n)

    def test_identity_chain(self):
        chain = build_chain(orthonormal_basis_frame(5))
        self.assert_matches_reference(chain, [0.0, 1.0, 1.0, 0.0, 2.0], 5, 3000, seed=8)

    def test_zero_transitions(self):
        chain = build_chain(build_frame(INTEGER_FRAME))
        assert (chain.transition_matrix == 0.0).sum() >= 14
        for x in ([1.0, 2.0, -1.0], [0.0, 0.0, 1.0]):
            self.assert_matches_reference(chain, x, 8, 20_000, seed=9)

    @pytest.mark.parametrize(
        "x, k, m, seed, digest",
        [
            ([1, 2, -1], 6, 20_000, 5,
             "1381a8e5e7f3b37bd66fd5c2c73e1c39b1d2fc7c9794f7ba0dd9d781ac919d56"),
            ([0, 0, 1], 4, 5_000, 6,
             "8547a9269a5e990397b2ab0fc7385c827b4d25daa1269297bca284c6969b4ec5"),
        ],
    )
    def test_paths_are_pinned(self, x, k, m, seed, digest):
        chain = build_chain(build_frame(INTEGER_FRAME))
        idx, prob = sample_path_indices(chain, np.array(x, dtype=float), k, m, seed)
        # widened, so the digest pins the index values, not their dtype
        wide = idx.astype(np.int64)
        assert hashlib.sha256(wide.tobytes() + prob.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n", [7, 64])
    def test_chunk_size_changes_no_bit(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        vectors = INTEGER_FRAME if n == 7 else rng.normal(size=(n, 8))
        chain = build_chain(build_frame(vectors))
        x = rng.normal(size=chain.frame.dim)
        idx, prob = sample_path_indices(chain, x, 5, 40, seed=n)
        monkeypatch.setattr(markov, "PATH_CHUNK", 7)
        small_idx, small_prob = sample_path_indices(chain, x, 5, 40, seed=n)
        np.testing.assert_array_equal(small_idx, idx)
        np.testing.assert_array_equal(small_prob.view(np.uint64), prob.view(np.uint64))

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_chunks_on_the_pool_change_no_bit(self, threads, monkeypatch):
        # ten chunks of 7 paths and a last one of 3, run on up to 3 workers,
        # against the serial loop; each chunk writes its own rows
        monkeypatch.setenv("FRAMES_THREADS", threads)
        monkeypatch.setattr(markov, "PATH_CHUNK", 7)
        rng = np.random.default_rng(26)
        chain = build_chain(build_frame(rng.normal(size=(17, 6))))
        x = rng.normal(size=6)
        idx, prob = sample_path_indices(chain, x, 5, 73, seed=26)
        ref_idx, ref_prob = gather_reference(chain, x, 5, 73, seed=26)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(prob.view(np.uint64), ref_prob.view(np.uint64))
        # the suite's path_probability_recompute_residual
        assert np.abs(path_probability(chain, x, idx) - prob).max() == 0.0

    @pytest.mark.parametrize("n, dtype", [(3, np.uint8), (64, np.uint8), (256, np.uint8),
                                          (257, np.uint16), (300, np.uint16)])
    def test_indices_are_narrow(self, n, dtype):
        rng = np.random.default_rng(n)
        chain = build_chain(build_frame(rng.normal(size=(n, 2))))
        idx, _ = sample_path_indices(chain, rng.normal(size=2), 3, 50, seed=n)
        assert idx.dtype == dtype

    def test_output_bytes(self):
        # 200k paths of 8 steps over 64 states: one byte per index and a
        # double per path, 3.2 MB (14.4 MB with int64 indices)
        rng = np.random.default_rng(64)
        chain = build_chain(build_frame(rng.normal(size=(64, 16))))
        idx, prob = sample_path_indices(chain, rng.normal(size=16), 8, 200_000, seed=64)
        assert idx.nbytes + prob.nbytes == 3_200_000

    def test_memory_is_output_sized(self):
        # 200k paths over 64 states: the output takes 3.1 MiB and each
        # chunk of paths in flight about 1 MiB, a 5.2 MiB peak on two
        # threads (16 MiB with int64 indices); drawing every uniform up
        # front peaked at 32 MiB, gathering an (m, n) CDF block per step
        # at 223 MiB
        rng = np.random.default_rng(64)
        chain = build_chain(build_frame(rng.normal(size=(64, 16))))
        x = rng.normal(size=16)
        tracemalloc.start()
        try:
            idx, _ = sample_path_indices(chain, x, 8, 200_000, seed=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert idx.shape == (200_000, 8)
        assert peak <= 48 * 2**20

    def test_long_paths_hold_no_raw_chunk(self, monkeypatch):
        # horizon 64, four chunks on two threads: besides the output and
        # the two lent (64, PATH_CHUNK) uniform buffers, 1.0 MiB, a piece
        # of raw outputs per block in flight; a whole chunk's raw outputs
        # in each took 8.0 MiB
        monkeypatch.setattr(streams, "worker_count", lambda: 2)
        rng = np.random.default_rng(65)
        chain = build_chain(build_frame(rng.normal(size=(16, 4))))
        x = rng.normal(size=4)
        k, m = 64, 4 * markov.PATH_CHUNK
        tracemalloc.start()
        try:
            idx, prob = sample_path_indices(chain, x, k, m, seed=65)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lent = 2 * k * markov.PATH_CHUNK * 8
        assert peak - idx.nbytes - prob.nbytes - lent < 2 * 2**20
