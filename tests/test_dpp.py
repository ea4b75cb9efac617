import hashlib
import itertools
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from framemeasures import (
    build_frame,
    empirical_subset_distribution,
    empty_probability,
    gram,
    inclusion_probability,
    kernel_from_frame,
    kernel_from_matrix,
    sample_masks,
    subset_distribution_bruteforce,
    total_variation,
)
from framemeasures import dpp as dpp_mod
from framemeasures import streams
from framemeasures.dpp import DppKernel, _moebius, _subset_minors
from framemeasures.frames import mercedes_benz_frame
from framemeasures.report import (
    ExperimentConfig,
    _estimate_known_variance,
    mc_estimate,
    mc_record,
)
from framemeasures.suites import _dpp_records
from framemeasures.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidEnsembleSize,
    InvalidKernel,
    NotDeterminantal,
    TooLarge,
)


def random_kernel(rng, n, scale=None):
    a = rng.normal(size=(n, n))
    g = a @ a.T
    top = np.linalg.eigvalsh(g)[-1]
    if scale is None:
        scale = 0.6 + 0.4 * rng.random()
    return kernel_from_matrix(g / top * scale)


def projection_kernel(rng, n):
    """Rank n // 2 projection: half the principal minors vanish."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return kernel_from_matrix(q[:, : n // 2] @ q[:, : n // 2].T)


def frame_kernel(rng, n):
    """Kernel of n vectors in R^d, d = max(1, n // 3), the last one within
    1e-7 of the first: rank d, so most minors vanish."""
    d = max(1, n // 3)
    v = rng.normal(size=(n, d))
    if n > 1:
        v[-1] = v[0] + 1e-7 * rng.normal(size=d)
    return kernel_from_frame(build_frame(v))


def bareiss_det(rows):
    """Exact determinant of a square integer matrix (fraction-free
    Gaussian elimination, a row swap on a zero pivot)."""
    a = [list(r) for r in rows]
    k = len(a)
    sign, prev = 1, 1
    for i in range(k - 1):
        if a[i][i] == 0:
            swap = next((r for r in range(i + 1, k) if a[r][i]), None)
            if swap is None:
                return 0
            a[i], a[swap] = a[swap], a[i]
            sign = -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[-1][-1] if k else 1


def exact_minors(kernel):
    """det(K_S) of the float kernel's entries for every subset S, as exact
    fractions indexed by bitmask: the entries times their common
    power-of-two denominator are integers."""
    entries = [[Fraction(float(x)) for x in row] for row in kernel.matrix]
    den = max((x.denominator for row in entries for x in row), default=1)
    ints = [[int(x * den) for x in row] for row in entries]
    out = []
    for code in range(1 << kernel.size):
        idx = [i for i in range(kernel.size) if code >> i & 1]
        det = bareiss_det([[ints[i][j] for j in idx] for i in idx])
        out.append(Fraction(det, den ** len(idx)))
    return out


def restrict(table, keep):
    """The marginal on the indices `keep` (ascending) of a subset table
    indexed by bitmask."""
    n = table.size.bit_length() - 1
    # axis j of the cube is bit n - 1 - j of the code
    cube = table.reshape((2,) * n)
    return cube.sum(axis=tuple(n - 1 - i for i in range(n) if i not in keep)).ravel()


# Reflections I - u u^T / 2 of 0/1 vectors with four ones, multiplied in order.
REFLECTIONS = ((0, 1, 2, 3), (3, 6, 9, 11), (8, 9, 10, 11), (11, 13, 15, 17), (12, 14, 16, 17))


def dyadic_kernel(n):
    """Kernel given by its eigendecomposition: orthogonal eigenvectors and
    eigenvalues with few binary digits, so the sampler's projection kernels
    are exact and its draws do not depend on the BLAS library."""
    v = np.eye(n)
    for support in REFLECTIONS:
        if max(support) < n:
            u = np.zeros(n)
            u[list(support)] = 1.0
            v = v @ (np.eye(n) - np.outer(u, u) / 2.0)
    lam = (np.arange(n) * 7 % 16 + 0.5) / 16.0
    return DppKernel(matrix=(v * lam) @ v.T, eigenvalues=lam, eigenvectors=v)


def reference_masks(kernel, m, seed):
    """The sampler on one thread, with per-draw (block, n, n) `einsum`
    kernels and the Schur update as one expression, in blocks of 10^6 / n^2
    draws."""
    n = kernel.size
    lam = kernel.eigenvalues.copy()
    lam[np.abs(lam) <= dpp_mod.EIGENVALUE_CLAMP] = 0.0
    lam[np.abs(lam - 1.0) <= dpp_mod.EIGENVALUE_CLAMP] = 1.0
    v = kernel.eigenvectors
    out = np.empty((m, n), dtype=bool)
    block = max(1, 1_000_000 // (n * n))
    for lo in range(0, m, block):
        hi = min(m, lo + block)
        # positions [lo*2n, hi*2n), read as units of width 1
        u = streams.uniform_columns(seed, lo * 2 * n, hi * 2 * n, streams.STREAM_DPP,
                                    np.empty((1, (hi - lo) * 2 * n)))
        u = u.reshape(hi - lo, 2 * n)
        keep = (u[:, :n] < lam[None, :]).astype(float)
        proj = np.einsum("ik,mk,jk->mij", v, keep, v, optimize=True)
        for t in range(n):
            p = np.clip(proj[:, t, t], 0.0, 1.0)
            inc = u[:, n + t] < p
            out[lo:hi, t] = inc
            if t == n - 1:
                break
            denom = np.where(inc, np.maximum(p, 1e-12), np.minimum(p - 1.0, -1e-12))
            col = proj[:, t + 1 :, t]
            row = proj[:, t, t + 1 :]
            proj[:, t + 1 :, t + 1 :] -= col[:, :, None] * row[:, None, :] / denom[:, None, None]
    return out


class TestKernelConstruction:
    def test_onb_identity(self, onb2):
        k = kernel_from_frame(onb2)
        np.testing.assert_allclose(k.matrix, np.eye(2), atol=1e-14)

    def test_mb_spectrum(self, mb):
        # tight frame: Gramian eigenvalues are {0, beta, beta}, so K = G/beta
        # has spectrum {0, 1, 1}
        k = kernel_from_frame(mb)
        np.testing.assert_allclose(np.sort(k.eigenvalues), [0.0, 1.0, 1.0], atol=1e-12)

    def test_repeated_vector(self):
        f = build_frame([[1.0, 0.0], [1.0, 0.0]])
        k = kernel_from_frame(f)
        np.testing.assert_allclose(k.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)
        np.testing.assert_allclose(np.sort(k.eigenvalues), [0.0, 1.0], atol=1e-12)

    def test_strict_gram_mode(self, mb):
        # an unnormalized Gramian is a kernel only if its spectrum fits [0, 1]
        with pytest.raises(ValueError):
            kernel_from_matrix(gram(mb).entries)  # spectrum reaches 1.5
        small = build_frame(np.asarray(mb.vectors) / 2.0)
        kernel_from_matrix(gram(small).entries)  # spectrum {0, 0.375} fits

    def test_rejects_asymmetric_and_wide_spectrum(self):
        with pytest.raises(ValueError):
            kernel_from_matrix([[0.5, 0.2], [0.3, 0.5]])
        with pytest.raises(ValueError):
            kernel_from_matrix([[1.2, 0.0], [0.0, 0.5]])

    @pytest.mark.parametrize("k", [
        [[0.5, 0.2], [0.3, 0.5]], [[1.2, 0.0], [0.0, 0.5]], [[0.5, 0.0]], [0.5, 0.5],
    ])
    def test_invalid_kernel_is_typed(self, k):
        with pytest.raises(InvalidKernel) as info:
            kernel_from_matrix(k)
        assert isinstance(info.value, ValueError)


class TestInclusionProbability:
    def test_empty_set(self, onb2):
        k = kernel_from_frame(onb2)
        assert inclusion_probability(k, ()) == 1.0

    def test_identity_block(self, onb2):
        k = kernel_from_frame(onb2)
        assert inclusion_probability(k, (0, 1)) == pytest.approx(1.0)

    def test_diagonal_minors(self):
        k = kernel_from_matrix(np.diag([0.5, 0.5]))
        assert inclusion_probability(k, (0,)) == pytest.approx(0.5)
        assert inclusion_probability(k, (0, 1)) == pytest.approx(0.25)

    def test_out_of_range(self, onb2):
        k = kernel_from_frame(onb2)
        with pytest.raises(IndexOutOfRange):
            inclusion_probability(k, (2,))
        with pytest.raises(IndexOutOfRange):
            inclusion_probability(k, (1, 1))
        with pytest.raises(IndexOutOfRange):
            inclusion_probability(k, (1, 0))
        with pytest.raises(IndexOutOfRange):
            inclusion_probability(k, (-1,))

    def test_monotone_in_inclusion(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            k = random_kernel(rng, 4)
            for code_s in range(16):
                s = tuple(i for i in range(4) if code_s >> i & 1)
                ps = inclusion_probability(k, s)
                for j in range(4):
                    if j in s:
                        continue
                    t = tuple(sorted(s + (j,)))
                    pt = inclusion_probability(k, t)
                    assert ps >= pt - 1e-10


class TestBruteforce:
    def test_identity_selects_everything(self):
        k = kernel_from_matrix(np.eye(2))
        table = subset_distribution_bruteforce(k)
        np.testing.assert_allclose(table, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_independent_bernoulli(self):
        k = kernel_from_matrix(np.diag([0.5, 0.5]))
        table = subset_distribution_bruteforce(k)
        np.testing.assert_allclose(table, [0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_zero_kernel(self):
        k = kernel_from_matrix(np.zeros((2, 2)))
        table = subset_distribution_bruteforce(k)
        np.testing.assert_allclose(table, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_size_cap(self):
        k = kernel_from_matrix(np.eye(21) * 0.5)
        with pytest.raises(TooLarge):
            subset_distribution_bruteforce(k)
        with pytest.raises(TooLarge):
            _subset_minors(k)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_batched_minors_equal_per_subset_det(self, n):
        # each minor is the exact determinant of its submatrix of the float
        # entries to within 2^-52
        rng = np.random.default_rng(40 + n)
        for k in (random_kernel(rng, n), projection_kernel(rng, n), frame_kernel(rng, n)):
            got = _subset_minors(k)
            worst = max(abs(Fraction(float(x)) - e) for x, e in zip(got, exact_minors(k)))
            assert worst <= np.finfo(float).eps

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_null_pivots_give_exact_zeros(self, n):
        # a pivot <= 0 zeroes its include branch: no division by 0, no
        # negative minor, and a zero row zeroes every minor it enters
        rng = np.random.default_rng(60 + n)
        j = n // 2
        zero_row = random_kernel(rng, n).matrix.copy()
        zero_row[j] = zero_row[:, j] = 0.0
        codes = np.arange(1 << n)
        with np.errstate(all="raise"):
            minors = _subset_minors(kernel_from_matrix(zero_row))
            assert np.all(minors[codes >> j & 1 == 1] == 0.0)
            assert np.all(minors[codes >> j & 1 == 0] > 0.0)
            np.testing.assert_array_equal(
                _subset_minors(kernel_from_matrix(np.zeros((n, n)))), codes == 0
            )
            np.testing.assert_array_equal(_subset_minors(kernel_from_matrix(np.eye(n))), 1.0)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            for r in range(1, n):
                k = kernel_from_matrix(q[:, :r] @ q[:, :r].T)
                minors = _subset_minors(k)
                assert np.all(np.isfinite(minors)) and minors.min() >= 0.0
                # a rank-r projection puts exactly r points in every draw
                table = _moebius(minors)
                assert table[np.bitwise_count(codes) != r].sum() <= 1e-12

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_restriction_is_determinantal(self, n):
        # the marginal of DPP(K) on A is DPP(K_A); A leaves out index 0, so
        # the tree reaches K_A's minors by other paths than K_A's own tree
        rng = np.random.default_rng(70 + n)
        for k in (random_kernel(rng, n), projection_kernel(rng, n), frame_kernel(rng, n)):
            table = subset_distribution_bruteforce(k)
            for size in {1, (n + 1) // 2, n - 1}:
                keep = sorted(rng.choice(np.arange(1, n), size, replace=False).tolist())
                want = subset_distribution_bruteforce(kernel_from_matrix(k.matrix[np.ix_(keep, keep)]))
                np.testing.assert_allclose(restrict(table, keep), want, rtol=0, atol=1e-12)

    def test_moebius_leaves_minors_and_refuses_negative_mass(self):
        k = random_kernel(np.random.default_rng(15), 5)
        minors = _subset_minors(k)
        kept = minors.copy()
        np.testing.assert_array_equal(_moebius(minors), subset_distribution_bruteforce(k))
        np.testing.assert_array_equal(minors, kept)
        minors[3] = -1e-6
        with pytest.raises(NotDeterminantal) as info:
            _moebius(minors)
        assert isinstance(info.value, ValueError)
        minors[3] = kept[3]
        minors[1] = kept[1] + 1.0  # P(empty set) drops by 1
        with pytest.raises(NotDeterminantal):
            _moebius(minors)

    def test_at_the_cap(self):
        # n = BRUTEFORCE_MAX: 2^20 minors in bounded memory. Measured peak
        # 28 MiB, in the tree: the 8 MiB minors and two levels of the
        # Schur-complement stack, 2^k (20 - k)^2 doubles at level k (9 MiB
        # at k = 17, the largest).
        k = random_kernel(np.random.default_rng(41), 20, scale=0.8)
        tracemalloc.start()
        try:
            table = subset_distribution_bruteforce(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(table.sum() - 1.0) <= 1e-9
        marginals = [table.reshape(-1, 2, 1 << j)[:, 1].sum() for j in range(20)]
        np.testing.assert_allclose(marginals, np.diag(k.matrix), rtol=0, atol=1e-9)
        assert peak <= 96 * 2**20

    def test_complement_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            k = random_kernel(rng, int(rng.integers(1, 6)))
            table = subset_distribution_bruteforce(k)
            assert table[0] == pytest.approx(empty_probability(k), abs=1e-9)
            assert table.sum() == pytest.approx(1.0, abs=1e-9)

    def test_marginals_match_inclusion(self):
        # sum of P(Phi = S) over S containing j equals det(K_{j}) = K_jj
        rng = np.random.default_rng(14)
        k = random_kernel(rng, 4)
        table = subset_distribution_bruteforce(k)
        for j in range(4):
            mask = [(code >> j) & 1 == 1 for code in range(16)]
            assert table[mask].sum() == pytest.approx(k.matrix[j, j], abs=1e-10)


class TestSampling:
    def test_identity_full(self):
        k = kernel_from_matrix(np.eye(3))
        np.testing.assert_array_equal(sample_masks(k, 50, seed=0), np.ones((50, 3), bool))

    def test_zero_empty(self):
        k = kernel_from_matrix(np.zeros((3, 3)))
        np.testing.assert_array_equal(sample_masks(k, 50, seed=0), np.zeros((50, 3), bool))

    def test_bernoulli_frequency(self):
        # binomial CI oracle around P(Phi = {0}) = 1/4
        k = kernel_from_matrix(np.diag([0.5, 0.5]))
        m = 200_000
        masks = sample_masks(k, m, seed=5)
        p_hat = float((masks[:, 0] & ~masks[:, 1]).mean())
        sigma = np.sqrt(0.25 * 0.75 / m)
        assert abs(p_hat - 0.25) <= 3 * sigma

    def test_sampler_matches_oracle_tv(self):
        rng = np.random.default_rng(21)
        m = 200_000
        for trial in range(4):
            k = random_kernel(rng, int(rng.integers(2, 7)))
            table = subset_distribution_bruteforce(k)
            emp = empirical_subset_distribution(sample_masks(k, m, seed=100 + trial))
            assert total_variation(emp, table) <= 0.02

    def test_expected_cardinality(self):
        rng = np.random.default_rng(22)
        k = random_kernel(rng, 5)
        masks = sample_masks(k, 100_000, seed=6)
        card = masks.sum(axis=1).astype(float)
        sigma = card.std(ddof=1) / np.sqrt(card.size)
        assert abs(card.mean() - np.trace(k.matrix)) <= 3 * sigma

    def test_projection_kernel_fixed_cardinality(self, mb):
        # MB kernel is a rank-2 projection: every draw has exactly 2 points
        k = kernel_from_frame(mb)
        masks = sample_masks(k, 5000, seed=7)
        assert np.all(masks.sum(axis=1) == 2)

    def test_determinism_and_block_independence(self):
        rng = np.random.default_rng(23)
        k = random_kernel(rng, 6)
        a = sample_masks(k, 3000, seed=9)
        b = sample_masks(k, 3000, seed=9)
        np.testing.assert_array_equal(a, b)
        # draw i depends only on (seed, i): prefixes agree across m
        c = sample_masks(k, 1000, seed=9)
        np.testing.assert_array_equal(a[:1000], c)

    def test_rejects_bad_count(self, onb2):
        with pytest.raises(ValueError):
            sample_masks(kernel_from_frame(onb2), 0, seed=0)
        with pytest.raises(InvalidEnsembleSize):
            sample_masks(kernel_from_frame(onb2), 0, seed=0)

    @pytest.mark.parametrize("n, digest", [
        (12, "4d502a3f00f6fc436984fcef82f879065b05aca172a9cb9cb006b392571790e6"),
        (18, "0ddd80fb12a9a2081e1e255095497cd6a6631a40c83fc3c777022ab21042edee"),
    ])
    def test_draws_are_pinned(self, n, digest):
        k = dyadic_kernel(n)
        np.testing.assert_array_equal(k.eigenvectors.T @ k.eigenvectors, np.eye(n))
        masks = sample_masks(k, 100_000, seed=n)
        assert hashlib.sha256(masks.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("n, r", [(64, 20), (128, 50)])
    def test_projection_draws_are_certain(self, n, r, threads, monkeypatch):
        # a rank-r projection kernel puts exactly r points in every draw, so
        # each pivot, after sums over up to n - 1 earlier columns, must
        # still come out as 0 or 1 to rounding; 500 draws span several
        # blocks at both sizes
        monkeypatch.setenv("FRAMES_THREADS", threads)
        q, _ = np.linalg.qr(np.random.default_rng(n + r).normal(size=(n, n)))
        k = kernel_from_matrix(q[:, :r] @ q[:, :r].T)
        masks = sample_masks(k, 500, seed=r)
        np.testing.assert_array_equal(masks.sum(axis=1), np.full(500, r))

    def test_block_boundary_reproducibility(self):
        # n = 8 puts the internal draw-block size at 4096: m = 130000
        # spans 32 blocks, and draws must not depend on the chunking
        rng = np.random.default_rng(31)
        k = random_kernel(rng, 8)
        big = sample_masks(k, 130_000, seed=11)
        small = sample_masks(k, 70_000, seed=11)
        np.testing.assert_array_equal(big[:70_000], small)


class TestEmpiricalTable:
    @pytest.mark.parametrize("n", [0, 1, 3, 12, 20])
    def test_equals_the_matrix_product_tabulation(self, n):
        rng = np.random.default_rng(40 + n)
        m = 30_000
        masks = rng.random((m, n)) < rng.random(n)
        masks[0] = True  # code 2^n - 1, the top bit set
        want = np.bincount(masks @ (1 << np.arange(n)), minlength=1 << n) / m
        got = empirical_subset_distribution(masks)
        assert got[-1] > 0
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [1, 7, 50, 30_001])
    def test_counts_in_chunks(self, m, monkeypatch):
        # chunks of 7 draws, the last one short, summed as integer counts
        monkeypatch.setattr(dpp_mod, "TABULATION_CHUNK", 7)
        rng = np.random.default_rng(42)
        masks = rng.random((m, 5)) < rng.random(5)
        want = np.bincount(masks @ (1 << np.arange(5)), minlength=32) / m
        assert empirical_subset_distribution(masks).tobytes() == want.tobytes()

    def test_tabulation_peak_is_one_chunk(self):
        # 10^6 draws at n = 3: one chunk's int32 codes and their intp copy
        # (0.75 MiB measured), where `bincount`'s intp copy of all the
        # codes peaked at 11.4 MiB
        masks = np.random.default_rng(41).random((1_000_000, 3)) < 0.5
        tracemalloc.start()
        try:
            empirical_subset_distribution(masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_tabulation_memory_is_bounded(self):
        # the int64 product of the masks and its codes peaked at 30.5 MiB
        masks = np.random.default_rng(41).random((1_000_000, 3)) < 0.5
        tracemalloc.start()
        try:
            empirical_subset_distribution(masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("masks, named", [
        (np.ones(4, bool), r"shape \(4,\)"),
        ([[True, False]], "list"),
        (np.zeros((0, 3), bool), r"shape \(0, 3\)"),
        (np.array([[2, 0], [1, 1]]), "int64"),
    ], ids=["one_dimensional", "list", "no_draws", "integer_entries"])
    def test_refuses_what_is_not_boolean_draws(self, masks, named):
        with pytest.raises(DimensionMismatch, match=named):
            empirical_subset_distribution(masks)

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            empirical_subset_distribution(np.zeros((2, 21), bool))


class TestPool:
    """The sampler's blocks run on the `streams` pool. Masks equal those of
    the parent's single-thread sampler on the kernels tried here, whatever
    the thread count and the block size."""

    @pytest.mark.parametrize("n, products, draws", [
        (3, 1, 29_127), (7, 1, 5_349), (8, 1, 4_096), (9, 2, 6_472), (12, 2, 3_640), (13, 3, 4_653), (16, 4, 4_096),
        (18, 4, 3_236), (64, 4, 256), (400, 3, 6), (547, 2, 4), (548, 1, 2),
    ])
    def test_block_rule(self, n, products, draws):
        # one product where one holds BLOCK_DRAWS draws (n <= 8); from
        # n = 548 on a block is one product of two draws
        width = dpp_mod._product_shape(n)[1]
        assert dpp_mod._block_draws(n) == products * width == draws
        assert (width >= dpp_mod.BLOCK_DRAWS) == (n <= 8)

    def test_block_rule_properties(self):
        # whole products, at least one, with kernels within the budget
        # unless there is one product; the block reaches BLOCK_DRAWS
        # unless one more product would pass the budget
        for n in range(1, 601):
            width = dpp_mod._product_shape(n)[1]
            draws = dpp_mod._block_draws(n)
            products, rest = divmod(draws, width)
            assert rest == 0 and products >= 1, n
            kernels = n * n * draws
            assert kernels <= dpp_mod.SAMPLER_WORKSPACE or products == 1, n
            assert (draws >= dpp_mod.BLOCK_DRAWS
                    or kernels + n * n * width > dpp_mod.SAMPLER_WORKSPACE), n
            assert products == 1 or draws - width < dpp_mod.BLOCK_DRAWS, n

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("n", [*range(1, 19), 32, 64, 100, 400])
    def test_masks_equal_single_thread_reference(self, n, threads, monkeypatch):
        # blocks of `test_block_rule`'s sizes; at n = 400 a block is three
        # products of two draws, each taking 327 of the 400 rows
        monkeypatch.setenv("FRAMES_THREADS", threads)
        rng = np.random.default_rng(500 + n)
        k = random_kernel(rng, n)
        m = 2 * dpp_mod._block_draws(n) + 1  # three blocks, the last one a single draw
        np.testing.assert_array_equal(sample_masks(k, m, seed=n), reference_masks(k, m, n))

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_masks_do_not_depend_on_the_block_size(self, threads, monkeypatch):
        # products of 7 draws, blocks of 7, 70 and 2331 draws
        monkeypatch.setenv("FRAMES_THREADS", threads)
        monkeypatch.setattr(streams, "BLAS_SERIAL_MADDS", 7**3)
        k = projection_kernel(np.random.default_rng(33), 7)
        want = reference_masks(k, 2000, 4)
        for block in (7, 70, 2331):
            monkeypatch.setattr(dpp_mod, "BLOCK_DRAWS", block)
            assert dpp_mod._block_draws(7) == block
            np.testing.assert_array_equal(sample_masks(k, 2000, seed=4), want)

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("n", [3, 12, 18])
    def test_tiny_budget_changes_no_mask(self, n, threads, monkeypatch):
        # a workspace of two doubles leaves one product per block: more
        # tasks, and a last block of five draws
        monkeypatch.setenv("FRAMES_THREADS", threads)
        k = random_kernel(np.random.default_rng(600 + n), n)
        m = 3 * dpp_mod._product_shape(n)[1] + 5
        want = sample_masks(k, m, seed=n)
        monkeypatch.setattr(dpp_mod, "SAMPLER_WORKSPACE", 2)
        np.testing.assert_array_equal(sample_masks(k, m, seed=n), want)

    @pytest.mark.parametrize("n, blocks, extra", [(1, 0, 1), (5, 0, 1), (5, 1, 3), (12, 2, 5)])
    def test_block_reads_only_what_it_writes(self, n, blocks, extra):
        # each block of `sample_masks` on buffers of its width filled with
        # NaN (and decisions all True) before it runs: the last block is
        # short, and at m = 1 its last product reads the spare column
        k = random_kernel(np.random.default_rng(700 + n), n)
        block = dpp_mod._block_draws(n)
        m = blocks * block + extra
        width = min(block, m + 1)
        got = np.empty((m, n), dtype=bool)
        for lo in range(0, m, block):
            lent = (np.full((n, n, width), np.nan), np.full((2 * n, width), np.nan),
                    np.ones((n, width), dtype=bool))
            dpp_mod._sample_block(k, n, lo, got[lo : lo + block], *lent)
        np.testing.assert_array_equal(got, sample_masks(k, m, seed=n))

    def test_minors_do_not_depend_on_threads(self, monkeypatch):
        k = random_kernel(np.random.default_rng(34), 16)
        monkeypatch.setenv("FRAMES_THREADS", "1")
        one = _subset_minors(k)
        monkeypatch.setenv("FRAMES_THREADS", "3")
        np.testing.assert_array_equal(_subset_minors(k), one)

    def test_workspaces_are_not_shared_under_stress(self, monkeypatch):
        # more workers than cores and a short switch interval: a block that
        # wrote into another block's workspace would change its draws; small
        # blocks make many tasks
        monkeypatch.setattr(streams, "worker_count", lambda: 4)
        monkeypatch.setattr(streams, "BLAS_SERIAL_MADDS", 36 * 7)
        monkeypatch.setattr(dpp_mod, "SAMPLER_WORKSPACE", 2 * 36 * 7)
        k = random_kernel(np.random.default_rng(37), 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            masks = sample_masks(k, 3000, seed=8)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(masks, reference_masks(k, 3000, 8))

    @pytest.mark.parametrize("n, m, mib", [(18, 100_000, 24), (160, 30, 12), (3, 10**6, 20)])
    def test_sampler_memory_is_bounded(self, n, m, mib, monkeypatch):
        # On two threads. Per block in flight, a kernel workspace of 2.1 MB
        # (one product of 29,127 draws at n = 3) to 8.4 MB (3236 at n = 18;
        # the 30 draws at n = 160 make one block of 6.3 MB), whose rows and
        # diagonal the steps reuse, the block's keep rows and step uniforms
        # and a chunk of its uniforms; besides, the output: 1.8 MB at
        # n = 18, 3 MB at n = 3, verify-all's sampler. Measured peaks 21.5,
        # 6.7 and 11.8 MiB; at n = 160 an (n^2, n) table of the products
        # v_ik v_jk alone would take 31 MiB.
        monkeypatch.setenv("FRAMES_THREADS", "2")
        k = random_kernel(np.random.default_rng(n + 18), n)
        tracemalloc.start()
        try:
            sample_masks(k, m, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20


class TestSuiteRecords:
    @pytest.mark.parametrize("n, m", [(3, 10**6), (3, 20_000), (7, 20_000)])
    def test_cardinality_record_in_bounded_memory(self, n, m, monkeypatch):
        # verify-all's records at n = 3 hold the masks and no copy of the
        # cardinalities, and the sampler's blocks are one product each:
        # under 14 MiB on two threads (18.6 MiB with float cardinalities
        # and blocks of two products). The record is the cardinalities'
        # mean against the trace, with the exact standard error of the
        # law sampled: sqrt(sum lambda (1 - lambda) / m).
        monkeypatch.setenv("FRAMES_THREADS", "2")
        k = (kernel_from_frame(mercedes_benz_frame()) if m == 10**6
             else random_kernel(np.random.default_rng(70 + n), n))
        cfg = ExperimentConfig(command="dpp", seed=5, samples=m)
        tracemalloc.start()
        try:
            records = _dpp_records(cfg, k, bruteforce=True, draws_csv=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if m == 10**6:
            assert peak < 14 * 2**20
        masks = sample_masks(k, m, seed=5)
        lam = k.keep_probabilities
        est = _estimate_known_variance(m, mc_estimate(masks.sum(axis=1), 0.0).value,
                                       float((lam * (1.0 - lam)).sum()), float(lam.sum()))
        want = mc_record("cardinality_vs_trace", est, cfg.tolerance("z_max"))
        [got] = [r for r in records if r.name == "cardinality_vs_trace"]
        assert got == want
        # a projection kernel's |X| is constant: the zero-variance rule
        assert (est.std_error == 0.0) == (m == 10**6)

    def test_cardinality_record_passes_an_eigenvalue_just_below_one(self):
        # the Mercedes-Benz frame typed to three decimals keeps its middle
        # eigenvector with probability 0.99994133, so a third of the runs
        # of 20,000 draws never drop it and their |X| is constant; a
        # standard error estimated from the sample then read 0, and 13 of
        # these 40 seeds failed a correct sampler
        k = kernel_from_frame(build_frame([[1, 0], [-0.5, 0.866], [-0.5, -0.866]]))
        assert 0.0 < k.keep_probabilities[1] < 1.0 - 5e-5
        constant = 0
        for seed in range(40):
            cfg = ExperimentConfig(command="dpp", seed=seed, samples=20_000)
            [got] = [r for r in _dpp_records(cfg, k, bruteforce=False, draws_csv=None)
                     if r.name == "cardinality_vs_trace"]
            assert got.passed and abs(got.z_score) <= 4.0, (seed, got)
            constant += got.value == 2.0
        assert constant >= 5


class TestMeasureSideChecks:
    def test_principal_minors_nonnegative_random_frames(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            f = build_frame(rng.normal(size=(n, int(rng.integers(1, 4)))))
            k = kernel_from_frame(f)
            for r in range(1, n + 1):
                for s in itertools.combinations(range(n), r):
                    assert inclusion_probability(k, s) >= -1e-10
