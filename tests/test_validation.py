"""One validator per kind of input: flat vectors and coefficient sequences
(`frames.as_vector`), sample points omega and a measure's atoms
(`as_vector` or `as_rows`), square symmetric matrices
(`frames.as_symmetric`) and integers: counts, orders, seeds, stream ids
and indices (`frames.as_count`). Every entry point of a kind refuses non-finite
input with NonFinite, a malformed shape with a typed error and a
non-integer or out-of-range integer with a typed error naming it, never
a NaN result, a truncated value or a bare numpy error."""
import math

import numpy as np
import pytest

import framemeasures as fm
from framemeasures import streams
from framemeasures.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidEnsembleSize,
    InvalidGramian,
    InvalidKernel,
    InvalidWeights,
    KTooLarge,
    NonFinite,
)
from framemeasures.whitenoise import MAX_MOMENT_ORDER

BAD_VALUES = [math.nan, math.inf, -math.inf]
MEASURE_DOC = {"dim": 1, "atoms": [[0.0], [1.0]], "weights": [0.5, 0.5]}

MB = fm.mercedes_benz_frame()
MU = fm.DiscreteMeasure.uniform([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

# each takes a flat vector or coefficient sequence of length 3
VECTOR_INPUTS = {
    "synthesis": lambda c: fm.synthesis(MB, c),
    "verify_riesz_upper": lambda c: fm.verify_riesz_upper(MB, c),
    "prob_analysis": lambda x: fm.prob_analysis(fm.DiscreteMeasure.uniform([[1.0, 0.0, 2.0]]), x),
    "prob_synthesis": lambda f: fm.prob_synthesis(MU, f),
}

# each takes a sample point omega of dimension 3
SAMPLE_POINT_INPUTS = {
    "rn_density": lambda omega: fm.rn_density([1.0, 0.5], omega),
    "cocycle_check": lambda omega: fm.cocycle_check([1.0, 0.5], [0.0, 0.3], omega),
}

MATRIX_INPUTS = {
    "kernel_from_matrix": (fm.kernel_from_matrix, InvalidKernel),
    "GramMatrix": (fm.GramMatrix, InvalidGramian),
}


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("name", VECTOR_INPUTS)
def test_vectors_and_coefficients(name, bad):
    call = VECTOR_INPUTS[name]
    call([0.25, 0.5, 0.25])
    with pytest.raises(NonFinite):
        call([0.25, bad, 0.25])
    with pytest.raises(DimensionMismatch):
        call([0.25, 0.5])
    with pytest.raises(DimensionMismatch):
        call([[0.25, 0.5, 0.25]])


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("name", SAMPLE_POINT_INPUTS)
def test_sample_points(name, bad):
    call = SAMPLE_POINT_INPUTS[name]
    call([0.1, -0.2, 0.3])
    with pytest.raises(NonFinite):
        call([0.1, bad, 0.3])
    with pytest.raises(DimensionMismatch):
        call(0.5)


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("name", MATRIX_INPUTS)
def test_symmetric_matrices(name, bad):
    build, error = MATRIX_INPUTS[name]
    build([[0.5, 0.1], [0.1, 0.5]])
    with pytest.raises(NonFinite):
        build([[bad]])
    with pytest.raises(NonFinite):
        build([[0.5, 0.0], [0.0, bad]])
    with pytest.raises(error, match="nonempty square"):
        build(np.zeros((0, 0)))
    with pytest.raises(error, match="nonempty square"):
        build(np.zeros((2, 3)))
    with pytest.raises(error, match="is not symmetric"):
        build([[0.5, 0.2], [0.3, 0.5]])


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_measure_atoms(bad):
    # a measure's atoms are a stack of vectors: `as_rows`, then (n, d)
    with pytest.raises(NonFinite):
        fm.DiscreteMeasure.uniform([[0.0, 1.0], [bad, 0.0]])
    with pytest.raises(DimensionMismatch):
        fm.DiscreteMeasure.uniform(np.ones((2, 2, 2)))
    with pytest.raises(DimensionMismatch):
        fm.DiscreteMeasure.uniform(np.zeros((0, 2)))
    with pytest.raises(DimensionMismatch):
        fm.DiscreteMeasure.point_mass([[0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        fm.DiscreteMeasure.point_mass("ab")


# malformed input documents, each with the typed error it raises in place
# of numpy's TypeError or ValueError (or a "dim" taken at face value)
DOCUMENTS = {
    "measure document 5": (lambda: fm.measure_from_dict(5), DimensionMismatch),
    "frame vectors 5": (lambda: fm.frame_from_dict({"dim": 2, "vectors": 5}), DimensionMismatch),
    "frame vectors 'ab'": (lambda: fm.frame_from_dict({"dim": 2, "vectors": "ab"}),
                           DimensionMismatch),
    "weights 'a'": (lambda: fm.measure_from_dict(dict(MEASURE_DOC, weights="a")), InvalidWeights),
    "weights null": (lambda: fm.measure_from_dict(dict(MEASURE_DOC, weights=None)),
                     InvalidWeights),
    "normalized weights 'a'": (lambda: fm.DiscreteMeasure.normalized([[0.0]], "a"),
                               InvalidWeights),
    "ragged atoms": (lambda: fm.measure_from_dict(dict(MEASURE_DOC, atoms=[[1], [2, 3]])),
                     DimensionMismatch),
    "ragged kernel": (lambda: fm.kernel_from_matrix([[1, 0], [0]]), InvalidKernel),
    "frame dim true": (lambda: fm.frame_from_dict({"dim": True, "vectors": [[1.0]]}),
                       DimensionMismatch),
    "frame dim 2.0": (lambda: fm.frame_from_dict(dict(fm.frame_to_dict(MB), dim=2.0)),
                      DimensionMismatch),
    "measure dim true": (lambda: fm.measure_from_dict(dict(MEASURE_DOC, dim=True)),
                         DimensionMismatch),
    "measure dim 1.0": (lambda: fm.measure_from_dict(dict(MEASURE_DOC, dim=1.0)),
                        DimensionMismatch),
}


@pytest.mark.parametrize("name", DOCUMENTS)
def test_malformed_documents(name):
    call, error = DOCUMENTS[name]
    with pytest.raises(error):
        call()


K = fm.kernel_from_frame(MB)
CHAIN = fm.build_chain(MB)
X = [1.0, 0.0]

# values that are not integers, refused by every integer input
NOT_INTEGERS = [2.5, 2.0, np.float64(2.0), True, "2", None, [2], np.array([2]), np.array(2)]
COUNTS_OUT = [0, -1]
ORDERS_OUT = [0, MAX_MOMENT_ORDER + 1]
SEEDS_OUT = [-1, 1 << 64]
# 2^32 and 2^32 + 3 would alias streams 0 and 3
STREAMS_OUT = [-1, 1 << 32, (1 << 32) + 3]

# each takes one integer, valid at 2: (call, error, out-of-range values)
INTEGER_INPUTS = {
    "truncation_dim": (lambda n: fm.WhiteNoiseEnsemble(n, 10, 0), InvalidEnsembleSize, COUNTS_OUT),
    "sample_count": (lambda n: fm.WhiteNoiseEnsemble(2, n, 0), InvalidEnsembleSize, COUNTS_OUT),
    "ensemble seed": (lambda n: fm.WhiteNoiseEnsemble(2, 10, n).reduce([fm.ito_isometry(X)]),
                      InvalidEnsembleSize, SEEDS_OUT),
    "stream": (lambda n: streams.normal_rows(0, 0, 1, 1, stream=n), InvalidEnsembleSize,
               STREAMS_OUT),
    "sample_masks m": (lambda n: fm.sample_masks(K, n, 0), InvalidEnsembleSize, COUNTS_OUT),
    "sample_masks seed": (lambda n: fm.sample_masks(K, 3, n), InvalidEnsembleSize, SEEDS_OUT),
    "sample_path_indices k": (lambda n: fm.sample_path_indices(CHAIN, X, n, 10, 0),
                              InvalidEnsembleSize, COUNTS_OUT),
    "sample_path_indices m": (lambda n: fm.sample_path_indices(CHAIN, X, 2, n, 0),
                              InvalidEnsembleSize, COUNTS_OUT),
    "sample_path_indices seed": (lambda n: fm.sample_path_indices(CHAIN, X, 2, 10, n),
                                 InvalidEnsembleSize, SEEDS_OUT),
    "lower_bound_decay": (lambda n: fm.lower_bound_decay(MU, n), InvalidEnsembleSize, COUNTS_OUT),
    "moment": (lambda n: fm.moment(X, n), KTooLarge, ORDERS_OUT),
    "translation_consistency": (lambda n: fm.translation_consistency(X, X, power=n), KTooLarge,
                                ORDERS_OUT),
    "orthonormal_basis_frame": (fm.orthonormal_basis_frame, DimensionMismatch, COUNTS_OUT),
}

# an array case is named by its row and its position in the row, so that
# adding or deleting a row renames no case of another
INTEGER_CASES = [
    pytest.param(name, bad, id=f"{name}-bad{i}" if isinstance(bad, (list, np.ndarray)) else None)
    for name, (_, _, out) in INTEGER_INPUTS.items() for i, bad in enumerate(NOT_INTEGERS + out)
]


@pytest.mark.parametrize("name, bad", INTEGER_CASES)
def test_integers(name, bad):
    call, error, _ = INTEGER_INPUTS[name]
    call(2)
    call(np.int64(2))
    with pytest.raises(error) as caught:
        call(bad)
    assert str(bad) in str(caught.value)


def test_numpy_scalars_are_named_by_their_python_value():
    cases = [(lambda: fm.WhiteNoiseEnsemble(2, np.float64(2.5), 0), InvalidEnsembleSize, "2.5"),
             (lambda: fm.moment([1.0], np.float64(3.0)), KTooLarge, "3.0"),
             (lambda: fm.sample_masks(K, np.int64(-3), 1), InvalidEnsembleSize, "-3")]
    for call, error, value in cases:
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value).endswith(f", got {value}")


# each takes a list of indices of a 3-vector frame, valid at [0, 1]
INDEX_INPUTS = {
    "inclusion_probability": lambda idx: fm.inclusion_probability(K, idx),
    "path_probability": lambda idx: fm.path_probability(CHAIN, X, idx),
}
# (indices, the entry the error names)
BAD_INDICES = [([0.7, 1.2], 0.7), ([0, 1.9], 1.9), ([0.0, 1.0], 0.0), ([True, False], True),
               ([0, 3], 3), ([-1, 1], -1), (["0", "1"], "0")]


@pytest.mark.parametrize("bad, named", BAD_INDICES, ids=str)
@pytest.mark.parametrize("name", INDEX_INPUTS)
def test_indices(name, bad, named):
    call = INDEX_INPUTS[name]
    assert call(np.array([0, 1], dtype=np.int32)) == call([0, 1])
    with pytest.raises(IndexOutOfRange, match=f"got {named!r}$"):
        call(bad)


@pytest.mark.parametrize("bad", [2, [[0, 1]]], ids=str)
def test_inclusion_indices_are_one_list(bad):
    with pytest.raises(IndexOutOfRange, match="one strictly increasing list"):
        fm.inclusion_probability(K, bad)


def test_no_indices_is_the_empty_set():
    assert fm.inclusion_probability(K, []) == 1.0
    assert fm.inclusion_probability(K, np.array([], dtype=np.int64)) == 1.0


def test_numpy_integers_draw_as_python_integers():
    seed = np.uint64(7)
    np.testing.assert_array_equal(fm.sample_masks(K, np.int32(50), seed), fm.sample_masks(K, 50, 7))
    for a, b in zip(fm.sample_path_indices(CHAIN, X, np.int64(3), np.int64(40), seed),
                    fm.sample_path_indices(CHAIN, X, 3, 40, 7)):
        np.testing.assert_array_equal(a, b)
    ens = fm.WhiteNoiseEnsemble(np.int64(4), np.int16(300), seed)
    assert (type(ens.truncation_dim), type(ens.sample_count)) == (int, int)
    assert ens.reduce([fm.moment(X, np.int8(4))]) == fm.WhiteNoiseEnsemble(4, 300, 7).reduce(
        [fm.moment(X, 4)]
    )


def test_every_64_bit_seed_runs():
    top = (1 << 64) - 1
    assert fm.sample_masks(K, 5, top).shape == (5, 3)
    assert not np.array_equal(fm.sample_masks(K, 200, top), fm.sample_masks(K, 200, 0))
