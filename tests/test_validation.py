"""One validator per kind of input: flat vectors and coefficient sequences
(`frames.as_vector`), sample points omega and a measure's atoms
(`as_vector` or `as_rows`) and square symmetric matrices
(`frames.as_symmetric`). Every entry point of a kind refuses non-finite
input with NonFinite and a malformed shape with a typed error, never a
NaN result or a bare numpy error."""
import math

import numpy as np
import pytest

import framemeasures as fm
from framemeasures import measures
from framemeasures.errors import DimensionMismatch, InvalidGramian, InvalidKernel, NonFinite

BAD_VALUES = [math.nan, math.inf, -math.inf]

MB = fm.mercedes_benz_frame()
MU = fm.DiscreteMeasure.uniform([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

# each takes a flat vector or coefficient sequence of length 3
VECTOR_INPUTS = {
    "synthesis": lambda c: fm.synthesis(MB, c),
    "verify_riesz_upper": lambda c: fm.verify_riesz_upper(MB, c),
    "prob_analysis": lambda x: fm.prob_analysis(fm.DiscreteMeasure.uniform([[1.0, 0.0, 2.0]]), x),
    "prob_synthesis": lambda f: fm.prob_synthesis(MU, f),
    "prob_gramian_apply": lambda f: fm.prob_gramian_apply(MU, f),
    "measure_l2_normsq": lambda f: measures.measure_l2_normsq(MU, f),
}

# each takes a sample point omega of dimension 3
SAMPLE_POINT_INPUTS = {
    "pairing": lambda omega: fm.pairing([1.0, 0.5], omega),
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
