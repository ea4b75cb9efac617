"""Frames and the probability measures they induce, at desk scale.

Deterministic frame algebra (operators, Gramians, bounds, duals),
discrete probabilistic frames with an exact 2-Wasserstein metric,
frame-induced Markov chains with exact path probabilities, determinantal
measures from normalized Gramians with an exact sampler, and a truncated
Gaussian white-noise measure whose closed-form identities (Ito isometry,
characteristic functional, moments, Gramian covariance, reconstruction,
translation densities, Karhunen-Loeve) are verified by seeded Monte
Carlo. Every random quantity is a pure function of (seed, index):
reruns are bitwise identical for any thread count.
"""
from .dpp import (
    DppKernel,
    empirical_subset_distribution,
    empty_probability,
    inclusion_probability,
    kernel_from_frame,
    kernel_from_matrix,
    sample_masks,
    subset_distribution_bruteforce,
    total_variation,
)
from .frames import (
    Frame,
    GramMatrix,
    analysis,
    build_frame,
    dual_frame,
    frame_from_dict,
    frame_to_dict,
    gram,
    load_frame,
    mercedes_benz_frame,
    orthonormal_basis_frame,
    save_frame,
    synthesis,
    verify_riesz_upper,
)
from .markov import (
    FrameChain,
    build_chain,
    path_probability,
    sample_path_indices,
    start_distribution,
)
from .measures import (
    DiscreteMeasure,
    MeasureFrameBounds,
    TransportPlan,
    load_measure,
    lower_bound_decay,
    measure_frame_bounds,
    measure_from_dict,
    measure_to_dict,
    prob_analysis,
    prob_frame_operator,
    prob_gramian_apply,
    prob_synthesis,
    second_moment,
    wasserstein2,
)
from .report import McEstimate, mc_estimate
from .translation import (
    cocycle_check,
    kl_variance,
    parseval_rescale,
    rn_density,
    rn_mean,
    translated_moment,
    translation_consistency,
)
from .whitenoise import (
    WhiteNoiseEnsemble,
    char_functional,
    gramian_covariance,
    ito_isometry,
    joint_density,
    moment,
    projection,
    reconstruction,
)

__version__ = "0.1.0"
