"""Verification suites behind the CLI commands.

Each suite turns library operations into CheckRecords; `run` dispatches an
ExperimentConfig, times it, and assembles the Report. verify-all chains
every suite on built-in inputs with one shared white-noise ensemble.
"""
import logging
import math
import time

import numpy as np

from . import dpp as dpp_mod
from . import frames as frames_mod
from . import markov as markov_mod
from . import measures as measures_mod
from . import streams
from . import translation as trans_mod
from . import whitenoise as wn
from .errors import ConfigError
from .report import (
    CheckRecord,
    ExperimentConfig,
    Report,
    bound_record,
    build_report,
    exact_record,
    mc_record,
)

log = logging.getLogger(__name__)

GAUSSIAN_CHECKS = ("isometry", "charfn", "moments", "covariance", "reconstruct", "projection")


def run(config: ExperimentConfig) -> Report:
    """Dispatch a config to its suite and assemble the timed report."""
    start = time.perf_counter()
    handler = {
        "frames": _frames_suite,
        "wasserstein": _wasserstein_suite,
        "decay": _decay_suite,
        "markov": _markov_suite,
        "dpp": _dpp_suite,
        "gaussian": _gaussian_suite,
        "translate": _translate_suite,
        "kl": _kl_suite,
        "verify-all": _verify_all_suite,
    }[config.command]
    out = handler(config)
    records, extras = out if isinstance(out, tuple) else (out, {})
    return build_report(
        config.command, config, records, time.perf_counter() - start, extras=extras
    )


def _probe_vectors(seed: int, count: int, dim: int, unit: bool = True) -> np.ndarray:
    probes = streams.normal_matrix(seed, count, dim, stream=streams.STREAM_PROBES)
    if unit:
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    return probes


def _info(name: str, value: float) -> CheckRecord:
    # informational record: reports a number, always passes
    return exact_record(name, value, value, 0.0)


def _require_inputs(config: ExperimentConfig, count: int, what: str) -> None:
    if len(config.inputs) != count:
        raise ConfigError(
            f"command {config.command!r} needs {count} input path(s) ({what}), "
            f"got {len(config.inputs)}"
        )


# ----------------------------------------------------------------- frames

def _frames_records(config, frame, prefix=""):
    rel = config.tolerance("exact_rel")
    ineq = config.tolerance("tol_ineq")
    probes = _probe_vectors(config.seed, 200, frame.dim, unit=False)
    coeffs = probes @ frame.vectors.T
    energy = (coeffs * coeffs).sum(axis=1)
    norms_sq = (probes * probes).sum(axis=1)

    sandwich = np.maximum(
        frame.lower_bound * norms_sq - energy, energy - frame.upper_bound * norms_sq
    ).max()
    quad = np.einsum("ij,jk,ik->i", probes, frame.frame_operator, probes)
    norm_identity = (np.abs(energy - quad) / np.maximum(np.abs(quad), 1e-300)).max()

    g = frames_mod.gram(frame)
    records = [
        _info(prefix + "alpha", frame.lower_bound),
        _info(prefix + "beta", frame.upper_bound),
        bound_record(prefix + "sandwich_residual", sandwich, ineq),
        bound_record(prefix + "analysis_norm_rel_residual", norm_identity, rel),
        bound_record(
            prefix + "gram_min_eigenvalue_neg", -g.eigenvalues().min(), frames_mod.TOL_PSD
        ),
    ]
    c = streams.uniforms(config.seed, frame.n_frame, stream=streams.STREAM_PROBES) - 0.5
    riesz = frames_mod.verify_riesz_upper(frame, c)
    records.append(
        bound_record(prefix + "riesz_upper_excess", riesz.lhs - riesz.bound, ineq)
    )
    if frame.is_frame():
        duals = frames_mod.dual_frame(frame)
        recon = (probes @ duals.vectors.T) @ frame.vectors
        residual = (
            np.linalg.norm(recon - probes, axis=1) / np.linalg.norm(probes, axis=1)
        ).max()
        records.append(bound_record(prefix + "dual_roundtrip_rel_residual", residual, 1e-9))
    return records


def _frames_suite(config):
    _require_inputs(config, 1, "frame JSON")
    frame = frames_mod.load_frame(config.inputs[0])
    return _frames_records(config, frame)


# ------------------------------------------------------------ wasserstein

def _wasserstein_records(config, mu, nu, prefix=""):
    d, plan = measures_mod.wasserstein2(mu, nu)
    d_rev, _ = measures_mod.wasserstein2(nu, mu)
    d_self, _ = measures_mod.wasserstein2(mu, mu)
    row_err = np.abs(plan.matrix.sum(axis=1) - mu.weights).max()
    col_err = np.abs(plan.matrix.sum(axis=0) - nu.weights).max()
    return [
        _info(prefix + "w2_distance", d),
        bound_record(prefix + "plan_row_marginal_residual", row_err, measures_mod.MARGINAL_TOL),
        bound_record(prefix + "plan_col_marginal_residual", col_err, measures_mod.MARGINAL_TOL),
        bound_record(prefix + "symmetry_residual", abs(d - d_rev), 1e-9),
        bound_record(prefix + "self_distance", d_self, 1e-9),
    ]


def _wasserstein_suite(config):
    _require_inputs(config, 2, "two measure JSONs")
    mu = measures_mod.load_measure(config.inputs[0])
    nu = measures_mod.load_measure(config.inputs[1])
    return _wasserstein_records(config, mu, nu)


# ------------------------------------------------------------------ decay

def _decay_records(config, mu, prefix=""):
    n_max = int(config.options.get("n_max", 64))
    seq = measures_mod.lower_bound_decay(mu, n_max)
    m2 = measures_mod.second_moment(mu)
    records = [
        _info(prefix + f"decay_f_{n + 1:03d}", float(seq[n])) for n in range(n_max)
    ]
    tail = float(np.abs(seq[mu.dim :]).max()) if n_max > mu.dim else 0.0
    records.append(bound_record(prefix + "decay_tail_beyond_dim", tail, 0.0))
    records.append(exact_record(prefix + "decay_sum_vs_second_moment", seq.sum(), m2, 1e-12))
    return records


def _decay_suite(config):
    _require_inputs(config, 1, "measure JSON")
    mu = measures_mod.load_measure(config.inputs[0])
    return _decay_records(config, mu)


# ----------------------------------------------------------------- markov

def _resolve_start(config, frame):
    opts = config.options
    if "start_vector" in opts and opts["start_vector"] is not None:
        return np.asarray(opts["start_vector"], dtype=float)
    idx = int(opts.get("start_index", 0))
    if not 0 <= idx < frame.n_frame:
        raise ConfigError(f"start index {idx} outside 0..{frame.n_frame - 1}")
    return frame.vectors[idx]


def _markov_records(config, frame, prefix=""):
    chain = markov_mod.build_chain(frame)
    p = chain.transition_matrix
    c = chain.normalizers
    row_residual = np.abs(p.sum(axis=1) - 1.0).max()
    flux = c[:, None] * p
    scale = np.maximum(np.maximum(np.abs(flux), np.abs(flux.T)), 1e-300)
    rev_residual = (np.abs(flux - flux.T) / scale).max()
    norms_sq = (frame.vectors**2).sum(axis=1)
    bound_residual = (p - norms_sq[None, :] / frame.lower_bound).max()

    x = _resolve_start(config, frame)
    horizon = int(config.options.get("horizon", 2))
    n_paths = int(config.options.get("paths", 1000))
    idx, probs = markov_mod.sample_path_indices(chain, x, horizon, n_paths, config.seed)
    recompute = max(
        abs(probs[i] - markov_mod.path_probability(chain, x, idx[i]))
        for i in range(min(n_paths, 200))
    )
    records = [
        bound_record(prefix + "row_sum_residual", row_residual, markov_mod.ROW_SUM_TOL),
        bound_record(prefix + "reversibility_rel_residual", rev_residual,
                     markov_mod.REVERSIBILITY_RTOL),
        bound_record(prefix + "normalization_bound_residual", bound_residual,
                     markov_mod.BOUND_TOL),
        bound_record(prefix + "path_probability_recompute_residual", recompute, 0.0),
        _info(prefix + "mean_path_probability", float(probs.mean())),
    ]
    csv_path = config.options.get("paths_csv")
    if csv_path:
        _write_paths_csv(csv_path, idx, probs)
    return records, {"transition_matrix": p.tolist(), "normalizers": c.tolist()}


def _write_paths_csv(path, idx, probs):
    with open(path, "w") as fh:
        fh.write("path,indices,probability\n")
        for i in range(idx.shape[0]):
            joined = " ".join(str(int(j)) for j in idx[i])
            fh.write(f"{i},{joined},{format(float(probs[i]), '.17g')}\n")


def _markov_suite(config):
    _require_inputs(config, 1, "frame JSON")
    frame = frames_mod.load_frame(config.inputs[0])
    return _markov_records(config, frame)  # (records, extras)


# -------------------------------------------------------------------- dpp

def _load_kernel(path):
    import json

    with open(path) as fh:
        doc = json.load(fh)
    if "k" in doc:
        return dpp_mod.kernel_from_matrix(doc["k"])
    return dpp_mod.kernel_from_frame(frames_mod.frame_from_dict(doc))


def _dpp_records(config, kernel, prefix=""):
    z_max = config.tolerance("z_max")
    lam = kernel.eigenvalues
    records = [
        bound_record(
            prefix + "spectrum_unit_interval_excess",
            max(-lam[0], lam[-1] - 1.0),
            dpp_mod.SPECTRUM_TOL,
        ),
    ]
    masks = dpp_mod.sample_masks(kernel, config.samples, config.seed)
    card = masks.sum(axis=1).astype(float)
    records.append(mc_record(prefix + "cardinality_vs_trace",
                             wn.mc_estimate(card, kernel.trace()), z_max))
    if config.options.get("bruteforce", False):
        table = dpp_mod.subset_distribution_bruteforce(kernel)
        minors = dpp_mod._subset_minors(kernel)
        emp = dpp_mod.empirical_subset_distribution(masks)
        records += [
            bound_record(prefix + "principal_minor_negativity", -minors.min(),
                         dpp_mod.SPECTRUM_TOL),
            exact_record(prefix + "subset_table_sum", table.sum(), 1.0, 1e-9),
            exact_record(prefix + "empty_set_vs_det_complement", table[0],
                         dpp_mod.empty_probability(kernel), 1e-9),
            bound_record(prefix + "sampler_oracle_tv_distance",
                         dpp_mod.total_variation(emp, table), config.tolerance("tv_max")),
        ]
    csv_path = config.options.get("draws_csv")
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write("draw,indices\n")
            for i in range(masks.shape[0]):
                joined = " ".join(str(j) for j in np.nonzero(masks[i])[0])
                fh.write(f"{i},{joined}\n")
    return records


def _dpp_suite(config):
    _require_inputs(config, 1, "frame or kernel JSON")
    kernel = _load_kernel(config.inputs[0])
    return _dpp_records(config, kernel)


# ------------------------------------------------- white-noise suites
#
# The gaussian, translate and kl record builders return a list whose items
# are CheckRecords or pending pairs (to_records, reductions): `_resolve`
# runs every pending reduction of the list in one pass over the ensemble
# and replaces each pair by to_records(*results).


def _mc(reduction, z_max, *names):
    """Pending mc_records of a reduction's McEstimate(s), one per name."""
    def to_records(ests):
        ests = ests if isinstance(ests, tuple) else (ests,)
        return [mc_record(name, est, z_max) for name, est in zip(names, ests)]

    return (to_records, reduction)


def _resolve(ens, items):
    """Records of `items`, in order, after one pass over `ens`."""
    pending = [item for item in items if not isinstance(item, CheckRecord)]
    results = iter(ens.reduce(r for _, *reductions in pending for r in reductions))
    records = []
    for item in items:
        if isinstance(item, CheckRecord):
            records.append(item)
        else:
            to_records, *reductions = item
            records += to_records(*(next(results) for _ in reductions))
    return records


def _lazy_ensemble(config):
    # never materialized: every pass regenerates its tiles
    return wn.WhiteNoiseEnsemble(config.dim, config.samples, config.seed)


def _gaussian_records(config, ens, prefix=""):
    checks = config.options.get("checks") or GAUSSIAN_CHECKS
    unknown = set(checks) - set(GAUSSIAN_CHECKS)
    if unknown:
        raise ConfigError(f"unknown gaussian checks: {sorted(unknown)}")
    z_max = config.tolerance("z_max")
    rel = config.tolerance("exact_rel")
    d = ens.truncation_dim
    m = ens.sample_count
    probes = _probe_vectors(config.seed, 3, d)
    items = []

    if "isometry" in checks:
        for i, x in enumerate(probes):
            items.append(_mc(wn.ito_isometry(x), z_max, prefix + f"isometry_x{i}"))
    if "charfn" in checks:
        # the two closed-form targets: ||x||^2 = 1 -> e^(-1/2), = 2 -> e^(-1)
        for label, x in (("unit", probes[0]), ("sqrt2", probes[1] * math.sqrt(2.0))):
            items.append(_mc(wn.char_functional(x), z_max,
                             prefix + f"charfn_{label}_real", prefix + f"charfn_{label}_imag"))
    if "moments" in checks:
        for order in (2, 4, 6, 3, 5):
            items.append(_mc(wn.moment(probes[0], order), z_max, prefix + f"moment_{order}"))
    if "covariance" in checks:
        frame = frames_mod.mercedes_benz_frame()
        target = frames_mod.gram(frame).entries
        bound = 5.0 * frame.n_frame / math.sqrt(m)
        items.append((
            lambda cov: [bound_record(prefix + "covariance_frobenius",
                                      float(np.linalg.norm(cov - target)), bound)],
            wn.gramian_covariance(frame),
        ))
    if "reconstruct" in checks:
        def reconstruct(recon, cross):
            x_hat, err = recon
            # <T x0, T x1> / M against <synthesis(T x0), x1>: equal up to rounding
            rhs = float(x_hat @ probes[1])
            adj = abs(cross.value - rhs) / max(abs(rhs), 1e-300)
            return [
                bound_record(prefix + "reconstruct_error", err, 4.0 * math.sqrt((d + 1.0) / m)),
                bound_record(prefix + "synthesis_adjoint_rel_residual", adj, rel),
            ]

        items.append((reconstruct, wn.reconstruction(probes[0]),
                      wn.projection(probes[0], probes[1])))
    if "projection" in checks:
        y_perp = probes[1] - float(probes[1] @ probes[2]) * probes[2]
        items.append(_mc(wn.projection(probes[2], probes[2]), z_max, prefix + "projection_self"))
        items.append(_mc(wn.projection(probes[2], y_perp), z_max,
                         prefix + "projection_orthogonal"))
    return items


def _gaussian_suite(config):
    ens = _lazy_ensemble(config)
    return _resolve(ens, _gaussian_records(config, ens))


# -------------------------------------------------------------- translate

def _translate_records(config, ens, x=None, y=None, prefix=""):
    z_max = config.tolerance("z_max")
    rel = config.tolerance("exact_rel")
    d = ens.truncation_dim
    if x is None or y is None:
        probes = _probe_vectors(config.seed, 2, d)
        x = probes[0] if x is None else np.asarray(x, dtype=float)
        y = probes[1] if y is None else np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if float(x @ x) > 4.0:
        log.warning(
            "||x||^2 = %.3g > 4; importance-sampling variance grows like "
            "exp(||x||^2) and 4-sigma bands lose power", float(x @ x),
        )

    triples = streams.normal_matrix(config.seed, 1000, 3 * d, stream=streams.STREAM_PROBES + 1)
    worst = 0.0
    for row in triples:
        lhs, rhs = trans_mod.cocycle_check(row[:d], row[d : 2 * d], row[2 * d :])
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))

    return [
        bound_record(prefix + "cocycle_max_rel_residual", worst, rel),
        _mc(trans_mod.rn_mean(x), z_max, prefix + "rn_density_mean"),
        _mc(trans_mod.translated_moment(x, y), z_max, prefix + "translated_second_moment"),
        _mc(trans_mod.translation_consistency(x, y, power=1), z_max,
            prefix + "shift_consistency_linear"),
        _mc(trans_mod.translation_consistency(x, y, power=2), z_max,
            prefix + "shift_consistency_quadratic"),
    ]


def _translate_suite(config):
    ens = _lazy_ensemble(config)
    opts = config.options
    return _resolve(ens, _translate_records(config, ens, x=opts.get("x"), y=opts.get("y")))


# --------------------------------------------------------------------- kl

def _kl_records(config, frame, x=None, prefix=""):
    z_max = config.tolerance("z_max")
    items = [
        bound_record(
            prefix + "parseval_residual",
            max(abs(frame.lower_bound - 1.0), abs(frame.upper_bound - 1.0)),
            trans_mod.PARSEVAL_TOL,
        )
    ]
    if x is not None:
        xs = [np.asarray(x, dtype=float)]
    else:
        xs = list(_probe_vectors(config.seed, 3, frame.dim))
    for i, probe in enumerate(xs):
        items.append(_mc(trans_mod.kl_variance(frame, probe), z_max, prefix + f"kl_variance_x{i}"))
    return items


def _kl_suite(config):
    _require_inputs(config, 1, "frame JSON")
    frame = frames_mod.load_frame(config.inputs[0])
    return _resolve(_lazy_ensemble(config), _kl_records(config, frame, x=config.options.get("x")))


# --------------------------------------------------------------- verify-all

def _builtin_measures():
    mu = measures_mod.DiscreteMeasure.uniform([[0.0, 0.0], [1.0, 0.0]])
    nu = measures_mod.DiscreteMeasure.uniform([[0.0, 0.0], [2.0, 0.0]])
    return mu, nu


def _verify_all_suite(config):
    records = []
    mb = frames_mod.mercedes_benz_frame()
    onb = frames_mod.orthonormal_basis_frame(4)

    records += _frames_records(config, mb, prefix="frames.mb.")
    records += _frames_records(config, onb, prefix="frames.onb.")

    mu, nu = _builtin_measures()
    records += _wasserstein_records(config, mu, nu, prefix="wasserstein.")

    decay_cfg = ExperimentConfig(
        command="decay", seed=config.seed, samples=config.samples, dim=config.dim,
        tolerances=config.tolerances, options={"n_max": 16},
    )
    records += _decay_records(decay_cfg, mu, prefix="decay.")

    markov_cfg = ExperimentConfig(
        command="markov", seed=config.seed, samples=config.samples, dim=config.dim,
        tolerances=config.tolerances, options={"start_index": 0, "horizon": 2, "paths": 2000},
    )
    markov_records, _ = _markov_records(markov_cfg, mb, prefix="markov.")
    records += markov_records

    dpp_cfg = ExperimentConfig(
        command="dpp", seed=config.seed, samples=config.samples, dim=config.dim,
        tolerances=config.tolerances, options={"bruteforce": True},
    )
    records += _dpp_records(dpp_cfg, dpp_mod.kernel_from_frame(mb), prefix="dpp.")

    # one pass over one shared ensemble serves the three white-noise suites
    ens = _lazy_ensemble(config)
    records += _resolve(
        ens,
        _gaussian_records(config, ens, prefix="gaussian.")
        + _translate_records(config, ens, prefix="translate.")
        + _kl_records(config, trans_mod.parseval_rescale(mb), prefix="kl."),
    )
    return records
