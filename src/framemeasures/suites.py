"""Verification suites behind the CLI commands.

`COMMANDS`, at the end of this module, is the one table of commands: for
each, its help text, its positional inputs with their loaders, its
options (flag, value parser, default, help) and its record builder. The
CLI builds its parser from the table, and ExperimentConfig parses every
option value through it; `run` dispatches a config through it, loads the
inputs, times the builder and assembles the Report. verify-all calls the
other builders on built-in inputs and resolves all white-noise checks in
one pass over one ensemble.
"""
import json
import logging
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dpp as dpp_mod
from . import frames as frames_mod
from . import markov as markov_mod
from . import measures as measures_mod
from . import streams
from . import translation as trans_mod
from . import whitenoise as wn
from .errors import ConfigError, DimensionExceedsTruncation
from .frames import as_count
from .report import (
    CheckRecord,
    ExperimentConfig,
    Report,
    _estimate_known_variance,
    bound_record,
    csv_text,
    exact_record,
    mc_record,
)

log = logging.getLogger(__name__)

GAUSSIAN_CHECKS = ("isometry", "charfn", "moments", "covariance", "reconstruct", "projection")


def run(config: ExperimentConfig) -> Report:
    """Dispatch a config through the command table and assemble the timed report."""
    start = time.perf_counter()
    command = COMMANDS[config.command]
    if len(config.inputs) != len(command.inputs):
        names = ", ".join(inp.name for inp in command.inputs) or "none"
        raise ConfigError(
            f"command {config.command!r} needs {len(command.inputs)} input path(s) ({names}), "
            f"got {len(config.inputs)}"
        )
    loaded = [inp.load(path) for inp, path in zip(command.inputs, config.inputs)]
    out = command.build(config, *loaded, **config.options)
    records, extras = out if isinstance(out, tuple) else (out, {})
    return Report(config.command, config.to_dict(), _resolve(config, records),
                  time.perf_counter() - start, extras)


def _probe_vectors(seed: int, count: int, dim: int, unit: bool = True) -> np.ndarray:
    probes = streams.normal_rows(seed, 0, count, dim, stream=streams.STREAM_PROBES)
    if unit:
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    return probes


def _info(name: str, value: float) -> CheckRecord:
    # informational record: reports a number, always passes
    return exact_record(name, value, value, 0.0)


# ----------------------------------------------------------------- frames

def _frames_records(config, frame, prefix=""):
    rel = config.tolerance("exact_rel")
    # the energies scale with beta, and so does their rounding
    ineq = config.tolerance("tol_ineq") * frame.upper_bound
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
        bound_record(prefix + "gram_min_eigenvalue_neg", -g.min_eigenvalue, g.psd_bound),
    ]
    c = streams.uniform_columns(config.seed, 0, 1, streams.STREAM_RIESZ,
                                np.empty((frame.n_frame, 1)))[:, 0] - 0.5
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


# ------------------------------------------------------------ wasserstein

def _wasserstein_records(config, mu, nu, prefix=""):
    d, plan = measures_mod.wasserstein2(mu, nu)
    d_rev, _ = measures_mod.wasserstein2(nu, mu)
    d_self, _ = measures_mod.wasserstein2(mu, mu)
    tol = measures_mod.MARGINAL_TOL
    return [
        _info(prefix + "w2_distance", d),
        bound_record(prefix + "plan_row_marginal_residual", plan.row_marginal_residual, tol),
        bound_record(prefix + "plan_col_marginal_residual", plan.col_marginal_residual, tol),
        # W2 scales with the atoms, so the bound does too once it passes 1
        bound_record(prefix + "symmetry_residual", abs(d - d_rev), 1e-9 * max(1.0, d)),
        # the north-west-corner start of W2(mu, mu) is the diagonal, which
        # costs nothing, so the distance is exactly 0
        exact_record(prefix + "self_distance", d_self, 0.0, 0.0),
    ]


# ------------------------------------------------------------------ decay

def _decay_records(config, mu, prefix="", *, n_max):
    seq = measures_mod.lower_bound_decay(mu, n_max)
    m2 = measures_mod.second_moment(mu)
    records = [
        _info(prefix + f"decay_f_{n + 1:03d}", float(seq[n])) for n in range(n_max)
    ]
    tail = float(np.abs(seq[mu.dim :]).max()) if n_max > mu.dim else 0.0
    records.append(bound_record(prefix + "decay_tail_beyond_dim", tail, 0.0))
    records.append(exact_record(prefix + "decay_sum_vs_second_moment", seq.sum(), m2, 1e-12 * m2))
    return records


# ----------------------------------------------------------------- markov

def _markov_records(
    config, frame, prefix="", *, start_index, start_vector, horizon, paths, paths_csv
):
    chain = markov_mod.build_chain(frame)
    x = start_vector
    if x is None:  # a null start index means vector 0
        last = frame.n_frame - 1
        x = frame.vectors[as_count(start_index or 0, "--start-index", 0, last, ConfigError)]
    idx, probs = markov_mod.sample_path_indices(chain, x, horizon, paths, config.seed)
    recompute = float(np.abs(probs[:200] - markov_mod.path_probability(chain, x, idx[:200])).max())
    records = [
        bound_record(prefix + "row_sum_residual", chain.row_sum_residual, markov_mod.ROW_SUM_TOL),
        bound_record(prefix + "reversibility_rel_residual", chain.reversibility_rel_residual,
                     markov_mod.REVERSIBILITY_RTOL),
        bound_record(prefix + "normalization_bound_residual", chain.bound_residual,
                     markov_mod.BOUND_TOL),
        bound_record(prefix + "path_probability_recompute_residual", recompute, 0.0),
        _info(prefix + "mean_path_probability", float(probs.mean())),
    ]
    if paths_csv:
        rows = ((i, " ".join(map(str, path)), p)
                for i, (path, p) in enumerate(zip(idx.tolist(), probs)))
        with open(paths_csv, "w") as fh:
            fh.write(csv_text(("path", "indices", "probability"), rows))
    extras = {
        "transition_matrix": chain.transition_matrix.tolist(),
        "normalizers": chain.normalizers.tolist(),
    }
    return records, extras


# -------------------------------------------------------------------- dpp

def _load_kernel(path):
    with open(path) as fh:
        doc = json.load(fh)
    # anything but a kernel document is read as a frame document, which refuses a non-object
    if isinstance(doc, dict) and "k" in doc:
        return dpp_mod.kernel_from_matrix(doc["k"])
    return dpp_mod.kernel_from_frame(frames_mod.frame_from_dict(doc))


def _dpp_records(config, kernel, prefix="", *, bruteforce, draws_csv):
    z_max = config.tolerance("z_max")
    records = [
        bound_record(prefix + "spectrum_unit_interval_excess", kernel.spectrum_excess,
                     dpp_mod.SPECTRUM_TOL),
    ]
    masks = dpp_mod.sample_masks(kernel, config.samples, config.seed)
    # |X| is a sum of independent Bernoulli(lambda_i) over the law sampled
    # (Hough, Krishnapur, Peres & Virag 2006): mean the trace (a projection
    # kernel's is its rank exactly), variance sum lambda_i (1 - lambda_i).
    # The mean of the draws is their exact integer count of points over m.
    lam = kernel.keep_probabilities
    m = len(masks)
    est = _estimate_known_variance(m, int(np.count_nonzero(masks)) / m,
                                   float((lam * (1.0 - lam)).sum()), float(lam.sum()))
    records.append(mc_record(prefix + "cardinality_vs_trace", est, z_max))
    if bruteforce:
        table = dpp_mod.subset_distribution_bruteforce(kernel)
        emp = dpp_mod.empirical_subset_distribution(masks)
        records += [
            exact_record(prefix + "subset_table_sum", table.sum(), 1.0, 1e-9),
            exact_record(prefix + "empty_set_vs_det_complement", table[0],
                         dpp_mod.empty_probability(kernel), 1e-9),
            bound_record(prefix + "sampler_oracle_tv_distance",
                         dpp_mod.total_variation(emp, table), config.tolerance("tv_max")),
        ]
    if draws_csv:
        rows = ((i, " ".join(map(str, np.flatnonzero(mask)))) for i, mask in enumerate(masks))
        with open(draws_csv, "w") as fh:
            fh.write(csv_text(("draw", "indices"), rows))
    return records


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


def _pending(items) -> list:
    return [item for item in items if not isinstance(item, CheckRecord)]


def _check_dim(config, items) -> None:
    """Refuse, as a ConfigError, a --dim below the widest probe of the
    pending reductions in `items`. A builder calls it before its other
    work, so a command that cannot run its pass does nothing else."""
    widths = [len(v) for _, *reductions in _pending(items) for r in reductions for v in r.probes]
    try:
        wn._check_truncation(max(widths, default=0), config.dim)
    except DimensionExceedsTruncation as exc:
        raise ConfigError(f"--dim {config.dim} is too small for {config.command}: {exc}") from None


def _resolve(config, items):
    """Records of `items`, in order, after one pass over the config's
    (dim, samples, seed) ensemble; none when nothing is pending."""
    pending = _pending(items)
    if not pending:
        return items
    _check_dim(config, pending)
    ens = wn.WhiteNoiseEnsemble(config.dim, config.samples, config.seed)
    results = iter(ens.reduce(r for _, *reductions in pending for r in reductions))
    records = []
    for item in items:
        if isinstance(item, CheckRecord):
            records.append(item)
        else:
            to_records, *reductions = item
            records += to_records(*(next(results) for _ in reductions))
    return records


def _gaussian_records(config, prefix="", *, checks):
    z_max = config.tolerance("z_max")
    rel = config.tolerance("exact_rel")
    d = config.dim
    m = config.samples
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
            # <T x0, T x1> / M against <synthesis(T x0), x1>: equal up to rounding,
            # relative to ||x_hat|| ||x1||, which stays away from 0 when x0 and x1
            # are nearly orthogonal (Cauchy-Schwarz: never below |rhs|)
            rhs = float(x_hat @ probes[1])
            scale = float(np.linalg.norm(x_hat) * np.linalg.norm(probes[1]))
            adj = abs(cross.value - rhs) / max(scale, 1e-300)
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


# -------------------------------------------------------------- translate

def _translate_records(config, prefix="", *, x, y):
    z_max = config.tolerance("z_max")
    rel = config.tolerance("exact_rel")
    d = config.dim
    probes = _probe_vectors(config.seed, 2, d)
    x = frames_mod.as_vector(probes[0] if x is None else x)
    y = probes[1] if y is None else y
    pending = [
        _mc(trans_mod.rn_mean(x), z_max, prefix + "rn_density_mean"),
        _mc(trans_mod.translated_moment(x, y), z_max, prefix + "translated_second_moment"),
        _mc(trans_mod.translation_consistency(x, y, power=1), z_max,
            prefix + "shift_consistency_linear"),
        _mc(trans_mod.translation_consistency(x, y, power=2), z_max,
            prefix + "shift_consistency_quadratic"),
    ]
    _check_dim(config, pending)
    norm_sq = wn._inner(x, x)
    if norm_sq > 4.0:
        log.warning(
            "||x||^2 = %.3g > 4; importance-sampling variance grows like "
            "exp(||x||^2) and 4-sigma bands lose power", norm_sq,
        )

    triples = streams.normal_rows(config.seed, 0, 1000, 3 * d, stream=streams.STREAM_COCYCLE)
    lhs, rhs = trans_mod.cocycle_check(triples[:, :d], triples[:, d : 2 * d], triples[:, 2 * d :])
    worst = float((np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)).max())
    return [bound_record(prefix + "cocycle_max_rel_residual", worst, rel), *pending]


# --------------------------------------------------------------------- kl

def _kl_records(config, frame, prefix="", *, x):
    z_max = config.tolerance("z_max")
    items = [
        bound_record(prefix + "parseval_residual", frame.parseval_residual, frames_mod.PARSEVAL_TOL)
    ]
    xs = [x] if x is not None else list(_probe_vectors(config.seed, 3, frame.dim))
    for i, probe in enumerate(xs):
        items.append(_mc(trans_mod.kl_variance(frame, probe), z_max, prefix + f"kl_variance_x{i}"))
    return items


# --------------------------------------------------------------- verify-all

def _verify_all_records(config):
    mb = frames_mod.mercedes_benz_frame()
    mu = measures_mod.DiscreteMeasure.uniform([[0.0, 0.0], [1.0, 0.0]])
    nu = measures_mod.DiscreteMeasure.uniform([[0.0, 0.0], [2.0, 0.0]])
    # the white-noise items come first, so that a --dim too small for their
    # probes is refused before the exact suites run; `run` resolves them in
    # one pass over one shared ensemble
    white_noise = _gaussian_records(config, "gaussian.", **_options("gaussian"))
    white_noise += _translate_records(config, "translate.", **_options("translate"))
    white_noise += _kl_records(config, trans_mod.parseval_rescale(mb), "kl.", **_options("kl"))
    _check_dim(config, white_noise)

    records = _frames_records(config, mb, "frames.mb.")
    records += _frames_records(config, frames_mod.orthonormal_basis_frame(4), "frames.onb.")
    records += _wasserstein_records(config, mu, nu, "wasserstein.")
    records += _decay_records(config, mu, "decay.", n_max=16)
    records += _markov_records(config, mb, "markov.", **_options("markov", paths=2000))[0]
    records += _dpp_records(config, dpp_mod.kernel_from_frame(mb), "dpp.",
                            **_options("dpp", bruteforce=True))
    return records + white_noise


def _options(command, **given):
    """Every option of `command`: the given ones, and the rest at their defaults."""
    return ExperimentConfig(command, options=given).options


# ---------------------------------------------------------- command table

# Each parser takes an option's value as command-line text or as a config's
# JSON value, and returns the option's value or raises a ConfigError that
# names the flag.

def _integer(value, flag, least=0):
    """An integer >= least (`frames.as_count`), as decimal text or a JSON
    integer; never a bool or a float, so 1.9 is refused rather than
    truncated."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    return as_count(value, flag, least, error=ConfigError)


def _count(value, flag):
    return _integer(value, flag, least=1)


def _path(value, flag):
    # an integer would be opened as a file descriptor
    if not isinstance(value, str):
        raise ConfigError(f"{flag} needs a path, got {value!r}")
    return value


def _switch(value, flag):
    if not isinstance(value, bool):
        raise ConfigError(f"{flag} needs true or false, got {value!r}")
    return value


def _parse_checks(value, flag):
    """A comma list, or a list of names, from GAUSSIAN_CHECKS."""
    checks = value.split(",") if isinstance(value, str) else value
    if isinstance(checks, (list, tuple)):
        checks = tuple(c for c in checks if c)
        if checks and all(c in GAUSSIAN_CHECKS for c in checks):
            return checks
    raise ConfigError(f"{flag} needs checks from {list(GAUSSIAN_CHECKS)}, got {value!r}")


def _is_finite_number(v) -> bool:
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _parse_vector(value, flag):
    """A flat array of finite numbers: given inline as JSON text, as a path
    to a JSON file holding one, or as a config's JSON array. JSON's NaN and
    Infinity, and a number such as 1e400 that overflows, are refused."""
    doc = value
    if isinstance(value, str):
        try:
            doc = json.loads(value)
        except json.JSONDecodeError:
            try:
                with open(value) as fh:
                    doc = json.load(fh)
            except OSError as exc:
                raise ConfigError(
                    f"{flag} value {value!r} is neither JSON nor a readable file: {exc}"
                )
    if not isinstance(doc, (list, tuple)) or not doc or not all(map(_is_finite_number, doc)):
        raise ConfigError(f"{flag} needs a flat array of one or more finite numbers, "
                          f"got {doc!r}")
    return list(doc)


@dataclass(frozen=True)
class Input:
    """A positional input path and the loader that reads it."""

    name: str
    help: str
    load: Callable


@dataclass(frozen=True)
class Option:
    """A command option, keyed in ExperimentConfig.options by its flag
    without the dashes ("--n-max" -> "n_max").

    ExperimentConfig turns a given value into the option's value with
    `parse(value, flag)`; a left-out option takes `default`. A bool
    default makes the option a switch.
    """

    flag: str
    parse: Callable
    default: object = None
    help: str | None = None
    exclusive: bool = False  # at most one of a command's exclusive options is given

    @property
    def name(self) -> str:
        return self.flag[2:].replace("-", "_")


@dataclass(frozen=True)
class Command:
    """A CLI command: `build(config, *loaded inputs, **options)` returns
    its records, or (records, extras) for the report."""

    help: str
    build: Callable
    inputs: tuple = ()
    options: tuple = ()


# Loaders go through the module attribute, so a wrapped loader sees every call.
_FRAME = Input("frame", "frame JSON path", lambda path: frames_mod.load_frame(path))


def _measure(name):
    return Input(name, "measure JSON path", lambda path: measures_mod.load_measure(path))


def _vector(flag, exclusive=False):
    return Option(flag, _parse_vector, help="inline JSON vector or file path",
                  exclusive=exclusive)


COMMANDS = {
    "frames": Command("frame bounds, Gramian, dual checks", _frames_records, (_FRAME,)),
    "wasserstein": Command("exact W2 distance between two measures", _wasserstein_records,
                           (_measure("mu"), _measure("nu"))),
    "decay": Command("coordinate decay diagnostic of a measure", _decay_records,
                     (_measure("mu"),), (Option("--n-max", _count, 64),)),
    "markov": Command(
        "frame-induced Markov chain and path sampling", _markov_records, (_FRAME,), (
            Option("--start-index", _integer, exclusive=True, help="default 0"),
            _vector("--start-vector", exclusive=True),
            Option("--horizon", _count, 2),
            Option("--paths", _count, 1000),
            Option("--paths-csv", _path, help="write one CSV row per sampled path here"),
        ),
    ),
    "dpp": Command(
        "determinantal measure from a frame or kernel", _dpp_records,
        (Input("input", 'frame JSON or kernel JSON ({"k": [[...]]})', _load_kernel),), (
            Option("--bruteforce", _switch, False,
                   help="enumerate the exact subset distribution (n <= 20)"),
            Option("--draws-csv", _path, help="write one CSV row per draw here"),
        ),
    ),
    "gaussian": Command("white-noise identity checks", _gaussian_records, options=(
        Option("--checks", _parse_checks, GAUSSIAN_CHECKS,
               help=f"comma list from {GAUSSIAN_CHECKS}"),
    )),
    "translate": Command("translated-measure identity checks", _translate_records,
                         options=(_vector("--x"), _vector("--y"))),
    "kl": Command("Karhunen-Loeve expansion for a Parseval frame", _kl_records,
                  (_FRAME,), (_vector("--x"),)),
    "verify-all": Command("run every suite on built-in inputs", _verify_all_records),
}
