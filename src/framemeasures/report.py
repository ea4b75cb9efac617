"""Run configuration, check records, Monte-Carlo estimates, and report
serialization.

A Monte-Carlo check is judged here in full: `mc_estimate` (or a
white-noise reduction, through `_estimate`) gives the sample mean, its
standard error and the z-score against the target, and `mc_record`
passes it iff |z| <= z_max. Where the law sampled has a known variance,
`_estimate_known_variance` takes the standard error from it instead.

Reports serialize to JSON (schema 1) with floats in Python's shortest
round-trip form, and to CSV with 17 significant digits; both re-parse to
the exact double. Value fields are bitwise reproducible across runs with
the same config; only the wall-clock duration varies.
"""
import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .frames import as_count
from .streams import SEED_MAX

SCHEMA_VERSION = 1

DEFAULT_TOLERANCES = {
    "z_max": 4.0,          # acceptance band for Monte-Carlo z-scores
    "exact_rel": 1e-12,    # relative slack for exact pointwise identities
    "tol_ineq": 1e-10,     # slack for frame inequalities, times the upper bound
    "tv_max": 0.02,        # sampler-vs-oracle total variation cap
}

# A standard error of at most this many ulps of the mean is rounding: the
# sample is constant, and its mean meets a target within as many ulps.
ZERO_VARIANCE_ULPS = 4

CSV_COLUMNS = ("name", "value", "target", "std_error", "z_score", "pass")

# field type of ExperimentConfig -> (the values it takes, their JSON name);
# a list (a JSON array) is kept as a tuple
_FIELD_TYPES = {
    str: (str, "string"), int: (int, "integer"), dict: (dict, "object"),
    tuple: ((tuple, list), "array"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    seed: int = 0
    samples: int = 100_000
    dim: int = 32
    tolerances: dict = field(default_factory=dict)
    inputs: tuple = ()
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        # the command table lives with the record builders, which import this module
        from .suites import COMMANDS

        for f in fields(self):
            value = getattr(self, f.name)
            types, label = _FIELD_TYPES[f.type]
            if not isinstance(value, types) or isinstance(value, bool):
                raise ConfigError(f"config field {f.name!r} must be a JSON {label}, got {value!r}")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        for name, least, most in (("seed", 0, SEED_MAX), ("samples", 1, None), ("dim", 1, None)):
            as_count(getattr(self, name), f"config field {name!r}", least, most, ConfigError)
        options = COMMANDS[self.command].options
        known = sorted(opt.name for opt in options)
        unknown = sorted(set(self.options) - set(known))
        if unknown:
            raise ConfigError(
                f"unknown options {unknown} for command {self.command!r}; known: {known}"
            )
        # every option: a given value through its parser, a left-out one (or
        # a JSON null) at its table default
        given = {name: value for name, value in self.options.items() if value is not None}
        exclusive = [opt.flag for opt in options if opt.exclusive and opt.name in given]
        if len(exclusive) > 1:
            raise ConfigError(f"options {' and '.join(exclusive)} exclude each other")
        object.__setattr__(self, "options", {
            opt.name: opt.parse(given[opt.name], opt.flag) if opt.name in given else opt.default
            for opt in options
        })
        for key, value in self.tolerances.items():
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(
                    f"unknown tolerance {key!r}; known: {sorted(DEFAULT_TOLERANCES)}"
                )
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"config field 'tolerances': {key!r} needs a number, "
                                  f"got {value!r}")
            if not math.isfinite(value) or value < 0:
                raise ConfigError(f"config field 'tolerances': {key!r} needs a finite "
                                  f"number >= 0, got {value!r}")
        # an integer would be opened as a file descriptor
        if not all(isinstance(path, str) for path in self.inputs):
            raise ConfigError(f"config field 'inputs' must hold paths, got {list(self.inputs)!r}")

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "seed": self.seed,
            "samples": self.samples,
            "dim": self.dim,
            "tolerances": dict(self.tolerances),
            "inputs": list(self.inputs),
            # option values are JSON values once parsed; tuples become arrays
            "options": {k: list(v) if isinstance(v, tuple) else v
                        for k, v in self.options.items()},
        }


@dataclass(frozen=True)
class CheckRecord:
    """One verified quantity: value vs target, with MC error bars when
    the check is statistical (NaN std_error/z_score marks exact checks)."""

    name: str
    value: float
    target: float
    std_error: float
    z_score: float
    passed: bool

    def __post_init__(self):
        # a value of -0.0 (say, a negated zero minor) reports as 0
        object.__setattr__(self, "value", self.value + 0.0)

    def to_dict(self) -> dict:
        # non-finite statistics (exact checks) serialize as JSON null
        def num(v):
            return v if math.isfinite(v) else None

        return {
            "name": self.name,
            "value": num(self.value),
            "target": num(self.target),
            "std_error": num(self.std_error),
            "z_score": num(self.z_score),
            "pass": self.passed,
        }


def exact_record(name: str, value: float, target: float, tol: float) -> CheckRecord:
    """Record for a deterministic identity: pass iff |value - target| <= tol."""
    return CheckRecord(
        name=name,
        value=float(value),
        target=float(target),
        std_error=math.nan,
        z_score=math.nan,
        passed=abs(float(value) - float(target)) <= tol,
    )


def bound_record(name: str, value: float, bound: float) -> CheckRecord:
    """Record for a one-sided check: pass iff value <= bound."""
    return CheckRecord(
        name=name,
        value=float(value),
        target=float(bound),
        std_error=math.nan,
        z_score=math.nan,
        passed=float(value) <= float(bound),
    )


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo verification record for one closed-form identity."""

    value: float
    std_error: float
    sample_count: int
    target: float
    z_score: float


def _moments(v: np.ndarray):
    """(count, mean, M2) of each row of v, taken along the last axis."""
    n = v.shape[-1]
    mean = v.sum(axis=-1) / n
    d = v - mean[..., None]
    return n, mean, np.einsum("...i,...i->...", d, d)


def _merge_moments(a, b):
    """Moments of the values of a followed by those of b (Chan, Golub &
    LeVeque 1979)."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * (nb / n), m2_a + m2_b + delta * delta * (na * nb / n)


def _estimate(m: int, mean, m2, target: float) -> McEstimate:
    """The estimate of m values with the given mean and M2 against target;
    a constant sample (see ZERO_VARIANCE_ULPS) reads z 0 or inf."""
    std_error = math.sqrt(float(m2) / (m - 1)) / math.sqrt(m) if m > 1 else 0.0
    return _judge(m, mean, std_error, target)


def _estimate_known_variance(m: int, mean, variance: float, target: float) -> McEstimate:
    """The estimate of the mean of m independent values, each of the given
    exact variance, against target. The standard error is exact, so a
    sample that happens to be constant still reads its true z; a variance
    of 0 reads z 0 or inf, as a constant sample does in `_estimate`."""
    return _judge(m, mean, math.sqrt(variance) / math.sqrt(m), target)


def _judge(m: int, mean, std_error: float, target: float) -> McEstimate:
    """The estimate of m values with this mean and standard error against
    target, under the zero-variance rule."""
    value = float(mean)
    target = float(target)
    if std_error > ZERO_VARIANCE_ULPS * math.ulp(value):
        z = (value - target) / std_error
    else:
        # an infinite tolerance (an infinite value or target) meets nothing
        tol = ZERO_VARIANCE_ULPS * math.ulp(max(abs(value), abs(target)))
        z = 0.0 if abs(value - target) <= tol < math.inf else math.inf
    return McEstimate(value=value, std_error=std_error, sample_count=m, target=target, z_score=z)


def mc_estimate(values: np.ndarray, target: float) -> McEstimate:
    """Sample mean, standard error, and z-score against a target."""
    m, mean, m2 = _moments(np.asarray(values, dtype=float).ravel())
    return _estimate(m, mean, m2, target)


def mc_record(name: str, est: McEstimate, z_max: float) -> CheckRecord:
    """Record for a Monte-Carlo estimate: pass iff |z| <= z_max."""
    return CheckRecord(
        name=name,
        value=est.value,
        target=est.target,
        std_error=est.std_error,
        z_score=est.z_score,
        passed=abs(est.z_score) <= z_max,
    )


@dataclass
class Report:
    command: str
    config: dict
    records: list
    duration_s: float
    extras: dict = field(default_factory=dict)

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
            "overall_pass": self.overall_pass,
            "duration_s": self.duration_s,
        }
        if self.extras:
            doc["extras"] = self.extras
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def payload_json(self) -> str:
        """Deterministic part only (no duration), for reproducibility
        comparisons."""
        doc = self.to_dict()
        del doc["duration_s"]
        return json.dumps(doc)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def csv_text(header, rows) -> str:
    """CSV of `rows` under `header`, lines ended by "\n", each float in
    17 significant digits (`_fmt`) and every other field as `csv` writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def report_csv_text(report: Report) -> str:
    """Fixed-column CSV of the check records."""
    return csv_text(CSV_COLUMNS, (
        [r.name, r.value, r.target, r.std_error, r.z_score, "true" if r.passed else "false"]
        for r in report.records
    ))
