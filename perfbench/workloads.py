"""Inputs, operation lists and correctness checks of the three workloads.

`make_inputs(workload, seed, workdir)` draws every input from the seed
(arrays, or JSON files written to `workdir`); `build_ops` turns them into
the fixed operation list of one pass. An operation is timed around `call`
only; `check` then compares the result with an independent reference and
returns a `Verdict`:

- `ok` is False when the operation failed: it raised, the CLI exited
  non-zero, or a check record or statistical check did not pass;
- `correct` is False when an output disagrees with an exact reference
  (the program computed a wrong answer, or the CLI wrote a report that
  contradicts its exit code).

Every call goes through the module attribute (`mods.dpp.sample_masks`),
so the tracer's wrappers see it.
"""
import contextlib
import hashlib
import io
import json
import math
import os
from collections import namedtuple

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix

Op = namedtuple("Op", "name call check")
Verdict = namedtuple("Verdict", "ok correct cause digest exit", defaults=(None, None))

Z_MAX = 4.0  # statistical checks: z-scores within 4 sigma
EXACT_TOL = 1e-9  # exact identities, as the CLI's own check records use
# An exact identity missed by more than this is a wrong answer (correct is
# False); missed by less, the operation failed its tolerance.
WRONG = 1e-6

# exact_oracles sizes. n = 20, the enumeration cap, is left out: it alone
# takes about 16 s per pass.
KERNEL_SIZES = (12, 16, 18)
DRAWS = 100_000
W2_CASES = (("50x50", 50, 50, True), ("150x150", 150, 150, True), ("150x100", 150, 100, False))
W2_DIM = 3
CHAIN_SHAPE = (64, 16)
PATHS, HORIZON, RECOMPUTE = 200_000, 8, 200

# verify_all: the re-anchor baseline point
VERIFY_SAMPLES, VERIFY_DIM = 1_000_000, 32

# cli_mix: each round runs every command but verify-all once
CLI_COMMANDS = ("frames", "wasserstein", "decay", "markov", "dpp", "gaussian", "translate", "kl")
CLI_ROUNDS = 8
GRID_STEP = 3         # coprime with CLI_ROUNDS: pairs each first size with a second
FRAME_DIM = (2, 16)
# dpp frames stay at n <= 12, where --bruteforce is allowed: the sampler
# costs O(m n^3) per call at the default 100k draws (0.3 s at n = 12,
# 40 s at n = 64), and a gram failure skips it, so larger n would let the
# seed's share of gram failures swing the pass time
DPP_MAX_N = 12
KL_MAX_N = 32         # kl needs n_frame <= the default truncation dim
ATOMS = (2, 150)


# ------------------------------------------------------------------ inputs

def make_inputs(workload, seed, workdir):
    return {
        "verify_all": _verify_all_inputs,
        "exact_oracles": _exact_inputs,
        "cli_mix": _cli_inputs,
    }[workload](seed, workdir)


def _verify_all_inputs(seed, workdir):
    return {"seed": seed, "samples": VERIFY_SAMPLES, "dim": VERIFY_DIM}


def _random_kernel(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    k = (q * rng.uniform(0.0, 1.0, n)) @ q.T
    return (k + k.T) / 2.0


def _exact_inputs(seed, workdir):
    rng = np.random.default_rng([seed, 1])
    kernels = {n: _random_kernel(rng, n) for n in KERNEL_SIZES}
    measures = {}
    for label, n, m, uniform in W2_CASES:
        wa = None if uniform else _weights(rng, n)
        wb = None if uniform else _weights(rng, m)
        measures[label] = (rng.standard_normal((n, W2_DIM)), wa,
                           rng.standard_normal((m, W2_DIM)), wb)
    return {
        "seed": seed,
        "kernels": kernels,
        "measures": measures,
        "chain_vectors": rng.standard_normal(CHAIN_SHAPE),
        "chain_start": rng.standard_normal(CHAIN_SHAPE[1]),
    }


def _weights(rng, n):
    w = rng.uniform(0.5, 1.5, n)
    return w / w.sum()


def _grid(r):
    # round r's position in [0, 1]; the rounds cover the range end to end
    return r / (CLI_ROUNDS - 1)


def _pick(u, lo, hi):
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _cli_inputs(seed, workdir):
    """Sizes come from a fixed grid over the desk range, so the work of a
    pass barely depends on the seed; the seed draws the contents (frame
    vectors, atoms, weights, start vectors), the options and the order."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for command in CLI_COMMANDS:
        for r in range(CLI_ROUNDS):
            u, v = _grid(r), _grid(GRID_STEP * r % CLI_ROUNDS)
            path = os.path.join(workdir, f"{command}_{r}")
            argv = _CLI_ARGV[command](rng, u, v, r, path)
            fmt = "csv" if rng.random() < 0.5 else "json"
            argv += ["--format", fmt]
            out = f"{path}.out.{fmt}" if rng.random() < 0.5 else None
            if out:
                argv += ["--out", out]
            ops.append({"name": f"{command}_{r}", "argv": argv, "format": fmt, "out": out})
    order = rng.permutation(len(ops))
    return {"seed": seed, "ops": [ops[i] for i in order]}


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _frame_doc(rng, d, n):
    return {"dim": d, "vectors": rng.standard_normal((n, d)).tolist()}


def _parseval_doc(rng, d, n):
    v = rng.standard_normal((n, d))
    lam, q = np.linalg.eigh(v.T @ v)
    return {"dim": d, "vectors": (v @ (q / np.sqrt(lam)) @ q.T).tolist()}


def _measure_doc(rng, atoms, dim, uniform):
    w = np.full(atoms, 1.0 / atoms) if uniform else _weights(rng, atoms)
    return {"dim": dim, "atoms": rng.standard_normal((atoms, dim)).tolist(), "weights": w.tolist()}


def _small_vector(rng, dim):
    # ||x||^2 <= 1 keeps the importance-sampling checks at full power
    x = rng.standard_normal(dim)
    return (x / np.linalg.norm(x) * math.sqrt(rng.random())).tolist()


def _argv_frames(rng, u, v, r, path):
    d = _pick(u, *FRAME_DIM)
    return ["frames", _write(path + ".json", _frame_doc(rng, d, _pick(v, d, 4 * d)))]


def _argv_wasserstein(rng, u, v, r, path):
    # dimension and weights by round too: the LP's time varies most with
    # the dimension (1-D instances solve slowest and least evenly)
    dim = 1 + r % 4
    mu = _measure_doc(rng, _pick(u, *ATOMS), dim, r % 2 == 0)
    nu = _measure_doc(rng, _pick(_grid((r + 1) % CLI_ROUNDS), *ATOMS), dim, r // 2 % 2 == 0)
    return ["wasserstein", _write(path + ".mu.json", mu), _write(path + ".nu.json", nu)]


def _argv_decay(rng, u, v, r, path):
    mu = _measure_doc(rng, _pick(u, *ATOMS), _pick(v, *FRAME_DIM), r % 2 == 0)
    return ["decay", _write(path + ".json", mu)]


def _argv_markov(rng, u, v, r, path):
    d = _pick(u, *FRAME_DIM)
    n = _pick(v, d, 4 * d)
    argv = ["markov", _write(path + ".json", _frame_doc(rng, d, n)),
            "--horizon", str(int(rng.integers(1, 9))),
            "--paths", str(int(rng.integers(100, 5001)))]
    if r % 2:
        return argv + ["--start-vector", json.dumps(rng.standard_normal(d).tolist())]
    return argv + ["--start-index", str(int(rng.integers(0, n)))]


def _argv_dpp(rng, u, v, r, path):
    d = _pick(u, FRAME_DIM[0], DPP_MAX_N)
    n = _pick(v, d, min(4 * d, DPP_MAX_N))
    argv = ["dpp", _write(path + ".json", _frame_doc(rng, d, n))]
    return argv + ["--bruteforce"] if r % 2 else argv


def _argv_gaussian(rng, u, v, r, path):
    checks = ("isometry", "charfn", "moments", "covariance", "reconstruct", "projection")
    if r % 2 == 0:
        return ["gaussian"]
    # three checks by round, not by seed: the checks differ in cost by up
    # to 4x, so a drawn subset would make the seed set the pass time
    return ["gaussian", "--checks", ",".join(checks[(r // 2 + i) % 6] for i in range(3))]


def _argv_translate(rng, u, v, r, path):
    if r % 2 == 0:
        return ["translate"]
    return ["translate", "--x", json.dumps(_small_vector(rng, _pick(u, 1, 32))),
            "--y", json.dumps(_small_vector(rng, _pick(v, 1, 32)))]


def _argv_kl(rng, u, v, r, path):
    d = _pick(u, *FRAME_DIM)
    argv = ["kl", _write(path + ".json", _parseval_doc(rng, d, _pick(v, d, min(4 * d, KL_MAX_N))))]
    if r % 2:
        argv += ["--x", json.dumps(_small_vector(rng, d))]
    return argv


_CLI_ARGV = {
    "frames": _argv_frames, "wasserstein": _argv_wasserstein, "decay": _argv_decay,
    "markov": _argv_markov, "dpp": _argv_dpp, "gaussian": _argv_gaussian,
    "translate": _argv_translate, "kl": _argv_kl,
}


# --------------------------------------------------------------- operations

def build_ops(workload, inputs, mods):
    return {
        "verify_all": _verify_all_ops,
        "exact_oracles": _exact_ops,
        "cli_mix": _cli_ops,
    }[workload](inputs, mods)


def _verify_all_ops(inputs, mods):
    def call():
        config = mods.report.ExperimentConfig(
            "verify-all", inputs["seed"], samples=inputs["samples"], dim=inputs["dim"]
        )
        report = mods.suites.run(config)
        return report.overall_pass, report.payload_json()

    def check(result):
        overall, payload = result
        digest = hashlib.sha256(payload.encode()).hexdigest()
        return Verdict(overall, True, None if overall else "overall_pass=false", digest)

    return [Op("verify_all", call, check)]


def _judge(errors, tol=None):
    """Verdict on named errors against their tolerances (EXACT_TOL unless
    given)."""
    tol = tol or {}
    bad = [name for name, err in errors.items() if not err <= tol.get(name, EXACT_TOL)]
    wrong = [name for name, err in errors.items() if not err <= max(WRONG, tol.get(name, 0.0))]
    return Verdict(not bad, not wrong, ",".join(bad) or None)


def _z(freq, p, m):
    sd = math.sqrt(p * (1.0 - p) / m)
    return (freq - p) / sd if sd > 0 else (0.0 if freq == p else math.inf)


def _dpp_ops(n, k, seed, mods):
    def bruteforce():
        return mods.dpp.subset_distribution_bruteforce(mods.dpp.kernel_from_matrix(k))

    def check_table(table):
        codes = np.arange(1 << n)
        marginals = np.array([table[(codes >> i) & 1 == 1].sum() for i in range(n)])
        return _judge({
            "table_sum": abs(table.sum() - 1.0),
            "empty_vs_det": abs(table[0] - np.linalg.det(np.eye(n) - k)),
            "marginals_vs_diag": np.abs(marginals - np.diag(k)).max(),
            "negative_mass": max(0.0, -table.min()),
        })

    def sample():
        return mods.dpp.sample_masks(mods.dpp.kernel_from_matrix(k), DRAWS, seed)

    def check_masks(masks):
        freq = masks.mean(axis=0)
        z = [_z(f, p, DRAWS) for f, p in zip(freq, np.diag(k))]
        lam = np.linalg.eigvalsh(k)
        card = masks.sum(axis=1)
        sd = math.sqrt((lam * (1.0 - lam)).sum() / DRAWS)
        z.append((card.mean() - lam.sum()) / sd)
        bad = [i for i, zi in enumerate(z) if not abs(zi) <= Z_MAX]
        # a draw outside 4 sigma fails the operation; it is not a wrong answer
        return Verdict(not bad, masks.shape == (DRAWS, n),
                       f"inclusion_z>{Z_MAX:g} at {bad}" if bad else None)

    return [Op(f"bruteforce_n{n}", bruteforce, check_table),
            Op(f"sample_masks_n{n}", sample, check_masks)]


def _w2_reference(a, wa, b, wb):
    """Optimal transport cost by an independent route: the assignment
    problem for equal-size uniform measures (a permutation is optimal),
    else a sparse transportation LP."""
    cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    n, m = cost.shape
    if wa is None and wb is None and n == m:
        rows, cols = linear_sum_assignment(cost)
        return cost[rows, cols].mean()
    wa = np.full(n, 1.0 / n) if wa is None else wa
    wb = np.full(m, 1.0 / m) if wb is None else wb
    i, j = np.divmod(np.arange(n * m), m)
    a_eq = coo_matrix(
        (np.ones(2 * n * m), (np.concatenate([i, n + j]), np.tile(np.arange(n * m), 2))),
        shape=(n + m, n * m),
    )
    res = linprog(cost.ravel(), A_eq=a_eq.tocsr(), b_eq=np.concatenate([wa, wb]),
                  bounds=(0, None), method="highs")
    return res.fun


def _w2_ops(label, spec, mods):
    a, wa, b, wb = spec
    ref = {}

    def reference():
        if not ref:
            ref["cost"] = _w2_reference(a, wa, b, wb)
        return ref["cost"]

    def solve(x, wx, y, wy):
        mu = mods.measures.DiscreteMeasure.from_points(x, wx)
        nu = mods.measures.DiscreteMeasure.from_points(y, wy)
        d, plan = mods.measures.wasserstein2(mu, nu)
        return d, plan.matrix, mu.weights, nu.weights

    def check(target):
        def verdict(result):
            d, plan, wx, wy = result
            want = math.sqrt(max(target(), 0.0))
            return _judge({
                "distance_vs_reference": abs(d - want) / max(1.0, want),
                "row_marginals": np.abs(plan.sum(axis=1) - wx).max(),
                "col_marginals": np.abs(plan.sum(axis=0) - wy).max(),
            })
        return verdict

    return [
        Op(f"w2_{label}", lambda: solve(a, wa, b, wb), check(reference)),
        Op(f"w2_{label}_reversed", lambda: solve(b, wb, a, wa), check(reference)),
        Op(f"w2_{label}_self", lambda: solve(a, wa, a, wa), check(lambda: 0.0)),
    ]


def _chain_op(inputs, mods):
    vectors, x, seed = inputs["chain_vectors"], inputs["chain_start"], inputs["seed"]

    def call():
        chain = mods.markov.build_chain(mods.frames.build_frame(vectors))
        idx, probs = mods.markov.sample_path_indices(chain, x, HORIZON, PATHS, seed)
        again = [mods.markov.path_probability(chain, x, idx[i]) for i in range(RECOMPUTE)]
        return chain.transition_matrix, idx, probs, np.array(again)

    def check(result):
        p, idx, probs, again = result
        g = vectors @ vectors.T
        p_ref = g * g / (g * g).sum(axis=1, keepdims=True)
        c = vectors @ x
        start = c * c / (c @ c)
        ref = start[idx[:, 0]] * np.prod(p_ref[idx[:, :-1], idx[:, 1:]], axis=1)
        # the library promises bit-equal recomputation; numpy multiplies
        # in another order
        return _judge({
            "path_probability_recompute": np.abs(again - probs[:RECOMPUTE]).max(),
            "probabilities_vs_numpy": (np.abs(probs - ref) / np.maximum(ref, 1e-300)).max(),
            "transitions_vs_numpy": np.abs(p - p_ref).max(),
        }, {"path_probability_recompute": 0.0, "probabilities_vs_numpy": 1e-12,
            "transitions_vs_numpy": 1e-12})

    return Op("markov_paths", call, check)


def _exact_ops(inputs, mods):
    ops = []
    for n, k in inputs["kernels"].items():
        ops += _dpp_ops(n, k, inputs["seed"], mods)
    for label, spec in inputs["measures"].items():
        ops += _w2_ops(label, spec, mods)
    ops.append(_chain_op(inputs, mods))
    return ops


def _cli_ops(inputs, mods):
    return [_cli_op(spec, mods) for spec in inputs["ops"]]


def _cli_op(spec, mods):
    argv = spec["argv"]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = mods.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, stdout, stderr = result
        if code == 3:
            return Verdict(False, True, "exit3:" + _error_cause(stderr), exit=code)
        if code != 0 and code != 1:
            # the generator wrote a command line the CLI refuses
            return Verdict(False, False, f"exit{code}:{stderr.strip()[:120]}", exit=code)
        text = stdout
        if spec["out"]:
            with open(spec["out"]) as fh:
                text = fh.read()
        try:
            names, passes = _parse_report(text, spec["format"], argv[0])
        except (ValueError, KeyError, IndexError) as exc:
            return Verdict(False, False, f"malformed report: {exc}")
        consistent = bool(passes) and (code == 0) == all(passes)
        failing = [n for n, p in zip(names, passes) if not p]
        cause = "exit1:" + ",".join(sorted(set(failing))) if code == 1 else None
        return Verdict(code == 0 and consistent, consistent, cause, exit=code)

    return Op(spec["name"], call, check)


def _parse_report(text, fmt, command):
    if fmt == "json":
        doc = json.loads(text)
        if doc["command"] != command:
            raise ValueError(f"report for {doc['command']!r}, ran {command!r}")
        records = doc["records"]
        names = [r["name"] for r in records]
        passes = [r["pass"] for r in records]
        if doc["overall_pass"] != all(passes):
            raise ValueError("overall_pass disagrees with the records")
        return names, passes
    lines = text.strip().split("\n")
    if lines[0] != "name,value,target,std_error,z_score,pass":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if row[5] not in ("true", "false"):
            raise ValueError(f"pass column reads {row[5]!r}")
        float(row[1])
    return [row[0] for row in rows], [row[5] == "true" for row in rows]


def _error_cause(stderr):
    text = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if "leading principal minor" in text:
        return "gram_leading_minor"
    if "not positive semidefinite" in text:
        return "gram_not_psd"
    return text.split(": ", 1)[-1][:80]
