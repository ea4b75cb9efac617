"""Pool scaling: time the library's pooled operations with one worker and
with the default worker count, interleaved, and print the speed-ups.

    python3 tools/pool_scaling.py --repeats 9
    FRAMES_THREADS=2 python3 tools/pool_scaling.py --repeats 9 --json

Run from the repository root; the package is imported from ./src. The
operations are those that run on the `streams.map_blocks` pool:
`dpp.sample_masks` at 100k draws for n = 12, 16 and 18, Markov
`sample_path_indices` for 200k paths of 8 steps over 64 states, and one
`WhiteNoiseEnsemble.reduce` pass at 1M x 32. Each repeat runs every
operation once with FRAMES_THREADS=1 and once with the default (the
environment's FRAMES_THREADS, else the CPU count), in alternating order,
and checks that both give the same bits. --scale multiplies the draw,
path and sample counts. The table gives each operation's median times
and the speed-up of the default over one worker; --json adds the rows as
one JSON line.
"""
import argparse
import contextlib
import hashlib
import json
import os
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from framemeasures import dpp, frames, markov, streams, whitenoise  # noqa: E402

DPP_SIZES = (12, 16, 18)
DRAWS = 100_000
CHAIN_SHAPE, HORIZON, PATHS = (64, 16), 8, 200_000
ENSEMBLE_SAMPLES, ENSEMBLE_DIM = 1_000_000, 32


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def operations(scale: float = 1.0, seed: int = 26):
    """[(name, call)]: each call runs one pooled operation and returns its
    result as a tuple of arrays."""
    rng = np.random.default_rng(seed)
    ops = []
    draws = max(1, round(DRAWS * scale))
    for n in DPP_SIZES:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        kernel = dpp.kernel_from_matrix((q * rng.uniform(0.0, 1.0, n)) @ q.T)
        ops.append((f"sample_masks_n{n}",
                    lambda k=kernel: (dpp.sample_masks(k, draws, seed),)))
    chain = markov.build_chain(frames.build_frame(rng.standard_normal(CHAIN_SHAPE)))
    x = rng.standard_normal(CHAIN_SHAPE[1])
    paths = max(1, round(PATHS * scale))
    ops.append(("markov_paths",
                lambda: markov.sample_path_indices(chain, x, HORIZON, paths, seed)))
    samples = max(2, round(ENSEMBLE_SAMPLES * scale))
    probe = rng.standard_normal(ENSEMBLE_DIM)

    def reduce():
        ens = whitenoise.WhiteNoiseEnsemble(ENSEMBLE_DIM, samples, seed=seed)
        est = ens.reduce([whitenoise.ito_isometry(probe)])[0]
        return (np.array([est.value, est.std_error]),)

    ops.append(("whitenoise_reduce", reduce))
    return ops


@contextlib.contextmanager
def _threads(value):
    """FRAMES_THREADS set to `value` (None: as the environment has it)."""
    saved = os.environ.get("FRAMES_THREADS")
    if value is not None:
        os.environ["FRAMES_THREADS"] = value
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("FRAMES_THREADS", None)
        else:
            os.environ["FRAMES_THREADS"] = saved


def measure(repeats: int = 9, scale: float = 1.0):
    """One row per operation: {"op", "workers1_ms", "default_ms",
    "speedup", "same_bits"}, the times medians over `repeats`."""
    settings = ("1", None)
    rows = []
    for name, call in operations(scale):
        times = {s: [] for s in settings}
        digests = set()
        for rep in range(repeats):
            for setting in settings[:: 1 if rep % 2 == 0 else -1]:
                with _threads(setting):
                    start = time.perf_counter()
                    result = call()
                    times[setting].append(time.perf_counter() - start)
                    digests.add(_digest(result))
                    del result
        one, default = (statistics.median(times[s]) * 1e3 for s in settings)
        rows.append({"op": name, "workers1_ms": one, "default_ms": default,
                     "speedup": one / default, "same_bits": len(digests) == 1})
    return rows


def format_table(rows) -> str:
    width = max(len(r["op"]) for r in rows)
    lines = [f"{'operation':<{width}}  {'1 worker':>10}  "
             f"{f'default ({streams.worker_count()})':>12}  {'speed-up':>8}  bits"]
    for r in rows:
        lines.append(f"{r['op']:<{width}}  {r['workers1_ms']:>8.1f}ms  "
                     f"{r['default_ms']:>10.1f}ms  {r['speedup']:>7.2f}x  "
                     f"{'same' if r['same_bits'] else 'DIFFER'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies the draw, path and sample counts (default 1)")
    parser.add_argument("--json", action="store_true", help="also print the rows as JSON")
    args = parser.parse_args(argv)
    if args.repeats < 1 or not args.scale > 0:
        parser.error("--repeats must be at least 1 and --scale positive")
    rows = measure(args.repeats, args.scale)
    print(format_table(rows))
    if args.json:
        print(json.dumps({"workers": streams.worker_count(), "rows": rows}))
    return 0 if all(r["same_bits"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
