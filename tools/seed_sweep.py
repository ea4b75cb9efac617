"""Seed sweep: run one command over a range of seeds and summarise each
record's z-scores and failures.

    python3 tools/seed_sweep.py verify-all --seeds 1:400 --samples 20000 --dim 16
    python3 tools/seed_sweep.py markov frame.json --seeds 1:50 --options '{"horizon": 3}'

Run from the repository root; the package is imported from ./src. Every
run goes through `suites.run` in this process, with seeds first..last
inclusive. For each record the summary gives the number of runs, the mean
and standard deviation of its z-score (blank for exact records, which
have none), how many runs read |z| above the z_max tolerance (4 by
default), and the seeds where the record failed. The last line counts the
runs with any failed record.
"""
import argparse
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from framemeasures.report import ExperimentConfig  # noqa: E402
from framemeasures.suites import run  # noqa: E402


def sweep(command, seeds, samples, dim, inputs=(), options=None):
    """{"records": {name: {"runs", "z_mean", "z_sd", "over_z_max",
    "failed_seeds"}}, "runs", "failed_runs"} over `seeds`, with records in
    report order; a record's runs are those that reported it, and its
    z_mean and z_sd are None when it has no z-score (exact records)."""
    records = {}
    failed_runs = []
    for seed in seeds:
        config = ExperimentConfig(command, seed=seed, samples=samples, dim=dim,
                                  inputs=tuple(inputs), options=dict(options or {}))
        z_max = config.tolerance("z_max")
        report = run(config)
        for r in report.records:
            row = records.setdefault(
                r.name, {"runs": 0, "z": [], "over_z_max": 0, "failed_seeds": []})
            row["runs"] += 1
            if math.isfinite(r.z_score):
                row["z"].append(r.z_score)
                row["over_z_max"] += abs(r.z_score) > z_max
            if not r.passed:
                row["failed_seeds"].append(seed)
        if not report.overall_pass:
            failed_runs.append(seed)
    summary = {}
    for name, row in records.items():
        z = row.pop("z")
        summary[name] = {
            "runs": row["runs"],
            "z_mean": statistics.fmean(z) if z else None,
            "z_sd": statistics.stdev(z) if len(z) > 1 else None,
            "over_z_max": row["over_z_max"],
            "failed_seeds": row["failed_seeds"],
        }
    return {"records": summary, "runs": len(seeds), "failed_runs": failed_runs}


def format_summary(result) -> str:
    width = max(len(name) for name in result["records"])
    lines = [f"{'record':<{width}}  {'runs':>5}  {'z mean':>8}  {'z sd':>6}  "
             f"{'|z|>max':>7}  failed seeds"]
    for name, row in result["records"].items():
        mean = "" if row["z_mean"] is None else f"{row['z_mean']:.3f}"
        sd = "" if row["z_sd"] is None else f"{row['z_sd']:.3f}"
        seeds = " ".join(map(str, row["failed_seeds"]))
        lines.append(f"{name:<{width}}  {row['runs']:>5}  {mean:>8}  {sd:>6}  "
                     f"{row['over_z_max']:>7}  {seeds}")
    failed = result["failed_runs"]
    lines.append(f"failed runs: {len(failed)} of {result['runs']}"
                 + (f" (seeds {' '.join(map(str, failed))})" if failed else ""))
    return "\n".join(lines)


def _seed_range(text):
    first, sep, last = text.partition(":")
    try:
        first, last = int(first), int(last if sep else first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--seeds takes FIRST:LAST, got {text!r}")
    if first < 0 or last < first:
        raise argparse.ArgumentTypeError(f"--seeds needs 0 <= FIRST <= LAST, got {text!r}")
    return range(first, last + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command")
    parser.add_argument("inputs", nargs="*", help="the command's input paths")
    parser.add_argument("--seeds", type=_seed_range, default=range(1, 11),
                        help="FIRST:LAST, inclusive (default 1:10)")
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--options", type=json.loads, default={},
                        help="the command's options as a JSON object")
    args = parser.parse_args(argv)
    result = sweep(args.command, args.seeds, args.samples, args.dim, args.inputs, args.options)
    print(format_summary(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
