"""Resident peak of each phase of verify-all, or of each operation of a
perfbench workload, read inside the process.

    python3 tools/phase_rss.py --seed 1 --samples 1000000 --dim 32 --runs 3
    FRAMES_THREADS=2 python3 tools/phase_rss.py --runs 3 --json
    python3 tools/phase_rss.py --workload exact_oracles --seed 701 --runs 1

Run from the repository root on Linux; the package is imported from
./src. While a thread reads the resident set from /proc/self/statm every
0.5 ms, each reading is booked to the phase running when it was taken,
the innermost one where phases nest.

With the default --workload verify-all, after one warm-up run
`verify-all` runs --runs times in this process, each after
`malloc_trim(0)` (as perfbench does between operations). Its phases:
- markov: `suites._markov_records`, the Markov path sampler;
- dpp_sampling: `dpp.sample_masks`;
- dpp_moments: the rest of `suites._dpp_records` (the cardinality
  estimate, the tabulation of the draws and the enumeration oracle);
- pass: `WhiteNoiseEnsemble.reduce`, the one white-noise pass;
- other: everything else.

With --workload exact_oracles or cli_mix, the operations are perfbench's
own, built by perfbench/workloads.py from --seed (imported, not
changed). After one warm-up pass, --runs passes run, each operation (its
call and its check, as perfbench runs them) followed by `malloc_trim(0)`;
each operation is a phase, and "other" is the time between them.

It prints each phase's highest reading over the runs and the process's
ru_maxrss, both in MB of 2^20 bytes as perfbench's `peak_rss_mb`, so the
phase that sets the peak can be read off; --json adds them as one JSON
line. Readings sample the resident set, so a peak shorter than the
interval can be missed, and a phase shorter than it may get no reading.
While it reads, the interpreter hands its lock over every 0.1 ms
instead of every 5 ms, which slows the runs but not their memory.
"""
import argparse
import ctypes
import functools
import importlib
import json
import os
import resource
import sys
import tempfile
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from framemeasures import dpp, suites, whitenoise  # noqa: E402
from framemeasures.report import ExperimentConfig  # noqa: E402

PHASES = ("markov", "dpp_sampling", "dpp_moments", "pass", "other")
WORKLOADS = ("verify-all", "exact_oracles", "cli_mix")
INTERVAL_S = 0.0005
PAGE = os.sysconf("SC_PAGE_SIZE")


def _resident_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE / 2**20


class PhaseSampler:
    """Books resident-set readings to the innermost running phase of
    `phases`, whose last one runs when no other does."""

    def __init__(self, phases=PHASES):
        self.stack = [phases[-1]]
        self.peaks = dict.fromkeys(phases)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(INTERVAL_S):
            phase, mb = self.stack[-1], _resident_mb()
            self.peaks[phase] = max(self.peaks[phase] or 0.0, mb)

    def phase(self, name, fn):
        """`fn` wrapped so that its calls run as phase `name`."""
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
        return wrapped

    def __enter__(self):
        # the reader needs the interpreter lock to take a reading, so it is
        # handed over more often than the default every 5 ms
        self._interval = sys.getswitchinterval()
        sys.setswitchinterval(INTERVAL_S / 5)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5.0)
        sys.setswitchinterval(self._interval)


def _trim():
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except AttributeError:  # not glibc
        pass


def measure(seed: int, samples: int, dim: int, runs: int) -> dict:
    config = ExperimentConfig("verify-all", seed=seed, samples=samples, dim=dim)
    suites.run(config)  # warm-up: imports, lazy set-up, first page faults
    sampler = PhaseSampler()
    wrapped = [(suites, "_markov_records", "markov"), (dpp, "sample_masks", "dpp_sampling"),
               (suites, "_dpp_records", "dpp_moments"),
               (whitenoise.WhiteNoiseEnsemble, "reduce", "pass")]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in wrapped]
    try:
        for owner, name, phase in wrapped:
            setattr(owner, name, sampler.phase(phase, getattr(owner, name)))
        with sampler:
            for _ in range(runs):
                _trim()
                suites.run(config)
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    return _result(sampler)


def _perfbench():
    """perfbench's `spans` and `workloads` modules, imported from its directory."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        return importlib.import_module("spans"), importlib.import_module("workloads")
    finally:
        sys.path.pop(0)


def measure_workload(workload: str, seed: int, runs: int) -> dict:
    """Peak of each operation of a perfbench workload over `runs` passes."""
    spans, workloads = _perfbench()
    mods = types.SimpleNamespace(
        **{name: importlib.import_module(f"framemeasures.{name}") for name in spans.LAYERS})
    with tempfile.TemporaryDirectory() as workdir:
        ops = workloads.build_ops(workload, workloads.make_inputs(workload, seed, workdir), mods)
        sampler = PhaseSampler((*(op.name for op in ops), "other"))
        for op in ops:  # warm-up
            _checked(op)
            _trim()
        with sampler:
            for _ in range(runs):
                for op in ops:
                    sampler.phase(op.name, _checked)(op)
                    _trim()
    return _result(sampler)


def _checked(op):
    """An operation's call and its check, as a perfbench pass runs them."""
    return op.check(op.call())


def _result(sampler: PhaseSampler) -> dict:
    return {"phase_peak_mb": {p: v and round(v, 1) for p, v in sampler.peaks.items()},
            "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="verify-all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--json", action="store_true", help="also print the result as JSON")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if not os.path.exists("/proc/self/statm"):
        parser.error("this system has no /proc/self/statm to read")
    if args.workload == "verify-all":
        result = measure(args.seed, args.samples, args.dim, args.runs)
        sizes = {"samples": args.samples, "dim": args.dim}
    else:
        result = measure_workload(args.workload, args.seed, args.runs)
        sizes = {}
    width = max(map(len, [*result["phase_peak_mb"], "ru_maxrss"]))
    for phase, mb in result["phase_peak_mb"].items():
        print(f"{phase:>{width}}  " + ("no reading" if mb is None else f"{mb:7.1f} MB"))
    print(f"{'ru_maxrss':>{width}}  {result['ru_maxrss_mb']:7.1f} MB")
    if args.json:
        print(json.dumps(dict(result, workload=args.workload, seed=args.seed, **sizes,
                              runs=args.runs, threads=os.environ.get("FRAMES_THREADS"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
