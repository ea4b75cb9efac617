"""The commands that reach each name the package exports, and the one
table of reasons for the names that no command reaches.

    python3 tools/reach.py

Run from the repository root; the package is imported from ./src. With
FRAMES_THREADS=1 and under `sys.setprofile` and `threading.setprofile`,
it runs one pass of perfbench's cli_mix workload (the 64 CLI calls that
perfbench/workloads.py builds from SEED, imported, not changed) and then
`framemeasures verify-all` at VERIFY_ALL, and books every Python function
that runs to the command running it.

An exported name is a function or class that src/framemeasures/__init__.py
imports, or a public method or property of such a class. A function,
method or property is reached when its own code runs; a class is reached
when any code of its own runs, its dataclass `__init__` included.

It prints each exported name with the commands that reach it, or with its
entry in UNREACHED, and exits 1 when an unreached name has no entry or an
entry names a reached name or no exported one. tests/test_reach.py makes
the same check, so a change that lets a command reach a name deletes its
entry. A run takes about 4 s.
"""
import argparse
import contextlib
import importlib
import inspect
import io
import os
import sys
import tempfile
import threading
import types
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import framemeasures  # noqa: E402
from framemeasures import cli  # noqa: E402

SEED = 11
VERIFY_ALL = (3, 20_000, 16)  # seed, samples, dim

_PROBABILISTIC = "probabilistic frames: ROADMAP item 15 gives them records"
_DOCUMENT = "the input documents that the commands read"
# each exported name that no command reaches, and why it stays
UNREACHED = {
    "MeasureFrameBounds": _PROBABILISTIC,
    "measure_frame_bounds": _PROBABILISTIC,
    "prob_frame_operator": _PROBABILISTIC,
    "prob_analysis": _PROBABILISTIC,
    "prob_synthesis": _PROBABILISTIC,
    "prob_gramian_apply": _PROBABILISTIC,
    "MeasureFrameBounds.is_frame": _PROBABILISTIC,
    "MeasureFrameBounds.is_tight": _PROBABILISTIC,
    "inclusion_probability": "the sampler checks of ROADMAP items 2 and 22 read it",
    "joint_density": "ROADMAP item 14 gives it an exact record on Gauss-Hermite nodes",
    "synthesis": "demo 01 shows with it that synthesis is not injective",
    "rn_density": "demo 06 evaluates the translation density with it",
    "DiscreteMeasure.normalized": "builds an input measure from unnormalized weights",
    "DiscreteMeasure.point_mass": "builds a one-atom input measure",
    "save_frame": f"writes {_DOCUMENT}",
    "frame_to_dict": f"gives {_DOCUMENT}",
    "measure_to_dict": f"gives {_DOCUMENT}",
    "mc_estimate": "the documented estimate of a sample of values",
}


def _perfbench_workloads():
    """perfbench's `workloads` module, imported from its directory."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.pop(0)


def _code(member):
    """The code object of a function, method, property or class method;
    None for any other attribute."""
    member = getattr(member, "fget", member)
    member = getattr(member, "__func__", member)
    return getattr(member, "__code__", None)


def exported() -> dict:
    """Each exported name and the set of code objects that reach it."""
    names = {}
    for name, value in vars(framemeasures).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(value):
            names[name] = {value.__code__}
        elif inspect.isclass(value):
            members = {attr: _code(member) for attr, member in vars(value).items()}
            names[name] = {code for code in members.values() if code}
            names.update((f"{name}.{attr}", {code}) for attr, code in members.items()
                         if code and not attr.startswith("_"))
    return names


def _verify_all():
    seed, samples, dim = VERIFY_ALL
    argv = ["verify-all", "--seed", str(seed), "--samples", str(samples), "--dim", str(dim),
            "--out", os.devnull]
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)


def trace() -> dict:
    """The code objects that run under each command, by command."""
    workloads = _perfbench_workloads()
    runs = {}
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with tempfile.TemporaryDirectory() as workdir, \
            mock.patch.dict(os.environ, {"FRAMES_THREADS": "1"}):
        inputs = workloads.make_inputs("cli_mix", SEED, workdir)
        ops = workloads.build_ops("cli_mix", inputs, types.SimpleNamespace(cli=cli))
        calls = [(spec["argv"][0], op.call) for spec, op in zip(inputs["ops"], ops)]
        calls.append(("verify-all", _verify_all))
        sys.setprofile(profile)
        threading.setprofile(profile)
        try:
            for command, call in calls:
                seen = runs.setdefault(command, set())
                call()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return runs


def reach(runs: dict | None = None) -> dict:
    """Each exported name and the sorted commands that reach it."""
    runs = trace() if runs is None else runs
    return {name: sorted(command for command, seen in runs.items() if codes & seen)
            for name, codes in sorted(exported().items())}


def problems(reached: dict, reasons: dict = UNREACHED) -> list:
    """What breaks the rule that a name is reached by a command or has a
    reason, and not both; empty when it holds."""
    out = [f"{name}: no command reaches it and UNREACHED gives no reason"
           for name, commands in reached.items() if not commands and name not in reasons]
    for name in reasons:
        if name not in reached:
            out.append(f"{name}: UNREACHED gives a reason, but the package exports no such name")
        elif reached[name]:
            out.append(f"{name}: UNREACHED gives a reason, but {', '.join(reached[name])} "
                       f"reach it")
    return out


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    reached = reach()
    width = max(map(len, reached))
    for name, commands in reached.items():
        shown = ", ".join(commands) or f"unreached: {UNREACHED.get(name, 'no reason given')}"
        print(f"{name:<{width}}  {shown}")
    found = problems(reached)
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
