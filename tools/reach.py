"""The commands that reach each public name of the package, and the one
table of reasons for the names that no command reaches.

    python3 tools/reach.py

Run from the repository root; the package is imported from ./src. With
FRAMES_THREADS=1 and under `sys.setprofile` and `threading.setprofile`,
it runs one pass of perfbench's cli_mix workload (the 64 CLI calls that
perfbench/workloads.py builds from SEED, imported, not changed) and then
`framemeasures verify-all` at VERIFY_ALL, and books every Python function
that runs to the command running it.

A public name is a function or class, other than an exception class,
that a module of src/framemeasures defines under a name without a
leading underscore, or a public method or property of such a class; it
is keyed by its module and qualified name (`report.Report.to_json`). A
function, method or property is reached when its own code runs; a class
is reached when any code of its own runs, its dataclass `__init__`
included. The package is imported before the trace starts, so code that
runs only at import is not reached.

It prints each public name with the commands that reach it, or with its
entry in UNREACHED, and exits 1 when an unreached name has no entry or an
entry names a reached name or no public one. tests/test_reach.py makes
the same check, so a change that lets a command reach a name deletes its
entry. A run takes about 4 s.
"""
import argparse
import contextlib
import importlib
import inspect
import io
import os
import pkgutil
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
_TABLE = "the command table builds them at import, before the trace starts"
# each public name that no command reaches, and why it stays
UNREACHED = {
    "measures.weighted_frame": _PROBABILISTIC,
    "measures.prob_analysis": _PROBABILISTIC,
    "measures.prob_synthesis": _PROBABILISTIC,
    "dpp.inclusion_probability": "the sampler checks of ROADMAP items 2 and 22 read it",
    "whitenoise.joint_density": "ROADMAP item 14 gives it an exact record on Gauss-Hermite nodes",
    "frames.synthesis": "demo 01 shows with it that synthesis is not injective",
    "translation.rn_density": "demo 06 evaluates the translation density with it",
    "measures.DiscreteMeasure.normalized": "builds an input measure from unnormalized weights",
    "measures.DiscreteMeasure.point_mass": "builds a one-atom input measure",
    "measures.DiscreteMeasure.n_atoms": "prob_synthesis reads it; perfbench sizes a W2 span by it",
    "frames.save_frame": f"writes {_DOCUMENT}",
    "frames.frame_to_dict": f"gives {_DOCUMENT}",
    "measures.measure_to_dict": f"gives {_DOCUMENT}",
    "report.mc_estimate": "the documented estimate of a sample of values",
    "report.Report.payload_json": "the golden files and perfbench's verify_all digest read it",
    "streams.normal_matrix": "perfbench's traced probe calls it; ROADMAP item 21 deletes it",
    "suites.Command": _TABLE,
    "suites.Input": _TABLE,
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


def public() -> dict:
    """Each public name and the set of code objects that reach it."""
    names = {}
    for info in pkgutil.iter_modules(framemeasures.__path__):
        module = importlib.import_module(f"{framemeasures.__name__}.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            key = f"{info.name}.{name}"
            # a cached function is reached through the function it wraps
            value = inspect.unwrap(value)
            if inspect.isfunction(value):
                names[key] = {value.__code__}
            elif inspect.isclass(value) and not issubclass(value, BaseException):
                members = {attr: _code(member) for attr, member in vars(value).items()}
                names[key] = {code for code in members.values() if code}
                names.update((f"{key}.{attr}", {code}) for attr, code in members.items()
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
        # the cached parser runs its own code only on a call that misses
        cli.build_parser.cache_clear()
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
    """Each public name and the sorted commands that reach it."""
    runs = trace() if runs is None else runs
    return {name: sorted(command for command, seen in runs.items() if codes & seen)
            for name, codes in sorted(public().items())}


def problems(reached: dict, reasons: dict = UNREACHED) -> list:
    """What breaks the rule that a name is reached by a command or has a
    reason, and not both; empty when it holds."""
    out = [f"{name}: no command reaches it and UNREACHED gives no reason"
           for name, commands in reached.items() if not commands and name not in reasons]
    for name in reasons:
        if name not in reached:
            out.append(f"{name}: UNREACHED gives a reason, but the package has no such public name")
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
