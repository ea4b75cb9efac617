"""Golden files: diff what the running code prints and writes against the
files under tests/golden/, or regenerate those files.

    python3 tools/payload_diff.py           # print what moved; exit 1 if anything did
    python3 tools/payload_diff.py --write   # regenerate tests/golden/

Run from the repository root; the package is imported from ./src. Three
kinds of file are pinned, each byte for byte:
- `Report.payload_json()` of `verify-all` at each (seed, samples, dim) of
  CONFIGS, plus a newline, diffed record by record;
- the stdout of each demo under demos/ (golden/demos/<name>.txt);
- the `--draws-csv` and `--paths-csv` files of CSV_RUNS, whose frame is
  CSV_FRAME;
the last two diffed line by line. The bits depend on numpy, scipy
(`ndtri`), the BLAS and the BLAS kernel the CPU selects, so
`versions.json` beside the files records the versions and the kernel
they were made with. A change that moves a stream, a statistic
or a bound on purpose regenerates the files, and quotes this tool's
output as its evidence.
"""
import argparse
import ctypes
import difflib
import glob
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from framemeasures import build_frame, save_frame  # noqa: E402
from framemeasures.cli import main as cli_main  # noqa: E402
from framemeasures.report import ExperimentConfig  # noqa: E402
from framemeasures.suites import run  # noqa: E402

GOLDEN = os.path.join(ROOT, "tests", "golden")
VERSIONS = os.path.join(GOLDEN, "versions.json")
WRITE_COMMAND = "python3 tools/payload_diff.py --write"
# (seed, samples, dim) of each golden run
CONFIGS = ((1, 100_000, 32), (7, 100_000, 32), (11, 20_000, 16), (3, 1_000_000, 32))
FIELDS = ("value", "target", "std_error", "z_score", "pass")
SHOWN = 40  # diff lines that a message shows
DEMOS = tuple(sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))))
# five vectors in R^3 whose kernel has eigenvalues 1, two inside (0, 1)
# and two 0, so draws take one to three points
CSV_FRAME = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 0.0), (0.0, 1.0, 1.0))
# CLI arguments of each pinned CSV file; {frame} and {csv} stand for the
# paths of CSV_FRAME's document and of the file
CSV_RUNS = {
    "dpp_draws_seed5_2000.csv": ("dpp", "{frame}", "--seed", "5", "--samples", "2000",
                                 "--draws-csv", "{csv}"),
    "markov_paths_seed5_2000.csv": ("markov", "{frame}", "--seed", "5", "--paths", "2000",
                                    "--horizon", "4", "--paths-csv", "{csv}"),
}


def golden_path(seed, samples, dim):
    return os.path.join(GOLDEN, f"verify-all_seed{seed}_{samples}x{dim}.json")


def payload(seed, samples, dim) -> str:
    return run(ExperimentConfig("verify-all", seed=seed, samples=samples, dim=dim)).payload_json()


def demo_golden_path(demo):
    return os.path.join(GOLDEN, "demos", os.path.basename(demo).removesuffix(".py") + ".txt")


def run_python(*args) -> subprocess.CompletedProcess:
    """`python args`, in a fresh process with ./src first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def csv_text(name) -> str:
    """The CSV file that the CLI writes for CSV_RUNS[name]."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"frame": os.path.join(tmp, "frame.json"), "csv": os.path.join(tmp, name)}
        save_frame(build_frame(CSV_FRAME), paths["frame"])
        argv = [arg.format(**paths) for arg in CSV_RUNS[name]] + ["--out", os.devnull]
        if cli_main(argv) != 0:
            raise RuntimeError(f"framemeasures {' '.join(argv)} failed")
        with open(paths["csv"], newline="") as fh:
            return fh.read()


def blas_kernel() -> str:
    """The kernel that numpy's bundled OpenBLAS chose for this CPU (say
    "SkylakeX" or "Haswell"), or "unknown" without that library or its
    core-name function."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def running_versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}", "blas_kernel": blas_kernel()}


def recorded_versions() -> dict:
    with open(VERSIONS) as fh:
        return json.load(fh)


def diff(golden: str, current: str) -> list:
    """What moved from the `golden` payload text to `current`, one line per
    field; empty iff the two texts are identical."""
    if golden == current:
        return []
    old, new = json.loads(golden), json.loads(current)
    lines = [f"{key}: {old.get(key)!r} -> {new.get(key)!r}"
             for key in sorted((set(old) | set(new)) - {"records"})
             if old.get(key) != new.get(key)]
    old_records = {r["name"]: r for r in old["records"]}
    new_records = {r["name"]: r for r in new["records"]}
    for name in list(old_records) + [n for n in new_records if n not in old_records]:
        if name not in new_records:
            lines.append(f"{name}: removed")
        elif name not in old_records:
            lines.append(f"{name}: added")
        else:
            lines.extend(f"{name}.{f}: {old_records[name][f]!r} -> {new_records[name][f]!r}"
                         for f in FIELDS if old_records[name][f] != new_records[name][f])
    # say so rather than stay silent when only the text differs: records
    # reordered, say, or a -0.0 for a 0.0
    return lines or ["payload text differs, but no field moved"]


def text_diff(golden: str, current: str) -> list:
    """The lines that moved from `golden` to `current`, as a unified diff
    without context lines; empty iff the two texts are identical."""
    if golden == current:
        return []
    lines = list(difflib.unified_diff(golden.splitlines(), current.splitlines(),
                                      "golden", "current", n=0, lineterm=""))
    return lines or ["text differs in its line ends only"]


def moved_count(lines: list) -> int:
    """How many lines moved in a diff of `diff` or `text_diff`: every line
    of a payload diff, and the `-` and `+` lines of a text diff, not its
    `---`, `+++` and `@@` headers."""
    if lines[:2] != ["--- golden", "+++ current"]:
        return len(lines)
    return sum(not line.startswith("@@") for line in lines[2:])


def version_note() -> str:
    """Empty when the running versions match the recorded ones; else a line
    naming both and the command that regenerates the files."""
    recorded, running = recorded_versions(), running_versions()
    if recorded == running:
        return ""
    return (f"golden files were made with {recorded}, this run has {running}; "
            f"if the change is the platform's, regenerate them with `{WRITE_COMMAND}`")


def failure(what: str, lines: list) -> str:
    """The message of a moved golden file: its diff lines, then the
    version note when the versions differ."""
    note = version_note()
    return f"{what} moved:\n" + "\n".join(lines[:SHOWN]) + (f"\n{note}" if note else "")


def _read(path) -> str:
    # newline="": read the bytes as they are, with no line-end translation
    with open(path, newline="") as fh:
        return fh.read()


def check(seed, samples, dim) -> list:
    """Diff lines of one golden file against the running code's payload;
    empty iff the file holds that payload and a newline, byte for byte."""
    return diff(_read(golden_path(seed, samples, dim)), payload(seed, samples, dim) + "\n")


def check_demo(demo, stdout: str) -> list:
    """Diff lines of a demo's golden file against its `stdout`."""
    return text_diff(_read(demo_golden_path(demo)), stdout)


def check_csv(name) -> list:
    """Diff lines of a golden CSV file against the one the CLI writes now."""
    return text_diff(_read(os.path.join(GOLDEN, name)), csv_text(name))


def _demo_stdout(demo) -> str:
    proc = run_python(demo)
    if proc.returncode:
        raise RuntimeError(f"{demo} failed:\n{proc.stderr[-2000:]}")
    return proc.stdout


def write():
    os.makedirs(os.path.join(GOLDEN, "demos"), exist_ok=True)
    files = {golden_path(*config): payload(*config) + "\n" for config in CONFIGS}
    files.update((demo_golden_path(demo), _demo_stdout(demo)) for demo in DEMOS)
    files.update((os.path.join(GOLDEN, name), csv_text(name)) for name in CSV_RUNS)
    files[VERSIONS] = json.dumps(running_versions(), indent=2) + "\n"
    for path, text in files.items():
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return len(files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the golden files")
    args = parser.parse_args(argv)
    if args.write:
        print(f"wrote {write()} files to {os.path.relpath(GOLDEN)}")
        return 0
    results = [(f"seed {c[0]}, {c[1]}x{c[2]}", check(*c)) for c in CONFIGS]
    results += [(os.path.basename(demo), check_demo(demo, _demo_stdout(demo))) for demo in DEMOS]
    results += [(name, check_csv(name)) for name in CSV_RUNS]
    moved = False
    for label, lines in results:
        moved = moved or bool(lines)
        print(f"{label}: " + (f"{moved_count(lines)} moved" if lines else "nothing moved"))
        print("".join(f"  {line}\n" for line in lines[:SHOWN]), end="")
    note = version_note()
    if moved and note:
        print(note)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
