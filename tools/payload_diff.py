"""Golden verify-all payloads: diff the running code's payloads against the
files under tests/golden/, record by record, or regenerate those files.

    python3 tools/payload_diff.py           # print what moved; exit 1 if anything did
    python3 tools/payload_diff.py --write   # regenerate tests/golden/

Run from the repository root; the package is imported from ./src. Each
golden file holds `Report.payload_json()` of `verify-all` at one
(seed, samples, dim) of CONFIGS, plus a newline. The bits depend on numpy,
scipy (`ndtri`) and the BLAS, so `versions.json` beside the files records
the versions they were made with. A change that moves a stream, a
statistic or a bound on purpose regenerates the files, and quotes this
tool's output as its evidence.
"""
import argparse
import json
import os
import sys

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from framemeasures.report import ExperimentConfig  # noqa: E402
from framemeasures.suites import run  # noqa: E402

GOLDEN = os.path.join(ROOT, "tests", "golden")
VERSIONS = os.path.join(GOLDEN, "versions.json")
WRITE_COMMAND = "python3 tools/payload_diff.py --write"
# (seed, samples, dim) of each golden run
CONFIGS = ((1, 100_000, 32), (7, 100_000, 32), (11, 20_000, 16), (3, 1_000_000, 32))
FIELDS = ("value", "target", "std_error", "z_score", "pass")


def golden_path(seed, samples, dim):
    return os.path.join(GOLDEN, f"verify-all_seed{seed}_{samples}x{dim}.json")


def payload(seed, samples, dim) -> str:
    return run(ExperimentConfig("verify-all", seed=seed, samples=samples, dim=dim)).payload_json()


def running_versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


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


def version_note() -> str:
    """Empty when the running versions match the recorded ones; else a line
    naming both and the command that regenerates the files."""
    recorded, running = recorded_versions(), running_versions()
    if recorded == running:
        return ""
    return (f"golden files were made with {recorded}, this run has {running}; "
            f"if the change is the platform's, regenerate them with `{WRITE_COMMAND}`")


def check(seed, samples, dim) -> list:
    """Diff lines of one golden file against the running code's payload;
    empty iff the file holds that payload and a newline, byte for byte."""
    # newline="": read the bytes as they are, with no line-end translation
    with open(golden_path(seed, samples, dim), newline="") as fh:
        golden = fh.read()
    return diff(golden, payload(seed, samples, dim) + "\n")


def write():
    os.makedirs(GOLDEN, exist_ok=True)
    for config in CONFIGS:
        with open(golden_path(*config), "w") as fh:
            fh.write(payload(*config) + "\n")
    with open(VERSIONS, "w") as fh:
        fh.write(json.dumps(running_versions(), indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the golden files")
    args = parser.parse_args(argv)
    if args.write:
        write()
        print(f"wrote {len(CONFIGS)} payloads and versions.json to {os.path.relpath(GOLDEN)}")
        return 0
    moved = False
    for config in CONFIGS:
        lines = check(*config)
        moved = moved or bool(lines)
        print(f"seed {config[0]}, {config[1]}x{config[2]}: "
              + (f"{len(lines)} moved" if lines else "nothing moved"))
        print("".join(f"  {line}\n" for line in lines), end="")
    note = version_note()
    if moved and note:
        print(note)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
