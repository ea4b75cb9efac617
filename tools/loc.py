"""Non-blank lines of each module of src/framemeasures, and their total.

    python3 tools/loc.py                  # the working tree
    python3 tools/loc.py --against HEAD~1 # a git revision beside the tree

With --against, each module of the revision is read with
`git show REV:src/framemeasures/<module>`, and each row gives the
revision's count, the tree's and their difference; a module on one side
only counts 0 on the other.
"""
import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/framemeasures"


def non_blank(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())


def tree_counts(root: Path = ROOT) -> dict[str, int]:
    return {p.name: non_blank(p.read_text()) for p in sorted((root / PACKAGE).glob("*.py"))}


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout


def revision_counts(rev: str, root: Path = ROOT) -> dict[str, int]:
    names = _git(root, "ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {name: non_blank(_git(root, "show", f"{rev}:{PACKAGE}/{name}"))
            for name in sorted(names) if name.endswith(".py")}


def table(tree: dict[str, int], rev: str | None = None, old: dict[str, int] | None = None):
    """Rows of the printed table, the header first and the total last."""
    if old is None:
        rows = [("module", "tree"), *tree.items(), ("total", sum(tree.values()))]
        return [f"{name:<16}{count:>7}" for name, count in rows]
    names = sorted(set(tree) | set(old))
    rows = [(name, old.get(name, 0), tree.get(name, 0)) for name in names]
    rows.append(("total", sum(old.values()), sum(tree.values())))
    lines = [f"{'module':<16}{rev:>12}{'tree':>7}{'change':>8}"]
    lines += [f"{name:<16}{a:>12}{b:>7}{b - a:>+8}" for name, a, b in rows]
    return lines


def main(argv=None, root: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="a git revision to count beside the tree")
    args = parser.parse_args(argv)
    old = None
    if args.against is not None:
        try:
            old = revision_counts(args.against, root)
        except subprocess.CalledProcessError as err:
            print(f"git cannot read {PACKAGE} at {args.against}: {err.stderr.strip()}",
                  file=sys.stderr)
            return 2
    print("\n".join(table(tree_counts(root), args.against, old)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
