"""Smoke test of tools/loc.py on a small git repository made here."""
import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "loc.py"


@pytest.fixture(scope="module")
def loc():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def repo(tmp_path):
    # one commit of two modules, then a tree that edits one, adds one and
    # deletes one
    package = tmp_path / "src" / "framemeasures"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\n\ny = 2\n")
    (package / "b.py").write_text("  \nz = 3\n")
    (package / "notes.txt").write_text("not a module\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid"]
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(["git", "add", "-A"], cwd=tmp_path, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "first"], cwd=tmp_path, check=True)
    (package / "a.py").write_text("x = 1\n")
    (package / "b.py").unlink()
    (package / "c.py").write_text("w = 4\nv = 5\n\n")
    return tmp_path


def test_counts_the_tree_and_a_revision(loc, repo, capsys):
    assert loc.tree_counts(repo) == {"a.py": 1, "c.py": 2}
    assert loc.revision_counts("HEAD", repo) == {"a.py": 2, "b.py": 1}
    assert loc.main([], root=repo) == 0
    assert capsys.readouterr().out.split() == ["module", "tree", "a.py", "1", "c.py", "2",
                                               "total", "3"]
    assert loc.main(["--against", "HEAD"], root=repo) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "HEAD", "tree", "change"], ["a.py", "2", "1", "-1"],
                    ["b.py", "1", "0", "-1"], ["c.py", "0", "2", "+2"],
                    ["total", "3", "3", "+0"]]


def test_an_unknown_revision_exits_2(loc, repo, capsys):
    assert loc.main(["--against", "no-such-rev"], root=repo) == 2
    assert "no-such-rev" in capsys.readouterr().err


def test_counts_this_package(loc):
    counts = loc.tree_counts()
    assert "dpp.py" in counts and all(n > 0 for n in counts.values())
