"""Smoke test of tools/pool_scaling.py at tiny sizes: every pooled
operation runs on one worker and on the default count, with equal bits."""
import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pool_scaling.py"
NAMES = ["sample_masks_n12", "sample_masks_n16", "sample_masks_n18", "markov_paths",
         "whitenoise_reduce"]


@pytest.fixture(scope="module")
def pool_scaling():
    spec = importlib.util.spec_from_file_location("pool_scaling", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("threads", [None, "3"])
def test_rows_and_table(pool_scaling, threads, monkeypatch, capsys):
    if threads is None:
        monkeypatch.delenv("FRAMES_THREADS", raising=False)
    else:
        monkeypatch.setenv("FRAMES_THREADS", threads)
    rows = pool_scaling.measure(repeats=2, scale=0.002)
    assert [r["op"] for r in rows] == NAMES
    for r in rows:
        assert r["same_bits"]
        assert r["workers1_ms"] > 0 and r["default_ms"] > 0
        assert r["speedup"] > 0
    # the setting is restored after the interleaved runs
    assert os.environ.get("FRAMES_THREADS") == threads

    assert pool_scaling.main(["--repeats", "1", "--scale", "0.002", "--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "operation"
    assert [line.split()[0] for line in lines[1:-1]] == NAMES
    assert [r["op"] for r in json.loads(lines[-1])["rows"]] == NAMES


def test_refuses_bad_arguments(pool_scaling):
    with pytest.raises(SystemExit):
        pool_scaling.main(["--repeats", "0"])
