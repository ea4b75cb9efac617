"""Smoke test of tools/seed_sweep.py: the shape of its summary."""
import importlib.util
import math
from pathlib import Path

import pytest

from framemeasures.report import ExperimentConfig
from framemeasures.suites import run

TOOL = Path(__file__).resolve().parents[1] / "tools" / "seed_sweep.py"


@pytest.fixture(scope="module")
def seed_sweep():
    spec = importlib.util.spec_from_file_location("seed_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_shape(seed_sweep, capsys):
    seeds = range(1, 4)
    result = seed_sweep.sweep("verify-all", seeds, 2000, 8)
    records = run(ExperimentConfig("verify-all", seed=1, samples=2000, dim=8)).records
    assert list(result["records"]) == [r.name for r in records]
    assert result["runs"] == 3
    assert set(result["failed_runs"]) <= set(seeds)
    for r in records:
        row = result["records"][r.name]
        assert row["runs"] == 3
        assert set(row["failed_seeds"]) <= set(result["failed_runs"])
        assert 0 <= row["over_z_max"] <= 3
        # Monte-Carlo records have z-scores; exact ones have none
        if math.isfinite(r.z_score):
            assert isinstance(row["z_mean"], float) and isinstance(row["z_sd"], float)
        else:
            assert row["z_mean"] is None and row["z_sd"] is None

    assert seed_sweep.main(["verify-all", "--seeds", "1:3", "--samples", "2000", "--dim", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["record", "runs"]
    assert len(lines) == len(records) + 2
    assert lines[-1].startswith(f"failed runs: {len(result['failed_runs'])} of 3")
