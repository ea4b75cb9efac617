"""Smoke tests of tools/phase_rss.py: at a tiny size, every phase of
verify-all that ran is read and the functions it wraps are restored; one
pass of perfbench's exact_oracles books a reading to the Markov paths."""
import json
import sys

import phase_rss
import pytest

from framemeasures import dpp, suites, whitenoise


def test_phases_are_read_and_the_wrappers_removed(capsys):
    wrapped = [suites._markov_records, suites._dpp_records, dpp.sample_masks,
               whitenoise.WhiteNoiseEnsemble.reduce]
    result = phase_rss.measure(seed=3, samples=20_000, dim=8, runs=2)
    assert [suites._markov_records, suites._dpp_records, dpp.sample_masks,
            whitenoise.WhiteNoiseEnsemble.reduce] == wrapped
    peaks = result["phase_peak_mb"]
    assert tuple(peaks) == phase_rss.PHASES
    assert peaks["other"] is not None
    assert all(mb is None or 0 < mb for mb in peaks.values())
    assert result["ru_maxrss_mb"] > 0

    assert phase_rss.main(["--samples", "20000", "--dim", "8", "--runs", "1", "--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == [*phase_rss.PHASES, "ru_maxrss"]
    assert json.loads(lines[-1])["samples"] == 20_000


def test_one_exact_oracles_pass_is_read_per_operation(capsys):
    path = list(sys.path)
    assert phase_rss.main(["--workload", "exact_oracles", "--seed", "3", "--runs", "1",
                           "--json"]) == 0
    assert sys.path == path
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    peaks = result["phase_peak_mb"]
    assert [line.split()[0] for line in lines[:-1]] == [*peaks, "ru_maxrss"]
    assert list(peaks)[-2:] == ["markov_paths", "other"]
    assert 0 < peaks["markov_paths"] <= result["ru_maxrss_mb"] + 1
    assert result["workload"] == "exact_oracles" and "samples" not in result


def test_refuses_bad_arguments():
    with pytest.raises(SystemExit):
        phase_rss.main(["--runs", "0"])
