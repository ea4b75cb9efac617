import csv
import io
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import framemeasures as fm
from framemeasures import frames as frames_mod
from framemeasures import streams
from framemeasures.cli import build_parser, config_from_args, main
from framemeasures.errors import ConfigError, InvalidGramian
from framemeasures.report import (
    CheckRecord,
    ExperimentConfig,
    Report,
    csv_text,
    report_csv_text,
)
from framemeasures.suites import COMMANDS, run


def _csv_values(text):
    """Each record's value in a report CSV, by name."""
    return {row["name"]: float(row["value"]) for row in csv.DictReader(io.StringIO(text))}


@pytest.fixture()
def mb_path(tmp_path, mb):
    path = tmp_path / "mb.json"
    fm.save_frame(mb, path)
    return str(path)


@pytest.fixture()
def measure_path(tmp_path):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps({"dim": 2, "atoms": [[1.0, 0.0], [0.0, 1.0]],
                                "weights": [0.5, 0.5]}))
    return str(path)


@pytest.fixture()
def onb_path(tmp_path, onb2):
    path = tmp_path / "onb.json"
    fm.save_frame(onb2, path)
    return str(path)


class TestConfig:
    def test_strict_tolerances(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(command="frames", tolerances={"z_mx": 4.0})

    def test_strict_options(self):
        # an option its command does not have is refused, not ignored
        with pytest.raises(ConfigError, match=r"known: \['n_max'\]"):
            ExperimentConfig(command="decay", options={"n_maxx": 3})
        with pytest.raises(ConfigError, match=r"\['bogus'\].*known: \[\]"):
            ExperimentConfig(command="verify-all", options={"bogus": 1})
        with pytest.raises(ConfigError, match="'check'"):
            ExperimentConfig(command="gaussian", options={"check": ["isometry"]})

    def test_requires_command(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(command="nosuch")

    @pytest.mark.parametrize("field, value", [
        ("seed", "abc"), ("seed", 1.9), ("seed", True), ("samples", [1]), ("dim", None),
        ("command", 3), ("inputs", "mb.json"), ("inputs", [1]), ("tolerances", [["z_max", 5.0]]),
        ("tolerances", {"z_max": "abc"}),
    ])
    def test_field_types(self, field, value):
        doc = {"command": "frames", field: value}
        with pytest.raises(ConfigError, match=f"^config field {field!r}"):
            ExperimentConfig(**doc)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", "3"), ("samples", True), ("dim", None), ("inputs", "mb.json"),
        ("options", [("x", [1.0])]),
    ])
    def test_library_field_types(self, field, value):
        # a field of the wrong type is a config error naming it, never coerced
        with pytest.raises(ConfigError, match=f"^config field {field!r}"):
            ExperimentConfig(command="gaussian", **{field: value})

    def test_library_inputs_list_is_a_tuple(self, mb_path):
        assert ExperimentConfig(command="markov", inputs=[mb_path]).inputs == (mb_path,)

    @pytest.mark.parametrize("command, options, flag", [
        ("decay", {"n_max": "abc"}, "--n-max"), ("decay", {"n_max": 1.9}, "--n-max"),
        ("decay", {"n_max": True}, "--n-max"),
        ("dpp", {"bruteforce": "no"}, "--bruteforce"), ("markov", {"paths_csv": 1}, "--paths-csv"),
        ("markov", {"start_index": "1.5"}, "--start-index"), ("gaussian", {"checks": ""}, "--checks"),
        ("gaussian", {"checks": "isometry,nosuch"}, "--checks"), ("translate", {"x": "[[1]]"}, "--x"),
        ("decay", {"n_max": [3]}, "--n-max"), ("markov", {"paths": []}, "--paths"),
        ("markov", {"start_index": [1]}, "--start-index"),
    ])
    def test_option_values(self, command, options, flag):
        # a library config's values are parsed as strictly as the CLI's text
        with pytest.raises(ConfigError, match=f"^{flag} "):
            ExperimentConfig(command=command, options=options)

    def test_checks_string_names_checks(self):
        report = run(ExperimentConfig(command="gaussian", samples=2000, dim=4,
                                      options={"checks": "isometry"}))
        assert [r.name for r in report.records] == ["isometry_x0", "isometry_x1", "isometry_x2"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_tolerance_values(self, value):
        with pytest.raises(ConfigError, match="'z_max' needs a finite number >= 0"):
            ExperimentConfig(command="gaussian", tolerances={"z_max": value})

    def test_positivity(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(command="gaussian", samples=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(command="gaussian", dim=0)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_range(self, seed):
        # seeds key 64 bits of the generator; none wraps round to another
        with pytest.raises(ConfigError, match=f"^config field 'seed' .* got {seed}$"):
            ExperimentConfig(command="gaussian", seed=seed)
        assert ExperimentConfig(command="gaussian", seed=(1 << 64) - 1).seed == (1 << 64) - 1

    def test_vector_from_a_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[0.5, 0.25]")
        options = ExperimentConfig(command="translate", options={"x": str(path)}).options
        assert options["x"] == [0.5, 0.25]

    def test_roundtrip(self):
        cfg = ExperimentConfig("gaussian", seed=3, samples=10, dim=4, tolerances={"z_max": 5.0})
        assert cfg.tolerance("z_max") == 5.0
        assert cfg.tolerance("exact_rel") == 1e-12
        assert ExperimentConfig(**cfg.to_dict()) == cfg


class TestCsv:
    def _report(self, records):
        cfg = ExperimentConfig(command="gaussian")
        return Report(command="gaussian", config=cfg.to_dict(), records=records, duration_s=0.0)

    def test_empty_records_header_only(self):
        assert report_csv_text(self._report([])) == "name,value,target,std_error,z_score,pass\n"

    def test_csv_text_writes_floats_in_17_digits(self):
        rows = [(0, "1 2", 0.1), (1, "", np.float64(1 / 3)), (2, "a,b", -0.0)]
        assert csv_text(("i", "indices", "p"), rows) == (
            "i,indices,p\n0,1 2,0.10000000000000001\n1,,0.33333333333333331\n"
            '2,"a,b",-0\n'
        )

    def test_single_record_two_lines(self):
        rec = CheckRecord("a", 1.0, 1.0, 0.1, 0.0, True)
        assert len(report_csv_text(self._report([rec])).splitlines()) == 2

    def test_numeric_roundtrip_exact(self):
        values = [math.pi, 1 / 3, 1e-300, -2.5000000000000004e17, float("nan")]
        records = [
            CheckRecord(f"r{i}", v, v * 3 if v == v else v, v, v, True)
            for i, v in enumerate(values)
        ]
        rows = list(csv.DictReader(io.StringIO(report_csv_text(self._report(records)))))
        for orig, row in zip(records, rows, strict=True):
            for field in ("value", "target", "std_error", "z_score"):
                a, b = getattr(orig, field), float(row[field])
                assert (a != a and b != b) or a == b  # NaN-aware exact equality


class TestReproducibility:
    def test_verify_all_bitwise(self):
        cfg = ExperimentConfig(command="verify-all", seed=11, samples=20_000, dim=16)
        a = run(cfg).payload_json()
        b = run(cfg).payload_json()
        assert a == b

    def test_thread_cap_invariance(self, monkeypatch):
        cfg = ExperimentConfig(command="verify-all", seed=12, samples=30_000, dim=8)
        monkeypatch.setenv("FRAMES_THREADS", "1")
        a = run(cfg).payload_json()
        monkeypatch.setenv("FRAMES_THREADS", "8")
        b = run(cfg).payload_json()
        assert a == b

    def test_seed_matters(self):
        a = run(ExperimentConfig(command="gaussian", seed=1, samples=5000, dim=4))
        b = run(ExperimentConfig(command="gaussian", seed=2, samples=5000, dim=4))
        assert a.payload_json() != b.payload_json()


class TestExitCodes:
    def test_pass_is_zero(self, mb_path, capsys):
        assert main(["frames", mb_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall_pass"] is True
        assert doc["schema"] == 1

    def test_check_failure_is_one(self, capsys):
        # an impossible z band forces a statistical check to fail
        code = main(["gaussian", "--samples", "2000", "--dim", "4",
                     "--checks", "isometry", "--tolerance", "z_max=1e-9"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["overall_pass"] is False

    def test_config_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["frames", str(bad)]) == 2
        assert main(["frames", str(tmp_path / "missing.json")]) == 2
        assert main(["gaussian", "--checks", "nosuch"]) == 2
        assert main(["gaussian", "--tolerance", "zmax=1"]) == 2
        assert main(["gaussian", "--tolerance", "z_max=nan"]) == 2
        capsys.readouterr()

    def test_unreadable_input_is_two(self, tmp_path, capsys):
        assert main(["frames", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: [Errno 21] Is a directory")

    def test_unwritable_out_is_two(self, measure_path, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "report.json"
        assert main(["decay", measure_path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error: --out:")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("markov", "--paths"), ("markov", "--horizon"), ("decay", "--n-max"),
    ])
    def test_count_below_one_is_a_usage_error(self, command, flag, mb_path, measure_path,
                                              capsys):
        path = mb_path if command == "markov" else measure_path
        assert main([command, path, flag, "0"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {flag} ")

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_out_of_range_is_two(self, seed, capsys):
        assert main(["verify-all", "--seed", seed]) == 2
        assert capsys.readouterr().err.startswith("config error: config field 'seed' ")

    @pytest.mark.parametrize("index", ["3", "-1"])
    def test_start_index_outside_the_frame_is_two(self, index, mb_path, capsys):
        assert main(["markov", mb_path, "--start-index", index]) == 2
        assert capsys.readouterr().err.startswith("config error: --start-index ")

    @pytest.mark.parametrize("pair", ["z_max", "z_max=abc"])
    def test_malformed_tolerance_is_two(self, pair, capsys):
        assert main(["gaussian", "--tolerance", pair]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "tolerance" in err

    @pytest.mark.parametrize("doc", [
        {"dim": 1, "atoms": [[0.0], [1.0]], "weights": [1.0]},
        {"dim": 1, "atoms": [[0.0], [1.0]]},
        {"dim": 2, "atoms": [[0.0], [1.0]], "weights": [0.5, 0.5]},
    ])
    def test_malformed_measure_file_is_three(self, doc, tmp_path, capsys):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(doc))
        assert main(["decay", str(path)]) == 3
        assert capsys.readouterr().err.startswith("decay: DimensionMismatch: ")

    @pytest.mark.parametrize("command", ["wasserstein", "dpp"])
    def test_non_object_input_file_is_a_typed_error(self, command, tmp_path, capsys):
        path = tmp_path / "five.json"
        path.write_text("5")
        argv = [command] + [str(path)] * len(COMMANDS[command].inputs)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: DimensionMismatch: ") and "internal error" not in err

    @pytest.mark.parametrize("argv", [
        ["translate", "--x", '["a"]'], ["translate", "--x", "[[1, 2]]"],
        ["translate", "--y", "[true]"], ["markov", "{mb}", "--start-vector", '["a", 1]'],
        ["translate", "--x", "[]"], ["kl", "{mb}", "--x", "[]"],
        # non-finite entries: JSON's NaN and Infinity, and 1e400, which overflows
        ["translate", "--x", "[NaN]"], ["translate", "--x", "[1e400]"],
        ["translate", "--y", "[0.5, Infinity]"], ["kl", "{mb}", "--x", "[-Infinity]"],
        ["markov", "{mb}", "--start-vector", "[NaN, 1]"],
    ])
    def test_malformed_vector_is_two(self, argv, mb_path, capsys):
        argv = [arg.format(mb=mb_path) for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {argv[-2]} needs a flat array")

    @pytest.mark.parametrize("x", [[math.nan], [0.5, math.inf], [-math.inf], [10**400]])
    def test_non_finite_config_vector_is_a_config_error(self, x):
        # a config's JSON array goes through the same parser as the flag
        with pytest.raises(ConfigError, match="^--x needs a flat array of one or more finite"):
            ExperimentConfig("translate", options={"x": x})

    @pytest.mark.parametrize("flag", ["--x", "--y"])
    def test_vector_beyond_the_double_range_is_three(self, flag, capsys):
        # finite entries whose squared norm overflows: a typed error, and no
        # numpy warning (which would surface here as an internal error)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["translate", flag, "[1e200, 1e200]", "--samples", "1000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("translate: Overflow: ") and "internal error" not in err

    def test_vector_errors_name_their_flag(self, mb_path, tmp_path, capsys):
        missing = str(tmp_path / "nosuchfile")
        assert main(["markov", mb_path, "--start-vector", missing]) == 2
        assert f"config error: --start-vector value {missing!r}" in capsys.readouterr().err
        assert main(["translate", "--x", missing]) == 2
        assert f"config error: --x value {missing!r}" in capsys.readouterr().err

    def test_module_error_is_three(self, mb_path, capsys):
        # MB frame is tight but not Parseval: kl refuses it
        assert main(["kl", mb_path, "--samples", "1000", "--dim", "8"]) == 3
        assert "NotParseval" in capsys.readouterr().err

    def test_asymmetric_kernel_file_is_three(self, tmp_path, capsys):
        kpath = tmp_path / "k.json"
        kpath.write_text(json.dumps({"k": [[0.5, 0.2], [0.3, 0.5]]}))
        assert main(["dpp", str(kpath)]) == 3
        assert capsys.readouterr().err == "dpp: InvalidKernel: kernel is not symmetric\n"

    @pytest.mark.parametrize("k", [[[math.nan]], [[1.0, 0.0], [0.0, math.inf]]])
    def test_non_finite_kernel_file_is_three(self, tmp_path, capsys, k):
        kpath = tmp_path / "k.json"
        kpath.write_text(json.dumps({"k": k}))
        assert main(["dpp", str(kpath)]) == 3
        assert capsys.readouterr().err == "dpp: NonFinite: kernel has NaN or infinite entries\n"

    def test_zero_weight_measure_file_is_three(self, tmp_path, capsys):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps({"dim": 1, "atoms": [[0.0], [1.0]], "weights": [0.0, 1.0]}))
        assert main(["decay", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "decay: InvalidWeights: weights must be finite and strictly positive\n"

    def test_gramian_rejection_is_typed(self, tmp_path, capsys):
        # the PSD tolerance is relative to the largest eigenvalue, so a
        # frame scaled by 1e4 passes; an indefinite matrix is a library
        # error, not an internal one
        path = tmp_path / "frame.json"
        vectors = 1e4 * np.random.default_rng(8).normal(size=(8, 3))
        fm.save_frame(fm.build_frame(vectors), path)
        assert main(["frames", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["overall_pass"] is True
        with pytest.raises(InvalidGramian, match="not positive semidefinite"):
            fm.GramMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_exclusive_options_are_a_config_error(self, mb_path, capsys):
        with pytest.raises(ConfigError, match="--start-index and --start-vector"):
            ExperimentConfig("markov", options={"start_index": 2, "start_vector": [1, 0]})
        argv = ["markov", mb_path, "--start-index", "2", "--start-vector", "[1, 0]"]
        assert main(argv) == 2
        assert "--start-index and --start-vector" in capsys.readouterr().err


class TestCommands:
    def test_markov_identity_transition_payload(self, onb_path, capsys):
        assert main(["markov", onb_path, "--paths", "20"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["extras"]["transition_matrix"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_markov_paths_csv(self, mb_path, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        assert main(["markov", mb_path, "--paths", "50", "--horizon", "3",
                     "--paths-csv", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "path,indices,probability"
        assert len(lines) == 51
        first = lines[1].split(",")
        assert len(first[1].split()) == 3
        float(first[2])

    def test_wasserstein_csv_output(self, tmp_path, capsys):
        mu = tmp_path / "mu.json"
        nu = tmp_path / "nu.json"
        mu.write_text(json.dumps({"dim": 1, "atoms": [[0.0], [1.0]], "weights": [0.5, 0.5]}))
        nu.write_text(json.dumps({"dim": 1, "atoms": [[0.0], [2.0]], "weights": [0.5, 0.5]}))
        assert main(["wasserstein", str(mu), str(nu), "--format", "csv"]) == 0
        w2 = _csv_values(capsys.readouterr().out)["w2_distance"]
        assert w2 == pytest.approx(math.sqrt(0.5), rel=1e-12)

    @pytest.mark.parametrize("atoms", [[[0.0], [-0.0]], [[0.0, 1.0], [-0.0, 1.0]]],
                             ids=["R1", "R2"])
    @pytest.mark.parametrize("weights", [[0.5, 0.5], [0.3, 0.7]], ids=["uniform", "weighted"])
    def test_wasserstein_of_atoms_equal_up_to_the_sign_of_zero(self, tmp_path, capsys,
                                                                atoms, weights):
        mu = tmp_path / "mu.json"
        mu.write_text(json.dumps({"dim": len(atoms[0]), "atoms": atoms, "weights": weights}))
        assert main(["wasserstein", str(mu), str(mu), "--format", "csv"]) == 0
        assert _csv_values(capsys.readouterr().out)["w2_distance"] == 0.0

    def test_decay_records(self, tmp_path, capsys):
        mu = tmp_path / "mu.json"
        mu.write_text(json.dumps({"dim": 2, "atoms": [[1.0, 0.0], [0.0, 1.0]],
                                  "weights": [0.5, 0.5]}))
        assert main(["decay", str(mu), "--n-max", "6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_name = {r["name"]: r for r in doc["records"]}
        assert by_name["decay_f_001"]["value"] == pytest.approx(0.5)
        assert by_name["decay_f_005"]["value"] == 0.0
        assert by_name["decay_sum_vs_second_moment"]["pass"] is True

    def test_dpp_bruteforce_and_draws(self, mb_path, tmp_path, capsys):
        draws = tmp_path / "draws.csv"
        assert main(["dpp", mb_path, "--bruteforce", "--samples", "5000",
                     "--draws-csv", str(draws)]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {r["name"] for r in doc["records"]}
        assert "sampler_oracle_tv_distance" in names
        assert len(draws.read_text().splitlines()) == 5001

    def test_dpp_kernel_json_input(self, tmp_path, capsys):
        kpath = tmp_path / "k.json"
        kpath.write_text(json.dumps({"k": [[0.5, 0.0], [0.0, 0.5]]}))
        assert main(["dpp", str(kpath), "--bruteforce", "--samples", "2000"]) == 0
        capsys.readouterr()

    def test_dpp_singular_kernel_reports_unsigned_zeros(self, tmp_path, capsys):
        # the kernel's zero eigenvalue, negated, is -0.0
        kpath = tmp_path / "k.json"
        kpath.write_text(json.dumps({"k": [[0.5, 0.5], [0.5, 0.5]]}))
        argv = ["dpp", str(kpath), "--bruteforce", "--samples", "2000", "--format", "csv"]
        assert main(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        values = {row[0]: row[1] for row in rows}
        assert values["spectrum_unit_interval_excess"] == "0"
        assert "-0" not in values.values()
        assert math.copysign(1.0, CheckRecord("x", -0.0, 0.0, 0.0, 0.0, True).value) == 1.0

    def test_gaussian_check_selection(self, capsys):
        assert main(["gaussian", "--samples", "5000", "--dim", "4",
                     "--checks", "isometry,charfn"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {r["name"] for r in doc["records"]}
        assert any(n.startswith("isometry") for n in names)
        assert any(n.startswith("charfn") for n in names)
        assert not any(n.startswith("moment") for n in names)

    def test_translate_inline_vectors(self, capsys):
        assert main(["translate", "--x", "[0.5, 0.0]", "--y", "[0.0, 1.0]",
                     "--samples", "5000", "--dim", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        tsm = next(r for r in doc["records"] if r["name"] == "translated_second_moment")
        assert tsm["target"] == pytest.approx(1.0)  # <x,y> = 0, ||y||^2 = 1

    def test_translate_large_shift_warns_through_logging(self, caplog, capsys):
        with caplog.at_level(logging.WARNING, logger="framemeasures.suites"):
            main(["translate", "--x", "[3.0, 0.0]", "--y", "[0.0, 1.0]",
                  "--samples", "2000", "--dim", "4"])
        warnings = [r for r in caplog.records if r.name == "framemeasures.suites"]
        assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
        assert "||x||^2 = 9 > 4" in warnings[0].getMessage()
        assert "warning" not in capsys.readouterr().out

    def test_kl_on_parseval_frame(self, tmp_path, capsys, mb):
        from framemeasures import parseval_rescale

        pf_path = tmp_path / "pf.json"
        fm.save_frame(parseval_rescale(mb), pf_path)
        assert main(["kl", str(pf_path), "--samples", "5000", "--dim", "8",
                     "--x", "[1.0, 0.0]"]) == 0
        capsys.readouterr()

    def test_out_file(self, mb_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["frames", mb_path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "frames"

    def test_verify_all_runs_green(self, capsys):
        assert main(["verify-all", "--seed", "7", "--samples", "20000", "--dim", "16"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall_pass"] is True
        prefixes = {r["name"].split(".")[0] for r in doc["records"]}
        assert {"frames", "wasserstein", "decay", "markov", "dpp",
                "gaussian", "translate", "kl"} <= prefixes

    def test_one_parser_gives_independent_configs(self, mb_path, monkeypatch, capsys):
        # main reuses one parser; a call must not see the options of the one before
        configs = []
        real_run = run
        monkeypatch.setattr("framemeasures.cli.run",
                            lambda config: configs.append(config) or real_run(config))
        assert main(["frames", mb_path, "--tolerance", "z_max=5", "--format", "csv"]) == 0
        assert not capsys.readouterr().out.startswith("{")
        assert main(["frames", mb_path]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "frames"
        assert build_parser() is build_parser()
        assert configs == [
            ExperimentConfig("frames", inputs=(mb_path,), tolerances={"z_max": 5.0}),
            ExperimentConfig("frames", inputs=(mb_path,)),
        ]


# The `options` each command writes into its report's `config` when run
# with no option given: every default, in this key order.
DEFAULT_OPTIONS = {
    "frames": "{}",
    "wasserstein": "{}",
    "decay": '{"n_max": 64}',
    "markov": '{"start_index": null, "start_vector": null, "horizon": 2, "paths": 1000, '
              '"paths_csv": null}',
    "dpp": '{"bruteforce": false, "draws_csv": null}',
    "gaussian": '{"checks": ["isometry", "charfn", "moments", "covariance", "reconstruct", '
                '"projection"]}',
    "translate": '{"x": null, "y": null}',
    "kl": '{"x": null}',
    "verify-all": "{}",
}


class TestReportContract:
    @pytest.fixture()
    def inputs(self, mb_path, measure_path, tmp_path, mb):
        pf_path = tmp_path / "pf.json"
        fm.save_frame(fm.parseval_rescale(mb), pf_path)
        return {
            "frames": [mb_path], "wasserstein": [measure_path, measure_path],
            "decay": [measure_path], "markov": [mb_path], "dpp": [mb_path],
            "gaussian": [], "translate": [], "kl": [str(pf_path)], "verify-all": [],
        }

    @pytest.mark.parametrize("command", sorted(DEFAULT_OPTIONS))
    def test_default_config(self, command, inputs, tmp_path):
        out = tmp_path / "report.json"
        assert main([command, *inputs[command], "--out", str(out)]) == 0
        expected = (
            f'{{"command": "{command}", "seed": 0, "samples": 100000, "dim": 32, '
            f'"tolerances": {{}}, "inputs": {json.dumps(inputs[command])}, '
            f'"options": {DEFAULT_OPTIONS[command]}}}'
        )
        assert json.dumps(json.loads(out.read_text())["config"]) == expected

    def test_library_config_takes_table_defaults(self, mb_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["markov", mb_path, "--out", str(out)]) == 0
        cli_doc = json.loads(out.read_text())
        lib_doc = run(ExperimentConfig(command="markov", inputs=(mb_path,))).to_dict()
        assert lib_doc["config"]["options"] == cli_doc["config"]["options"]
        assert lib_doc["records"] == cli_doc["records"]
        assert lib_doc["extras"] == cli_doc["extras"]

    def test_input_count_checked(self, mb_path):
        with pytest.raises(ConfigError, match="needs 2 input path"):
            run(ExperimentConfig(command="wasserstein", inputs=(mb_path,)))


def test_riesz_coefficients_are_not_the_probe_uniforms(mb_path, mb, monkeypatch):
    seen = []
    original = frames_mod.verify_riesz_upper

    def spy(frame, c):
        seen.append(np.array(c))
        return original(frame, c)

    monkeypatch.setattr(frames_mod, "verify_riesz_upper", spy)
    run(ExperimentConfig(command="frames", inputs=(mb_path,), seed=7))
    (c,) = seen
    # the probe vectors are ndtri of these uniforms
    probe_uniforms = streams.uniform_columns(7, 0, 1, streams.STREAM_PROBES,
                                             np.empty((mb.n_frame, 1)))[:, 0]
    assert not np.isclose(c + 0.5, probe_uniforms).any()


def test_rank_deficient_frame_passes(tmp_path, capsys):
    # 40 vectors in R^10; a leading-minor test on its Gramian refused it
    path = tmp_path / "frame.json"
    fm.save_frame(fm.build_frame(np.random.default_rng(15).normal(size=(40, 10))), path)
    assert main(["frames", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["overall_pass"] is True


# One value of every option of the command table: its command-line text and
# the JSON value a config gives for it (None: a switch, given by its flag).
OPTION_VALUES = {
    "n_max": ("3", 3),
    "start_index": ("2", 2),
    "start_vector": ("[0.5, 1]", [0.5, 1]),
    "horizon": ("4", 4),
    "paths": ("50", 50),
    "paths_csv": ("paths.csv", "paths.csv"),
    "bruteforce": (None, True),
    "draws_csv": ("draws.csv", "draws.csv"),
    "checks": ("isometry,charfn", ["isometry", "charfn"]),
    "x": ("[1.0, 0]", [1.0, 0]),
    "y": ("[0, 2.5]", [0, 2.5]),
}


def _cli_config(argv):
    return config_from_args(build_parser().parse_args(argv))


def test_every_option_parses_alike_from_text_and_json():
    assert set(OPTION_VALUES) == {opt.name for c in COMMANDS.values() for opt in c.options}
    for name, command in COMMANDS.items():
        inputs = [f"in{i}.json" for i in range(len(command.inputs))]
        for opt in command.options:
            text, value = OPTION_VALUES[opt.name]
            argv = [name, *inputs, opt.flag] + ([] if text is None else [text])
            given = ExperimentConfig(command=name, inputs=tuple(inputs),
                                     options={opt.name: value})
            assert _cli_config(argv) == given, argv
        # every option set at once, the exclusive ones one at a time
        exclusive = [opt.name for opt in command.options if opt.exclusive] or [None]
        for alone in exclusive:
            everything = ExperimentConfig(
                command=name, seed=3, samples=7, dim=5, tolerances={"z_max": 3.5},
                inputs=tuple(inputs), options={opt.name: OPTION_VALUES[opt.name][1]
                                               for opt in command.options
                                               if not opt.exclusive or opt.name == alone},
            )
            doc = json.loads(json.dumps(everything.to_dict()))
            assert ExperimentConfig(**doc) == everything

    # each command line of the README's command block parses
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"Commands:\n\n```sh\n(.*?)```", readme, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    assert len(lines) == len(COMMANDS)
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "framemeasures"
        assert _cli_config(argv[1:]).command == argv[1]


def test_samplers_and_decay_never_load_scipy(mb_path, measure_path):
    # scipy.special alone takes about 0.3 s to import, more than these
    # commands take to run; only ndtri, the sanity band, the Gaussian
    # moments and the W2 solvers load it, where they run
    runs = [["dpp", mb_path, "--bruteforce"], ["markov", mb_path], ["decay", measure_path]]
    code = ("import sys\n"
            "from framemeasures.cli import main\n"
            f"print([main(argv + ['--out', {os.devnull!r}]) for argv in {runs!r}])\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n")
    src = str(Path(fm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0, 0]", "[]"]
