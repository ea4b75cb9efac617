"""The committed golden files under tests/golden/ still come out byte for
byte: the verify-all payloads here, the CSV files the CLI writes here, the
demos' output in test_demos.py. tools/payload_diff.py holds the diffs and
regenerates the files."""
import _ctypes
import json

import payload_diff
import pytest


@pytest.mark.parametrize("config", payload_diff.CONFIGS,
                         ids=lambda c: f"seed{c[0]}_{c[1]}x{c[2]}")
def test_payload_is_golden(config):
    moved = payload_diff.check(*config)
    if moved:
        pytest.fail(payload_diff.failure("payload", moved))


@pytest.mark.parametrize("name", payload_diff.CSV_RUNS)
def test_csv_is_golden(name):
    moved = payload_diff.check_csv(name)
    if moved:
        pytest.fail(payload_diff.failure(name, moved))


def test_diff_names_each_moved_field():
    golden = payload_diff.golden_path(*payload_diff.CONFIGS[2])
    with open(golden) as fh:
        text = fh.read().removesuffix("\n")
    assert payload_diff.diff(text, text) == []
    # the first Monte-Carlo record (one with a z-score) moves its value and z
    doc = json.loads(text)
    record = next(r for r in doc["records"] if r["z_score"] is not None)
    record["value"] += 1.0
    record["z_score"] += 1.0
    moved = payload_diff.diff(text, json.dumps(doc))
    assert [line.split(":")[0] for line in moved] == [f"{record['name']}.value",
                                                      f"{record['name']}.z_score"]
    doc["records"].pop()
    assert payload_diff.diff(text, json.dumps(doc))[-1].endswith(": removed")


def test_version_note_names_both_and_the_command(monkeypatch):
    recorded = payload_diff.recorded_versions()
    monkeypatch.setattr(payload_diff, "running_versions", lambda: dict(recorded, numpy="0.0"))
    note = payload_diff.version_note()
    assert str(recorded) in note and "'numpy': '0.0'" in note
    assert payload_diff.WRITE_COMMAND in note
    assert payload_diff.failure("x.csv", ["-a", "+b"]) == f"x.csv moved:\n-a\n+b\n{note}"
    # the same library versions on a CPU that selects another BLAS kernel
    monkeypatch.setattr(payload_diff, "running_versions",
                        lambda: dict(recorded, blas_kernel="Haswell"))
    note = payload_diff.version_note()
    assert f"'blas_kernel': '{recorded['blas_kernel']}'" in note
    assert "'blas_kernel': 'Haswell'" in note


def test_blas_kernel_is_unknown_without_the_library_or_its_symbol(monkeypatch):
    # a shared library without the core-name function, then none at all
    monkeypatch.setattr(payload_diff.glob, "glob", lambda pattern: [_ctypes.__file__])
    assert payload_diff.blas_kernel() == "unknown"
    monkeypatch.setattr(payload_diff.glob, "glob", lambda pattern: [])
    assert payload_diff.blas_kernel() == "unknown"


def test_text_diff_names_each_moved_line():
    golden = "draw,indices\n0,1 2\n1,2\n"
    assert payload_diff.text_diff(golden, golden) == []
    assert payload_diff.text_diff(golden, golden.replace("1,2\n", "1,0 2\n"))[-2:] == [
        "-1,2", "+1,0 2"]
    assert payload_diff.text_diff(golden, golden.replace("\n", "\r\n")) == [
        "text differs in its line ends only"]


def test_moved_count_leaves_out_the_diff_headers():
    # one changed line: "---", "+++", "@@", "-b" and "+B", of which two moved
    lines = payload_diff.text_diff("a\nb\nc\n", "a\nB\nc\n")
    assert len(lines) == 5 and payload_diff.moved_count(lines) == 2
    # lines that begin like the headers, removed and added, are counted
    lines = payload_diff.text_diff("-- golden\n@@\n", "++ current\n@@ x\n")
    assert payload_diff.moved_count(lines) == 4
    assert payload_diff.moved_count(["text differs in its line ends only"]) == 1
    assert payload_diff.moved_count(["rec.value: 1.0 -> 2.0", "rec.z_score: 0.1 -> 0.2"]) == 2
