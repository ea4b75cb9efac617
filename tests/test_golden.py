"""The committed verify-all payloads under tests/golden/ still come out byte
for byte; tools/payload_diff.py holds the diff and regenerates the files."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "payload_diff.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("payload_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


payload_diff = _load_tool()


@pytest.mark.parametrize("config", payload_diff.CONFIGS,
                         ids=lambda c: f"seed{c[0]}_{c[1]}x{c[2]}")
def test_payload_is_golden(config):
    moved = payload_diff.check(*config)
    if moved:
        note = payload_diff.version_note()
        pytest.fail("payload moved:\n" + "\n".join(moved) + (f"\n{note}" if note else ""))


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
