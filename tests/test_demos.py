"""Each demo script runs to completion and prints its committed output
(tests/golden/demos/, see tools/payload_diff.py), and the README's library
example runs."""
import os
import re
from pathlib import Path

import payload_diff
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("demo", payload_diff.DEMOS, ids=os.path.basename)
def test_demo_runs(demo):
    proc = payload_diff.run_python(demo)
    assert proc.returncode == 0, proc.stderr[-2000:]
    moved = payload_diff.check_demo(demo, proc.stdout)
    if moved:
        pytest.fail(payload_diff.failure("demo output", moved))


def test_readme_python_block_runs():
    # a public name renamed or deleted without a README edit fails here
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    proc = payload_diff.run_python("-c", "\n".join(blocks))
    assert proc.returncode == 0, proc.stderr[-2000:]
