"""The private functions the benchmark's tracer wraps by name.

`perfbench/spans.py` wraps each name in its EXTRA_NAMES by looking it up
in the layer module, and reads its work count from the call's arguments
by parameter name (WORK). A renamed function or parameter would only
surface as a crash of a traced benchmark run; these tests catch it here.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import MagicMock

import numpy as np
import pytest

from framemeasures import dpp, kernel_from_matrix

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Reads(dict):
    """Argument mapping that records the names a WORK entry reads."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __missing__(self, name):
        self.read.add(name)
        return MagicMock()


def extra_hooks(spans):
    return [(layer, name) for layer, names in spans.EXTRA_NAMES.items() for name in names]


def test_extra_names_are_functions_taking_what_work_reads(spans):
    assert extra_hooks(spans)
    for layer, name in extra_hooks(spans):
        fn = vars(importlib.import_module(f"framemeasures.{layer}")).get(name)
        assert inspect.isfunction(fn), f"{layer}.{name} is not a function"
        work = spans.WORK.get(f"{layer}.{name}")
        if work is None:
            continue
        args = Reads()
        work(SimpleNamespace(arguments=args))
        params = set(inspect.signature(fn).parameters)
        assert args.read <= params, f"{layer}.{name} lacks {args.read - params}"


def test_traced_subset_minors_counts_subsets(spans):
    tracer = spans.Tracer()
    tracer.install({"dpp": dpp})
    try:
        dpp._subset_minors(kernel_from_matrix(np.eye(5) / 2))
    finally:
        tracer.uninstall()
    (span,) = [s for s in tracer.take() if s.func == "dpp._subset_minors"]
    assert span.work == 1 << 5 and not span.error
