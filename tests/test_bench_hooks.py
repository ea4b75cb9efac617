"""The functions the benchmark's tracer wraps and counts the work of.

`perfbench/spans.py` wraps each name in its EXTRA_NAMES by looking it up
in the layer module, and the public functions of each layer; it reads a
call's work count from its arguments by parameter name (WORK). A renamed
function or parameter would only surface as a crash of a traced
benchmark run; these tests catch it here.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import MagicMock

import numpy as np
import pytest

import framemeasures as fm
from framemeasures import dpp, kernel_from_matrix, markov, measures, streams

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


def test_traced_workload_calls_count_their_work(spans):
    # the calls of the workloads whose work WORK reads, with the parameters
    # the harness passes by name (its probe passes `workers`)
    kernel = kernel_from_matrix(np.eye(3) / 2)
    chain = fm.build_chain(fm.mercedes_benz_frame())
    mu = fm.DiscreteMeasure.uniform([[0.0], [1.0]])
    nu = fm.DiscreteMeasure.uniform([[0.5], [2.0], [3.0]])
    calls = {
        "streams.normal_matrix": (lambda: streams.normal_matrix(
            1, 4, 3, stream=streams.STREAM_WHITENOISE, workers=1), 12),
        "dpp.sample_masks": (lambda: dpp.sample_masks(kernel=kernel, m=6, seed=1), (6, 3)),
        "markov.sample_path_indices": (lambda: markov.sample_path_indices(
            chain, [1.0, 0.0], k=2, m=7, seed=1), 14),
        "measures.wasserstein2": (lambda: measures.wasserstein2(mu=mu, nu=nu), 5 * 2 * 3 * 8),
    }
    assert set(calls) <= set(spans.WORK)
    tracer = spans.Tracer()
    tracer.install({"streams": streams, "dpp": dpp, "markov": markov, "measures": measures})
    try:
        for call, _ in calls.values():
            call()
    finally:
        tracer.uninstall()
    work = {s.func: s.work for s in tracer.take() if s.parent < 0 and not s.error}
    assert {func: work.get(func) for func in calls} == {
        func: count for func, (_, count) in calls.items()
    }
