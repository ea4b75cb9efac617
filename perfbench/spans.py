"""Span tracing of framemeasures from outside the package.

`Tracer.install` replaces every public function a layer module exposes
(re-exported names included, so `translation.pairings` is traced apart
from `whitenoise.pairings`) and every public method of the classes it
defines (`WhiteNoiseEnsemble.generate` among them) with a wrapper that
records a span. Spans stay in memory; `uninstall` restores the originals.

A span is (name, func, layer, start, end, parent, op, work, error):
`name` is the access path, `func` the defining module and qualified name,
`layer` the defining module, `parent` the index of the enclosing span (-1
for an operation's root span), `op` the operation id, `work` a count
derived from the call's arguments (normals drawn, subsets enumerated,
bytes read) and `error` whether the call raised.

A span's self time is its duration minus the part of it covered by its
child spans; `self_times` computes it, `layer_metrics` turns one traced
pass into the per-layer metrics named in LAYER_METRICS.
"""
import functools
import inspect
import threading
import time
from collections import namedtuple

# The modules of the package, in the order the layers are reported.
LAYERS = (
    "streams", "whitenoise", "translation", "dpp", "measures", "markov",
    "frames", "suites", "report", "cli",
)

# Private names another module calls directly (suites reads the subset
# minors itself), traced so that their time is not booked to the caller.
EXTRA_NAMES = {"dpp": ("_subset_minors",)}

Span = namedtuple("Span", "name func layer start end parent op work error")

# Per-layer metrics: (name, unit, better, end-to-end metric it should move,
# workloads it should move it on). BENCHMARK.json's per_layer list is this
# table without the last two columns; test_spans checks they agree.
LAYER_METRICS = (
    ("streams.normal_matrix.s", "s", "lower", "wall_s; op_p50_ms", "verify_all; cli_mix"),
    ("streams.normal_matrix.calls", "count", "lower", "wall_s; op_p50_ms", "verify_all; cli_mix"),
    ("streams.normals", "count", "lower", "wall_s; op_p50_ms", "verify_all; cli_mix"),
    ("streams.ns_per_normal", "ns", "lower", "wall_s; op_p50_ms", "verify_all; cli_mix"),
    ("streams.normal_matrix.workers1_s", "s", "lower", "wall_s", "verify_all"),
    ("streams.normal_matrix.workersN_s", "s", "lower", "wall_s", "verify_all"),
    ("streams.uniforms.s", "s", "lower", "wall_s", "exact_oracles"),
    ("streams.uniforms.count", "count", "lower", "wall_s", "exact_oracles"),
    ("streams.self_s", "s", "lower", "wall_s", "verify_all"),
    ("whitenoise.generate.self_s", "s", "lower", "wall_s", "verify_all"),
    ("whitenoise.pairings.calls", "count", "lower", "wall_s", "verify_all"),
    ("whitenoise.pairings.s", "s", "lower", "wall_s", "verify_all"),
    ("whitenoise.estimators.self_s", "s", "lower", "wall_s", "verify_all"),
    ("whitenoise.ensemble_passes", "count", "lower", "wall_s; peak_rss_mb", "verify_all"),
    ("whitenoise.bytes_read_computed", "bytes", "lower", "wall_s; peak_rss_mb", "verify_all"),
    ("whitenoise.ensemble_bytes", "bytes", "lower", "wall_s; peak_rss_mb", "verify_all"),
    ("whitenoise.self_s", "s", "lower", "wall_s", "verify_all"),
    ("translation.self_s", "s", "lower", "wall_s", "verify_all"),
    ("translation.pairings.calls", "count", "lower", "wall_s", "verify_all"),
    ("translation.cocycle_check.calls", "count", "lower", "wall_s", "verify_all"),
    ("dpp.bruteforce.s", "s", "lower", "wall_s", "exact_oracles"),
    ("dpp.subsets", "count", "lower", "wall_s", "exact_oracles"),
    ("dpp.ns_per_subset", "ns", "lower", "wall_s", "exact_oracles"),
    ("dpp.sample_masks.s", "s", "lower", "wall_s", "exact_oracles; verify_all"),
    ("dpp.draws", "count", "lower", "wall_s", "exact_oracles; verify_all"),
    ("dpp.us_per_draw.n_le_8", "us", "lower", "wall_s", "verify_all"),
    ("dpp.us_per_draw.n_9_16", "us", "lower", "wall_s", "exact_oracles"),
    ("dpp.us_per_draw.n_gt_16", "us", "lower", "wall_s", "exact_oracles"),
    ("dpp.self_s", "s", "lower", "wall_s", "exact_oracles"),
    ("measures.wasserstein2.s", "s", "lower", "wall_s; peak_rss_mb", "exact_oracles"),
    ("measures.lp_constraint_bytes_computed", "bytes", "lower", "wall_s; peak_rss_mb", "exact_oracles"),
    ("measures.self_s", "s", "lower", "wall_s", "exact_oracles"),
    ("markov.sample_path_indices.s", "s", "lower", "wall_s", "exact_oracles"),
    ("markov.path_steps", "count", "lower", "wall_s", "exact_oracles"),
    ("markov.path_probability.calls", "count", "lower", "wall_s", "exact_oracles"),
    ("markov.self_s", "s", "lower", "wall_s", "exact_oracles"),
    ("frames.gram.s", "s", "lower", "op_p50_ms; failed_ratio", "cli_mix"),
    ("frames.gram.calls", "count", "lower", "op_p50_ms; failed_ratio", "cli_mix"),
    ("frames.gram.failed", "count", "lower", "op_p50_ms; failed_ratio", "cli_mix"),
    ("frames.build_frame.s", "s", "lower", "op_p50_ms; failed_ratio", "cli_mix"),
    ("frames.self_s", "s", "lower", "op_p50_ms", "cli_mix"),
    ("suites.self_s", "s", "lower", "op_p50_ms; failed_ratio", "cli_mix"),
    ("report.serialize.s", "s", "lower", "op_p50_ms; failed_ratio", "cli_mix"),
    ("report.self_s", "s", "lower", "op_p50_ms", "cli_mix"),
    ("cli.self_s", "s", "lower", "op_p50_ms; failed_ratio", "cli_mix"),
    ("cli.exit1", "count", "lower", "op_p50_ms; failed_ratio", "cli_mix"),
    ("cli.exit3", "count", "lower", "op_p50_ms; failed_ratio", "cli_mix"),
    ("bench.self_s", "s", "lower", "wall_s", "all"),
    ("trace.spans", "count", "lower", "wall_s", "all"),
    ("trace.wall_s", "s", "lower", "wall_s", "all"),
    ("trace.self_sum_s", "s", "lower", "wall_s", "all"),
    ("trace.untraced_wall_s", "s", "lower", "wall_s", "all"),
    ("trace.overhead_s", "s", "lower", "wall_s", "all"),
)


def _arg(bound, name):
    return bound.arguments[name]


def _ens_read(ens, cols):
    return ens.sample_count * cols * 8


# Work counts read from a call's arguments, keyed by defining function.
WORK = {
    "streams.normal_matrix": lambda a: _arg(a, "rows") * _arg(a, "cols"),
    "streams.uniforms": lambda a: _arg(a, "count"),
    "streams.uniforms_at": lambda a: _arg(a, "count"),
    "streams.uniform_matrix": lambda a: _arg(a, "rows") * _arg(a, "cols"),
    "dpp._subset_minors": lambda a: 1 << _arg(a, "kernel").size,
    "dpp.sample_masks": lambda a: (_arg(a, "m"), _arg(a, "kernel").size),
    "measures.wasserstein2": lambda a: _lp_bytes(_arg(a, "mu").n_atoms, _arg(a, "nu").n_atoms),
    "markov.sample_path_indices": lambda a: _arg(a, "m") * _arg(a, "k"),
    # bytes of ensemble coordinates read by one call
    "whitenoise.pairings": lambda a: _ens_read(_arg(a, "ens"), len(_arg(a, "x"))),
    "whitenoise.gaussian_process_from_frame":
        lambda a: _ens_read(_arg(a, "ens"), _arg(a, "frame").dim),
    "whitenoise.synthesis_mc": lambda a: _ens_read(_arg(a, "ens"), _arg(a, "ens").truncation_dim),
    "translation.kl_expand": lambda a: _ens_read(_arg(a, "ens"), _arg(a, "frame").n_frame),
    # bytes of the (M, D) matrix generated
    "whitenoise.WhiteNoiseEnsemble.generate":
        lambda a: _arg(a, "sample_count") * _arg(a, "truncation_dim") * 8,
}

# Calls that read every sample of an ensemble; their work is bytes read.
ENSEMBLE_READS = (
    "whitenoise.pairings", "whitenoise.gaussian_process_from_frame",
    "whitenoise.synthesis_mc", "translation.kl_expand",
)
# The sanity band in `generate` reads the fresh matrix twice (mean, var).
GENERATE_READS = 2


def _lp_bytes(n, m):
    # dense (n + m) x nm equality matrix built for the transport LP
    return (n + m) * n * m * 8 if n > 1 and m > 1 else 0


class Tracer:
    """Records spans around calls into the package's layer modules."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._saved = []
        self._main = threading.get_ident()

    def _wrap(self, fn, name, func, layer):
        work = WORK.get(func)
        sig = inspect.signature(fn) if work else None
        spans = self.spans
        stack = self._stack
        main = self._main
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            count = work(sig.bind(*args, **kwargs)) if work else 0
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                error = False
                return out
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, func, layer, start, end, parent, self.op, count, error)

        return traced

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules):
        """Wrap the public functions and class methods of each module.

        `modules` maps a layer name to its module object.
        """
        for layer_name, mod in modules.items():
            names = [n for n in vars(mod) if not n.startswith("_")]
            names += EXTRA_NAMES.get(layer_name, ())
            for attr in names:
                obj = vars(mod)[attr]
                if inspect.isfunction(obj) and obj.__module__.startswith("framemeasures."):
                    home = obj.__module__.rsplit(".", 1)[1]
                    func = f"{home}.{obj.__qualname__}"
                    self._replace(mod, attr, self._wrap(obj, f"{layer_name}.{attr}", func, home))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(obj, layer_name)

    def _install_class(self, cls, layer_name):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            func = f"{layer_name}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                wrapped = self._wrap(obj.__func__, func, func, layer_name)
                self._replace(cls, attr, type(obj)(wrapped))
            elif inspect.isfunction(obj):
                self._replace(cls, attr, self._wrap(obj, func, func, layer_name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def root(self, fn, name):
        """Run `fn()` as the root span of a new operation; returns its result."""
        self.op += 1
        return self._wrap(fn, name, name, "bench")()

    def take(self):
        """Hand over the recorded spans and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans):
    """Self time of each span: its duration minus the union of its
    children's intervals clipped to it."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def outermost(spans, funcs):
    """Indices of spans of `funcs` with no ancestor span of `funcs`."""
    out = []
    for i, s in enumerate(spans):
        if s.func not in funcs:
            continue
        p = s.parent
        while p >= 0 and spans[p].func not in funcs:
            p = spans[p].parent
        if p < 0:
            out.append(i)
    return out


def _bucket(n):
    return "n_le_8" if n <= 8 else "n_9_16" if n <= 16 else "n_gt_16"


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (times in s, as measured).

    Metrics the spans do not give (the probes, the untraced passes and
    the CLI exit counts) are left at 0 for the caller to fill in.
    """
    st = self_times(spans)
    m = {name: 0.0 for name, *_ in LAYER_METRICS}

    def total(funcs, field="time"):
        idx = outermost(spans, set(funcs))
        if field == "time":
            return sum(spans[i].end - spans[i].start for i in idx)
        return sum(spans[i].work for i in idx)

    def calls(pred):
        return sum(1 for s in spans if pred(s))

    for layer in LAYERS + ("bench",):
        if f"{layer}.self_s" in m:
            m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, st) if s.layer == layer)

    nm = ("streams.normal_matrix",)
    m["streams.normal_matrix.s"] = total(nm)
    m["streams.normal_matrix.calls"] = calls(lambda s: s.func == nm[0])
    m["streams.normals"] = total(nm, "work")
    if m["streams.normals"]:
        m["streams.ns_per_normal"] = m["streams.normal_matrix.s"] / m["streams.normals"] * 1e9
    uni = ("streams.uniforms", "streams.uniforms_at", "streams.uniform_matrix")
    m["streams.uniforms.s"] = total(uni)
    m["streams.uniforms.count"] = total(uni, "work")

    gen = "whitenoise.WhiteNoiseEnsemble.generate"
    m["whitenoise.generate.self_s"] = sum(t for s, t in zip(spans, st) if s.func == gen)
    m["whitenoise.pairings.calls"] = calls(lambda s: s.name == "whitenoise.pairings")
    m["whitenoise.pairings.s"] = sum(
        s.end - s.start for s in spans if s.name == "whitenoise.pairings"
    )
    m["whitenoise.estimators.self_s"] = m["whitenoise.self_s"] - m["whitenoise.generate.self_s"]
    reads = [s for s in spans if s.func in ENSEMBLE_READS]
    gens = [s for s in spans if s.func == gen]
    m["whitenoise.ensemble_passes"] = len(reads) + GENERATE_READS * len(gens)
    m["whitenoise.ensemble_bytes"] = sum(s.work for s in gens)
    m["whitenoise.bytes_read_computed"] = (
        sum(s.work for s in reads) + GENERATE_READS * m["whitenoise.ensemble_bytes"]
    )
    m["translation.pairings.calls"] = calls(lambda s: s.name == "translation.pairings")
    m["translation.cocycle_check.calls"] = calls(lambda s: s.func == "translation.cocycle_check")

    bf = ("dpp.subset_distribution_bruteforce", "dpp._subset_minors")
    m["dpp.bruteforce.s"] = total(bf)
    m["dpp.subsets"] = sum(s.work for s in spans if s.func == "dpp._subset_minors")
    if m["dpp.subsets"]:
        m["dpp.ns_per_subset"] = m["dpp.bruteforce.s"] / m["dpp.subsets"] * 1e9
    draws = [s for s in spans if s.func == "dpp.sample_masks"]
    m["dpp.sample_masks.s"] = sum(s.end - s.start for s in draws)
    m["dpp.draws"] = sum(s.work[0] for s in draws)
    per = {}
    for s in draws:
        t, n = per.get(_bucket(s.work[1]), (0.0, 0))
        per[_bucket(s.work[1])] = (t + s.end - s.start, n + s.work[0])
    for key, (t, n) in per.items():
        m[f"dpp.us_per_draw.{key}"] = t / n * 1e6

    m["measures.wasserstein2.s"] = total(("measures.wasserstein2",))
    m["measures.lp_constraint_bytes_computed"] = total(("measures.wasserstein2",), "work")
    m["markov.sample_path_indices.s"] = total(("markov.sample_path_indices",))
    m["markov.path_steps"] = total(("markov.sample_path_indices",), "work")
    m["markov.path_probability.calls"] = calls(lambda s: s.func == "markov.path_probability")

    m["frames.gram.s"] = total(("frames.gram",))
    m["frames.gram.calls"] = calls(lambda s: s.func == "frames.gram")
    m["frames.gram.failed"] = calls(lambda s: s.func == "frames.gram" and s.error)
    m["frames.build_frame.s"] = total(("frames.build_frame",))

    serialize = (
        "report.Report.to_json", "report.Report.payload_json", "report.Report.to_dict",
        "report.report_csv_text", "report.emit_csv",
    )
    m["report.serialize.s"] = total(serialize)

    m["trace.spans"] = len(spans)
    m["trace.wall_s"] = sum(s.end - s.start for s in spans if s.parent < 0)
    m["trace.self_sum_s"] = sum(st)
    return m
