"""framemeasures benchmark: one workload, in this fresh process.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the repository root; the package is imported from ./src. The
run sets up (imports framemeasures, draws the inputs from --seed), makes
one warm-up pass over the workload's operation list, then repeats passes
for --seconds, at least four, and checks every output (see workloads.py).

--trace 0 reports the end-to-end metrics; set-up is repeated in fresh
child processes and its median reported. --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of spans.py, plus a
probe of `streams.normal_matrix` at the verify_all size with one worker
and with the default worker count. --workload all runs every workload at
both trace settings, each in its own process.

Every metric is printed by name with its unit, then a `# detail` line
(machine, sample counts, failure causes, report digest), and last one
JSON line: {"correct", "attempted", "failed", "metrics"}. The full record
goes to .bench_out/. Exit 0 with a result; 2 when the package source is
missing; 3 on a benchmark error (a result that should repeat did not).
"""
import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("verify_all", "exact_oracles", "cli_mix")
SETUP_REPEATS = 5  # this process plus four children
# passes of an untraced run, at least: an operation's median over four
# passes barely moves when a slow spell of a shared host hits one of them
MIN_PASSES = 4
PROBE_REPEATS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


class BenchmarkError(Exception):
    """A result that must repeat did not, or the harness itself failed."""


def _nproc():
    return len(os.sched_getaffinity(0))


def setup(workload, seed, workdir):
    """Import the package and draw the inputs; returns (seconds, inputs)."""
    os.makedirs(workdir, exist_ok=True)
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import framemeasures
    import framemeasures.cli  # noqa: F401  (suites, report)

    if os.path.dirname(os.path.abspath(framemeasures.__file__)) != os.path.join(SRC, "framemeasures"):
        raise BenchmarkError(f"framemeasures imported from {framemeasures.__file__}, not {SRC}")
    import workloads

    inputs = workloads.make_inputs(workload, seed, workdir)
    return time.perf_counter() - start, inputs


def child_setup(workload, seed, workdir):
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", workdir,
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def load_modules():
    """The package's layer modules; the ops look functions up on these at
    call time, so the tracer's wrappers see every call."""
    import importlib
    import types

    import spans

    return types.SimpleNamespace(
        **{name: importlib.import_module(f"framemeasures.{name}") for name in spans.LAYERS}
    )


class Gate:
    """Outcome of every operation run: failures, causes, correctness."""

    def __init__(self):
        self.correct = True
        self.problems = []
        self.causes = {}
        self.digests = set()

    def record(self, op, verdict, counted):
        if not verdict.correct:
            self.correct = False
            self.problems.append(f"{op.name}: {verdict.cause}")
        if verdict.digest:
            self.digests.add(verdict.digest)
        if counted and not verdict.ok:
            key = verdict.cause or "failed"
            self.causes[key] = self.causes.get(key, 0) + 1


def release_heap():
    """Hand the heap's free pages back to the system between operations, as
    separate CLI processes would start with a fresh heap: the peak RSS is
    then the heaviest operation's, not that plus what the operations
    before it left fragmented (with which the seed moved cli_mix's peak
    by a fifth)."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except AttributeError:  # not glibc
        pass


def run_pass(ops, gate, counted, tracer=None):
    """One pass over the operation list; returns (latencies, failed, exits)."""
    import workloads

    latencies, failed, exits = [], 0, {1: 0, 3: 0}
    for op in ops:
        start = time.perf_counter()
        try:
            result = tracer.root(op.call, f"op.{op.name}") if tracer else op.call()
            error = None
        except Exception as exc:  # the operation raised: a failure, not a harness error
            error = exc
        latencies.append(time.perf_counter() - start)
        if error is None:
            verdict = op.check(result)
            if verdict.exit in exits:
                exits[verdict.exit] += 1
        else:
            verdict = workloads.Verdict(False, True, f"raised {type(error).__name__}: {error}"[:160])
        gate.record(op, verdict, counted)
        failed += not verdict.ok
        result = None
        release_heap()
    return latencies, failed, exits


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile, q in (0, 100): a mean
    of all order statistics weighted by a Beta density centred on rank
    q/100 * (n + 1). One operation more or less above that rank moves the
    estimate a little, not to the next operation's latency."""
    import numpy as np
    from scipy.special import betainc

    n = len(values)
    p = q / 100.0
    weights = np.diff(betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ np.sort(values))


def measure(args, workdir):
    import spans

    setup_times = []
    t, inputs = setup(args.workload, args.seed, os.path.join(workdir, "main"))
    setup_times.append(t)
    if not args.trace:
        for i in range(SETUP_REPEATS - 1):
            setup_times.append(child_setup(args.workload, args.seed, os.path.join(workdir, f"c{i}")))

    import workloads

    mods = load_modules()
    ops = workloads.build_ops(args.workload, inputs, mods)
    gate = Gate()
    run_pass(ops, gate, counted=False)  # warm-up

    tracer = spans.Tracer() if args.trace else None
    untraced, traced, layer_runs = [], [], []
    attempted, failed = 0, 0
    per_op = [[] for _ in ops]  # untraced latencies of each operation
    begin = time.perf_counter()
    while True:
        use_trace = bool(tracer) and len(traced) < len(untraced)
        if use_trace:
            tracer.install(vars(mods))
        try:
            lat, bad, exits = run_pass(ops, gate, counted=True, tracer=tracer if use_trace else None)
        finally:
            if use_trace:
                tracer.uninstall()
        attempted += len(ops)
        failed += bad
        if use_trace:
            traced.append(sum(lat))
            pass_spans = tracer.take()
            metrics = spans.layer_metrics(pass_spans)
            metrics["cli.exit1"], metrics["cli.exit3"] = exits[1], exits[3]
            layer_runs.append(metrics)
            last_spans = pass_spans
        else:
            untraced.append(sum(lat))
            for times, t in zip(per_op, lat):
                times.append(t)
        done = time.perf_counter() - begin >= args.seconds
        if done and (traced if tracer else len(untraced) >= MIN_PASSES):
            break

    if len(gate.digests) > 1:
        raise BenchmarkError(f"verify-all payload digest differs between passes: {sorted(gate.digests)}")

    detail = {
        "passes": len(untraced) + len(traced),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "ops_per_pass": len(ops),
        "failure_causes": gate.causes,
        "problems": gate.problems[:20],
        "payload_sha256": next(iter(gate.digests), None),
        "setup_samples_s": setup_times,
    }
    if tracer:
        metrics = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
        metrics["trace.untraced_wall_s"] = statistics.median(untraced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        w1, wn, same = probe_normal_matrix(mods, args.seed)
        metrics["streams.normal_matrix.workers1_s"] = w1
        metrics["streams.normal_matrix.workersN_s"] = wn
        if not same:
            gate.correct = False
            gate.problems.append("normal_matrix differs between workers=1 and the default")
        detail["spans_file"] = write_spans(args, last_spans)
        units = {name: unit for name, unit, *_ in spans.LAYER_METRICS}
    else:
        # an operation's latency is its median over the untraced passes, so
        # one slow pass does not move the percentiles across operations
        op_ms = [statistics.median(times) * 1e3 for times in per_op]
        tail_q = int(100 * (1 - 10 / len(op_ms))) if len(op_ms) > 10 else None
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(untraced),
            "op_p50_ms": percentile(op_ms, 50),
            "op_p90_ms": percentile(op_ms, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - failed / attempted,
        }
        detail.update(
            op_samples=len(op_ms),
            op_passes=len(untraced),
            op_tail_pct=tail_q,
            op_tail_ms=percentile(op_ms, tail_q) if tail_q else None,
            failed_ratio=failed / attempted,
            wall_samples_s=untraced,
            op_median_ms={op.name: t for op, t in zip(ops, op_ms)},
        )
        units = dict(END_TO_END)
    metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return {"correct": gate.correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, detail


def probe_normal_matrix(mods, seed):
    """Median time of normal_matrix at the verify_all size with one worker
    and with the default worker count; also whether both agree bitwise."""
    import hashlib

    import workloads

    rows, cols = workloads.VERIFY_SAMPLES, workloads.VERIFY_DIM
    times = {1: [], None: []}
    digests = set()
    for _ in range(PROBE_REPEATS):
        for workers in (1, None):
            start = time.perf_counter()
            z = mods.streams.normal_matrix(seed, rows, cols, stream=mods.streams.STREAM_WHITENOISE,
                                           workers=workers)
            times[workers].append(time.perf_counter() - start)
            digests.add(hashlib.sha256(memoryview(z)).hexdigest())
            del z
    return statistics.median(times[1]), statistics.median(times[None]), len(digests) == 1


def write_spans(args, spans_list):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
    with open(path, "w") as fh:
        for i, s in enumerate(spans_list):
            fh.write(json.dumps({"id": i, "name": s.name, "func": s.func, "layer": s.layer,
                                 "start": s.start, "end": s.end, "parent": s.parent,
                                 "op": s.op, "error": s.error}) + "\n")
    return os.path.relpath(path, ROOT)


def machine(seed):
    import platform

    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": _nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "FRAMES_THREADS": os.environ.get("FRAMES_THREADS"),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None
    outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                return next(line.split()[0] for line in fh if line.rstrip().endswith(ref))
    except (OSError, StopIteration):
        return None


def emit(args, result, detail, record):
    import spans

    moves = {name: f"  moves {metric} on {on}" for name, _, _, metric, on in spans.LAYER_METRICS}
    print(f"# framemeasures benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# machine " + json.dumps(record["machine"]))
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:>18.6g} {m['unit']:6s}{moves.get(name, '')}")
    print(f"{'attempted':42s} {result['attempted']:>18d} ops")
    print(f"{'failed':42s} {result['failed']:>18d} ops")
    print("# detail " + json.dumps(detail))
    print(json.dumps(result))


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "framemeasures", "__init__.py")):
        print(f"error: no framemeasures package under {SRC}", file=sys.stderr)
        return 2
    os.environ.setdefault("FRAMES_THREADS", str(_nproc()))
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result, detail = measure(args, workdir)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:  # another run still works there
            pass
    record = {"machine": machine(args.seed), "args": vars(args), "detail": detail, "result": result}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    emit(args, result, detail, record)
    return 0


def run_all(args):
    """Every workload at both trace settings, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            merged["correct"] &= result["correct"]
            if not trace:
                merged["attempted"] += result["attempted"]
                merged["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        seconds, _ = setup(args.workload, args.seed, args.setup_probe)
        print(repr(seconds))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
