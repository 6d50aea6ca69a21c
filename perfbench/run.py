"""Seeded end-to-end and per-layer benchmark of entmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload detect-long --seed 1 --seconds 30 --trace 0

One client, one thread, closed loop: the next operation starts when the last
one returns. Inputs are built from the seed before timing starts. Every
operation's output is checked against the digest recorded in
``reference.json``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the library's layers, runs every operation twice, traced
and untraced back to back, and reports per-layer metrics. The
last line of standard output is the result as one JSON object; run artifacts
(the saved model, spans, full results) go to ``.perfbench/`` at the
repository root.

    python3 perfbench/run.py --record-reference [WORKLOAD ...]

recomputes the reference digests of the named (default: all) workloads.
"""

import os

# Pin BLAS/OpenMP pools before NumPy loads: the loop is single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 20
P90_MIN_OPS = 100  # at least ten samples beyond the 90th percentile

PROBE = (
    "import sys; from pathlib import Path; sys.path[:0] = [{src!r}, {bench!r}]; "
    "import workloads; workloads.WORKLOADS[{name!r}].setup(Path({workdir!r}))"
)


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_entmark():
    """Import entmark from this checkout's src/, never from anywhere else."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import entmark
    except ImportError as exc:
        raise BenchError(f"cannot import entmark from {SRC}: {exc}") from None
    if Path(entmark.__file__).resolve().parent != (SRC / "entmark").resolve():
        raise BenchError(f"entmark resolved to {entmark.__file__}, not {SRC}")


def load_reference(name, pool):
    try:
        digests = json.loads(REFERENCE.read_text())[name]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no reference digests for {name}: {exc!r}") from None
    if len(digests) != pool:
        raise BenchError(f"{name}: {len(digests)} reference digests for a pool of {pool}")
    return digests


def measure_setup(name, probes):
    """Wall times of fresh interpreters doing import + set-up."""
    code = PROBE.format(src=str(SRC), bench=str(BENCH), name=name, workdir=str(WORKDIR))
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"set-up probe took over {PROBE_TIMEOUT_S} s") from None
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return times


class Tally:
    """Op times and outcome counts of one loop."""

    def __init__(self):
        self.op_s, self.cpu_s, self.wall_s = [], 0.0, 0.0
        self.attempted = self.failed = self.completed = 0

    def run(self, wl, ctx, inputs, digests, j, tracer=None):
        """Run pool entry ``j`` as the next op, then check its digest outside
        the op's timing. A raising op counts as failed; the loop goes on."""
        import workloads

        rng = workloads.entry_rng(wl.name, j, 1)
        if tracer:
            tracer.begin_op(self.attempted)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = wl.op(ctx, inputs[j], rng)
        except Exception:
            out = None
            if self.failed == 0:
                traceback.print_exc()
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.end_op()
        self.op_s.append(t1 - t0)
        self.cpu_s += c1 - c0
        self.attempted += 1
        if out is not None:
            self.completed += 1
        if out is None or wl.digest(out) != digests[j]:
            self.failed += 1


def run_ops(wl, ctx, inputs, order, digests, seconds):
    """Closed loop over the pool in ``order`` until ``seconds`` pass."""
    tally = Tally()
    wall0 = time.perf_counter()
    while True:
        tally.run(wl, ctx, inputs, digests, order[tally.attempted % len(order)])
        if time.perf_counter() - wall0 >= seconds:
            break
    tally.wall_s = time.perf_counter() - wall0
    return tally


def environment():
    from entmark import detection

    py_files = sorted(p for p in (SRC / "entmark").iterdir() if p.suffix in (".py", ".pyx"))
    src_hash = hashlib.sha256()
    lines = 0
    for path in py_files:
        data = path.read_bytes()
        src_hash.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "alignment_backend": detection.DEFAULT_BACKEND,
        "git_commit": git_commit(),
        "src_python_lines": lines,  # *.py and *.pyx, not the generated _alignment.c
        "src_sha256": src_hash.hexdigest()[:16],
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def git_commit():
    """HEAD of the repository rooted exactly here, or None (e.g. an export)."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = top.stdout.split()
    if top.returncode != 0 or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return None
    return out[1]


def end_to_end(loop, setup_s):
    op_ms = [s * 1e3 for s in loop.op_s]
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (loop.completed / loop.wall_s, "1/s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"error_rate": (loop.failed / loop.attempted, "ratio")}
    if len(op_ms) >= P90_MIN_OPS:
        extra["op_ms_p90"] = (statistics.quantiles(op_ms, n=10)[-1], "ms")
    return metrics, extra


PER_LAYER_UNITS = {"calls": "calls/op", "self_ms": "ms/op", "cells": "cells/op",
                   "chacha_blocks": "blocks/op", "cpu_util": "ratio",
                   "overhead_pct": "%", "coverage_pct": "%", "below_entry_pct": "%"}
COVERAGE_MIN_PCT = 90.0


def per_layer(wl, ctx, inputs, order, digests, seconds):
    """Each op twice, traced and untraced back to back, alternating which goes
    first, so the tracing overhead is measured under the same host load."""
    from tracer import Tracer

    tracer = Tracer()
    traced, plain = Tally(), Tally()
    wall0 = time.perf_counter()
    while time.perf_counter() - wall0 < seconds and not tracer.full:
        j = order[traced.attempted % len(order)]
        for is_traced in ((True, False) if traced.attempted % 2 == 0 else (False, True)):
            if is_traced:
                tracer.install()
                try:
                    traced.run(wl, ctx, inputs, digests, j, tracer)
                finally:
                    tracer.uninstall()
            else:
                plain.run(wl, ctx, inputs, digests, j)
    values = tracer.summary(traced.attempted)
    values["process.cpu_util"] = plain.cpu_s / sum(plain.op_s)
    values["trace.overhead_pct"] = 100.0 * (sum(traced.op_s) / sum(plain.op_s) - 1.0)
    metrics = {k: (float(v), PER_LAYER_UNITS[k.rsplit(".", 1)[1]]) for k, v in values.items()}
    extra = {k: (v, "ratio") for k, v in tracer.ratios().items()}
    return metrics, extra, [traced, plain], tracer


def run(workload, seed, seconds, trace):
    """One benchmark run; returns the full result and prints the human lines."""
    import numpy as np
    import workloads

    wl = workloads.WORKLOADS[workload]
    digests = load_reference(workload, wl.pool)
    WORKDIR.mkdir(exist_ok=True)
    wl.prepare(WORKDIR)
    ctx = wl.setup(WORKDIR)
    inputs = [wl.make_input(ctx, workloads.entry_rng(workload, j, 0)) for j in range(wl.pool)]
    order = [int(j) for j in np.random.default_rng([seed]).permutation(wl.pool)]

    flags, setup_all = [], []
    if trace:
        metrics, extra, tallies, tracer = per_layer(wl, ctx, inputs, order, digests, seconds)
        tracer.write(WORKDIR / f"spans-{workload}.npz")
        if tracer.missing:
            flags.append(f"layers not found, not traced: {', '.join(tracer.missing)}")
        for key, which in (("trace.coverage_pct", "named layers"),
                           ("trace.below_entry_pct", "layers below the entry call")):
            if metrics[key][0] < COVERAGE_MIN_PCT:
                flags.append(f"{which} cover only {metrics[key][0]:.1f}% of traced op time "
                             f"(< {COVERAGE_MIN_PCT:g}%)")
    else:
        # half the set-up probes before the timed loop and half after it, so
        # that setup_s samples the host's speed at two points of the run
        setup_all = measure_setup(workload, SETUP_PROBES // 2)
        loop = run_ops(wl, ctx, inputs, order, digests, seconds)
        setup_all += measure_setup(workload, SETUP_PROBES - SETUP_PROBES // 2)
        metrics, extra = end_to_end(loop, statistics.median(setup_all))
        tallies = [loop]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "extra_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "setup_probes_s": setup_all, "flags": flags, "env": environment(),
    }
    print(f"workload {workload} seed {seed} seconds {seconds} trace {trace}: "
          f"{attempted} ops, {failed} failed")
    for k, (v, u) in {**metrics, **extra}.items():
        print(f"  {k:40s} {v:14.6g} {u}")
    for flag in flags:
        print(f"FLAG {flag}")
    print("env " + json.dumps(details["env"], sort_keys=True))
    (WORKDIR / f"result-{workload}-trace{trace}.json").write_text(
        json.dumps({**result, **details}, indent=1) + "\n")
    return result, details


def record_reference(names):
    """Recompute the reference digest of every pool entry of ``names``."""
    import workloads

    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    WORKDIR.mkdir(exist_ok=True)
    for name in names:
        wl = workloads.WORKLOADS[name]
        wl.prepare(WORKDIR)
        ctx = wl.setup(WORKDIR)
        t0 = time.perf_counter()
        ref[name] = [
            wl.digest(wl.op(ctx, wl.make_input(ctx, workloads.entry_rng(name, j, 0)),
                            workloads.entry_rng(name, j, 1)))
            for j in range(wl.pool)
        ]
        print(f"{name}: {wl.pool} digests in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", nargs="*", metavar="WORKLOAD")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        import_entmark()
        import workloads

        if args.record_reference is not None:
            record_reference(args.record_reference or list(workloads.WORKLOADS))
            return 0
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
        result, _ = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
