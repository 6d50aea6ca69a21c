"""A/B comparison of two revisions on the declared benchmark.

Usage (from the repository root):

    python3 tools/ab.py --base REV --head REV --pairs 10

Exports both revisions with ``git archive`` into temporary trees and runs
``perfbench/run.py --trace 0`` in each, pair by pair: pair i runs every
workload ``BENCHMARK.json`` declares, for its ``run_seconds``, with seed i in
both trees, the base tree first on even pairs and the head tree first on odd
ones, so a slow drift of the host falls on both sides. Then it runs
``perfbench/selftest.py`` once in the head tree and times the Tier-1 suite
once in each tree. Writes ``BENCH_<head-sha>.json`` at the
repository root with, per workload and end-to-end metric, both medians, both
interquartile ranges and the pairs the head won, the same for each run's
whole-process minor page faults per attempted op (``process``), each end-to-end
metric's verdict (see ``verdict``), plus every
run's ``correct`` flag, the selftest's exit code and last line, both Tier-1
wall times and each tree's five slowest Tier-1 test phases
(``--durations=5``), both trees'
``src/entmark/*.py`` line counts and their difference, and the host's
Python, NumPy and ``cryptography`` versions and core count.

Exits 1 if any run is not ``correct`` (or fails outright), the selftest
fails or the head's Tier-1 run exits non-zero, 2 if a revision cannot be
exported.
"""

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SLOWEST = 5  # slowest Tier-1 test phases recorded per tree


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the committed files of ``rev`` into ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def minor_faults() -> int:
    """Minor page faults of every child process this one has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run: its result line, or a failed run's stderr.

    ``process`` holds the run's minor page faults per attempted op, counted
    over the whole process tree (the run's set-up probes and imports too),
    so it moves with a change to what one op faults in but is not that
    count alone.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    before = minor_faults()
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    faults = minor_faults() - before
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        return {"correct": False, "error": proc.stderr.strip()[-2000:], "metrics": {},
                "process": {}}
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "process": {"minor_faults_per_op": faults / max(1, result["attempted"])}}


def selftest(tree: Path) -> dict:
    """The benchmark's own selftest in ``tree``: its exit code and last line."""
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=tree,
                          capture_output=True, text=True)
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return {"exit": proc.returncode, "last_line": lines[-1] if lines else ""}


def slowest_tests(output: str) -> list:
    """The ``--durations`` report in pytest's ``output``: one entry per
    line, slowest first, with the test's id, its phase and its seconds."""
    found, report = [], False
    for line in output.splitlines():
        report = report or ("slowest" in line and "durations" in line)
        m = re.fullmatch(r"(\d+\.\d+)s (setup|call|teardown)\s+(.+)", line.strip())
        if report and m:
            found.append({"test": m[3], "phase": m[2], "seconds": float(m[1])})
    return found


def tier1_seconds(tree: Path) -> dict:
    """One timed Tier-1 run in ``tree``: wall time, exit code, summary line
    and the five slowest test phases."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", f"--durations={SLOWEST}"],
                          cwd=tree, env=env, capture_output=True, text=True)
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    return {"wall_s": time.perf_counter() - t0, "exit": proc.returncode, "summary": summary,
            "slowest": slowest_tests(proc.stdout)}


def src_lines(tree: Path) -> int:
    """Lines in the tree's ``src/entmark/*.py``, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "entmark").glob("*.py"))


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(m: dict, bound: float) -> str:
    """``gain`` if head won at least 9 in 10 of the pairs and its median is
    better than the base's by more than the base IQR; ``worse`` if its median
    is worse than the base's by more than ``bound``, a fraction of the base
    median; else ``within bound``."""
    ahead = m["head_median"] - m["base_median"]
    if m["better"] == "lower":
        ahead = -ahead
    if 10 * m["head_wins"] >= 9 * m["pairs"] and ahead > m["base_iqr"]:
        return "gain"
    if -ahead > bound * abs(m["base_median"]):
        return "worse"
    return "within bound"


def compare(runs: dict, better: dict, group: str = "metrics", bounds=None) -> dict:
    """Per metric of each run's ``group``: both medians and IQRs, in how many
    pairs head won and, for a metric ``bounds`` holds, its verdict."""
    out = {}
    for name, higher in better.items():
        pairs = [(b[group][name], h[group][name])
                 for b, h in zip(runs["base"], runs["head"])
                 if name in b[group] and name in h[group]]
        if not pairs:
            continue
        base, head = zip(*pairs)
        wins = sum(h > b if higher else h < b for b, h in pairs)
        (b1, b3), (h1, h3) = quartiles(base), quartiles(head)
        out[name] = {"better": "higher" if higher else "lower",
                     "base_median": statistics.median(base), "base_iqr": b3 - b1,
                     "head_median": statistics.median(head), "head_iqr": h3 - h1,
                     "head_wins": wins, "pairs": len(pairs)}
        if bounds and name in bounds:
            out[name]["verdict"] = verdict(out[name], bounds[name])
    return out


def host() -> dict:
    import numpy

    try:
        crypto = metadata.version("cryptography")
    except metadata.PackageNotFoundError:
        crypto = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cryptography": crypto, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
                for side, rev in (("base", args.base), ("head", args.head))}
    except subprocess.CalledProcessError as exc:
        print(f"error: cannot resolve a revision: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    spec = json.loads(git("show", f"{shas['head']}:BENCHMARK.json"))
    better = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: {"base": [], "head": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in shas}
        try:
            for side, sha in shas.items():
                export(sha, trees[side])
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot export a revision: {exc}", file=sys.stderr)
            return 2
        for seed in range(args.pairs):
            sides = ("base", "head") if seed % 2 == 0 else ("head", "base")
            for workload in workloads:
                for side in sides:
                    run = bench_once(trees[side], workload, seed, seconds)
                    runs[workload][side].append({"seed": seed, **run})
                    rate = run["metrics"].get("throughput_ops_s", float("nan"))
                    print(f"pair {seed} {workload} {side}: {rate:.1f} ops/s"
                          f"{'' if run['correct'] else ' NOT CORRECT'}", file=sys.stderr)
        head_selftest = selftest(trees["head"])
        tier1 = {side: tier1_seconds(tree) for side, tree in trees.items()}
        lines = {side: src_lines(tree) for side, tree in trees.items()}
    report = {
        "base": shas["base"], "head": shas["head"],
        "method": (f"perfbench/run.py --trace 0, {seconds:g} s a run, fresh process per "
                   f"run, seeds 0..{args.pairs - 1}; pair i runs base first for even i and "
                   f"head first for odd i"),
        "host": host(),
        "workloads": {w: {"metrics": compare(runs[w], better, bounds=bounds),
                          "process": compare(runs[w], {"minor_faults_per_op": False},
                                             "process"),
                          "runs": runs[w]}
                      for w in workloads},
        "all_correct": all(r["correct"] for w in workloads for side in runs[w].values()
                           for r in side),
        "selftest": head_selftest,
        "tier1": tier1,
        "src_lines": {**lines, "change": lines["head"] - lines["base"]},
    }
    path = ROOT / f"BENCH_{shas['head']}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for w in workloads:
        summary = report["workloads"][w]
        for name, m in [*summary["metrics"].items(), *summary["process"].items()]:
            print(f"{w:16s} {name:19s} {m['base_median']:12.4g} -> {m['head_median']:12.4g} "
                  f"(IQR {m['base_iqr']:.3g} / {m['head_iqr']:.3g}; head better in "
                  f"{m['head_wins']}/{m['pairs']}) {m.get('verdict', '')}".rstrip())
    for side in ("base", "head"):
        for t in tier1[side]["slowest"]:
            print(f"tier-1 {side:4s} {t['seconds']:7.2f} s {t['phase']:8s} {t['test']}")
    print(f"src/entmark/*.py lines {lines['base']} -> {lines['head']} "
          f"({lines['head'] - lines['base']:+d})")
    print(f"wrote {path}")
    failed = False
    if head_selftest["exit"] != 0:
        print(f"error: the head's perfbench selftest exited {head_selftest['exit']}: "
              f"{head_selftest['last_line']}", file=sys.stderr)
        failed = True
    if tier1["head"]["exit"] != 0:
        print(f"error: the head's Tier-1 run exited {tier1['head']['exit']}: "
              f"{tier1['head']['summary']}", file=sys.stderr)
        failed = True
    return 0 if report["all_correct"] and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
