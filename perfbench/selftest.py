"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in under a minute:

1. an injected fault is caught: one detect-short p-value moved by one ulp,
   one generate-narrow token changed and one generate-narrow op that raises
   each count as a failed op, so ``error_rate`` rises above 0;
2. the real command, on every workload, emits exactly the metrics that
   ``BENCHMARK.json`` declares, with their units (``--trace 0`` the end-to-end
   ones, ``--trace 1`` the per-layer ones), plus ``error_rate`` and, on a run
   of at least 100 ops, ``op_ms_p90``; each traced workload shows calls in the
   layers it is meant to exercise and none in layers it must not touch (no key
   derivation on detect-short, for one), reports the count ratios only where
   they are defined, and has every layer traced with coverage of at least 90%;
3. in a directory holding only ``BENCHMARK.json`` and the benchmark's own
   files, the command exits non-zero without printing a result.

Exits 1 at the first failed check.
"""

import json
import shutil
import subprocess
import sys

import run  # first: it pins the BLAS thread pools before NumPy loads

import numpy as np  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SPEC_WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layers whose calls must be non-zero per workload, and those that must be 0.
EXERCISED = {
    "detect-long": ["detection.pvalue", "detection.phi", "detection.cost_matrix",
                    "detection.align", "keys.resample", "keys.derive"],
    "detect-short": ["detection.pvalue", "detection.phi", "detection.cost_matrix",
                     "detection.align", "keys.resample"],
    "generate-wide": ["generation.generate", "keys.derive", "sampling.its",
                      "lm.validate_distribution", "lm.context_distribution"],
    "generate-narrow": ["generation.generate", "keys.derive", "sampling.bs",
                        "coding.prefix_mass", "lm.validate_distribution",
                        "lm.context_distribution"],
}
IDLE = {"detect-short": ["keys.derive", "generation.generate"],
        "detect-long": ["generation.generate"],
        "generate-wide": ["detection.align", "sampling.bs"],
        "generate-narrow": ["detection.align", "sampling.its"]}


def check(ok, what):
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def faults_are_caught():
    run.import_entmark()
    from entmark import detection, generation

    original_detect, original_generate = detection.detect_pvalue, generation.generate
    calls = {"detect": 0, "generate": 0}

    def perturbed_detect(*args, **kwargs):
        report = original_detect(*args, **kwargs)
        calls["detect"] += 1
        if calls["detect"] == 2:
            report.p_value = float(np.nextafter(report.p_value, 2.0))
        return report

    def perturbed_generate(*args, **kwargs):
        result = original_generate(*args, **kwargs)
        calls["generate"] += 1
        if calls["generate"] == 2:
            result.tokens[-1] = (result.tokens[-1] + 1) % 8
        if calls["generate"] == 3:
            raise ValueError("injected failure")
        return result

    detection.detect_pvalue, generation.generate = perturbed_detect, perturbed_generate
    try:
        short, short_details = run.run("detect-short", 0, 1.0, 0)
        narrow, narrow_details = run.run("generate-narrow", 0, 1.0, 0)
    finally:
        detection.detect_pvalue, generation.generate = original_detect, original_generate
    check(short["failed"] == 1 and not short["correct"]
          and short_details["extra_metrics"]["error_rate"]["value"] > 0,
          "a one-ulp p-value change is counted as a failed op")
    check(narrow["failed"] == 2 and not narrow["correct"]
          and narrow_details["extra_metrics"]["error_rate"]["value"] > 0,
          "a changed token and a raising op are counted as failed ops")


def command(workload, trace, seconds, cwd=run.ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def metrics_are_emitted():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in SPEC_WORKLOADS:
            seconds = 2.0 if workload == "generate-narrow" else 1.0
            proc = command(workload, trace, seconds)
            check(proc.returncode == 0, f"{workload} --trace {trace} exits 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                  and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} --trace {trace} is correct")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            check(emitted == declared, f"{workload} --trace {trace} emits the {key} metrics")
            details = json.loads((run.WORKDIR / f"result-{workload}-trace{trace}.json").read_text())
            if trace == 0:
                extra = details["extra_metrics"]
                check(extra["error_rate"] == {"value": 0.0, "unit": "ratio"},
                      f"{workload} reports error_rate")
                if result["attempted"] >= run.P90_MIN_OPS:
                    check(extra["op_ms_p90"]["unit"] == "ms", f"{workload} reports op_ms_p90")
                continue
            values = {k: v["value"] for k, v in result["metrics"].items()}
            check(all(values[f"{layer}.calls"] > 0 for layer in EXERCISED[workload])
                  and all(values[f"{layer}.calls"] == 0 for layer in IDLE[workload]),
                  f"{workload} exercises its layers")
            ratios = set(details["extra_metrics"])
            expected = ({"keys.block_utilisation"} if "keys.derive" in EXERCISED[workload]
                        else set())
            if "generation.generate" in EXERCISED[workload]:
                expected.add("generation.watermarked_fraction")
            check(ratios == expected, f"{workload} reports only the ratios it defines")
            check(not any(f.startswith("layers not found") for f in details["flags"])
                  and values["trace.coverage_pct"] >= run.COVERAGE_MIN_PCT,
                  f"{workload} traces every layer, and they cover its op time")


def bare_directory_fails():
    bare = run.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = command("detect-short", 0, 1.0, cwd=bare)
    shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and not last[0].startswith("{"),
          "without the program the command fails and prints no result")


if __name__ == "__main__":
    faults_are_caught()
    metrics_are_emitted()
    bare_directory_fails()
    print("selftest passed")
