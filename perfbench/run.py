"""Benchmark of the oscmac simulator: one workload, one seed, one mode.

    python3 perfbench/run.py --workload ct-200 --seed 0 --seconds 30 --trace 0

Runs samples of the workload one at a time, each in a fresh process
(``sample.py``), until ``--seconds`` would be exceeded, and at least
MIN_SAMPLES of them. Every sample is checked; one that raises, breaks
energy conservation, reports a trace row count other than its
``events_processed``, or whose outcome counts or trace digest differ from
the first sample's, counts as failed.

With ``--trace 0`` the result holds the end-to-end metrics, each the median
over the samples. With ``--trace 1`` traced and untraced samples alternate,
and the result holds the per-layer metrics of the traced ones; a traced
sample must then also reproduce the untraced trace digest and outcome
counts, and its layer self times must add up to its run time.

The metric names and units are those of BENCHMARK.json. The last line
printed is the JSON result; the lines before it give the outcome counts
and every metric with its unit and quartiles.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_SAMPLES = 3
DEADLINE_S = 175  # a sample still running then is killed and the run fails
CONSERVATION_TOLERANCE_J = 1e-9
# traced layer self times against the traced run_s: relative and absolute slack
LAYER_SUM_TOLERANCE = (0.01, 0.001)


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_sample(workload, seed, traced, timeout):
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--traced", str(int(traced))]
    # a fixed string hash seed keeps dict and set layouts alike across samples
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"sample still running after {DEADLINE_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"sample process exited with {proc.returncode}:\n"
                             f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def failure(sample, reference):
    """Why ``sample`` counts as a failed operation, or None."""
    if "error" in sample:
        return "raised: " + sample["error"].strip().splitlines()[-1]
    if sample["conservation_error_j"] > CONSERVATION_TOLERANCE_J:
        return f"energy conservation off by {sample['conservation_error_j']:.3g} J"
    if not sample["events_match_rows"]:
        return "events_processed differs from the trace row count"
    if reference is not sample and sample["outcomes"] != reference.get("outcomes"):
        return "outcome counts or trace digest differ from the first sample"
    if sample["traced"]:
        rel, absolute = LAYER_SUM_TOLERANCE
        gap = abs(sample["layer_sum_s"] - sample["run_s"])
        if gap > rel * sample["run_s"] + absolute:
            return f"layer self times miss the traced run_s by {gap:.4f} s"
    return None


def collect(workload, seed, seconds, trace):
    """Run samples until the time is spent; returns (samples, failures)."""
    start = time.perf_counter()
    samples, failures = [], []
    while True:
        # in traced mode every second sample is traced, the first one not
        traced = trace and len(samples) % 2 == 1
        sample = run_sample(workload, seed, traced,
                            timeout=max(1.0, DEADLINE_S - (time.perf_counter() - start)))
        samples.append(sample)
        reason = failure(sample, samples[0])
        if reason:
            failures.append(reason)
        elapsed = time.perf_counter() - start
        enough = len(samples) >= (2 if trace else MIN_SAMPLES)
        if enough and elapsed * (len(samples) + 1) / len(samples) > seconds:
            return samples, failures


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def end_to_end(samples):
    return {key: median_of(samples, key)
            for key in ("setup_s", "run_s", "wall_s", "peak_rss_mb")}


def per_layer(samples):
    plain = [s for s in samples if not s["traced"] and "error" not in s]
    traced = [s for s in samples if s["traced"] and "error" not in s]
    if not plain or not traced:
        raise BenchmarkError("no traced and untraced sample both completed")
    values = {name: statistics.median(s["layers"][name] for s in traced)
              for name in traced[0]["layers"]}
    run_s = median_of(plain, "run_s")
    values["engine.us_per_event"] = run_s / values["engine.heap_events"] * 1e6
    values["trace_overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "oscmac" / "__init__.py").is_file():
        raise BenchmarkError(f"no oscmac package under {ROOT / 'src'}")

    samples, failures = collect(args.workload, args.seed, args.seconds, args.trace)
    for reason in failures:
        print(f"failed sample: {reason}")
    good = [s for s in samples if "error" not in s]
    if not good:
        raise BenchmarkError("every sample raised:\n" + samples[0]["error"])
    print("outcomes " + json.dumps(good[0]["outcomes"], sort_keys=True))
    print(f"conservation_error_j {max(s['conservation_error_j'] for s in good):.3g}")

    if args.trace:
        for sample in good:
            if sample["traced"]:
                print(f"traced run_s {sample['run_s']:.6g} s, layer self times sum to "
                      f"{sample['layer_sum_s']:.6g} s")
        listed = spec["per_layer"]
        values = per_layer(good)
        spread = {}
    else:
        listed = spec["end_to_end"]
        values = end_to_end(good)
        spread = {key: quartiles([s[key] for s in good]) for key in values}
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"benchmark reports no value for {missing}")
    for m in listed:
        line = f"{m['name']} {values[m['name']]:.6g} {m['unit']}"
        if m["name"] in spread:
            low, high = spread[m["name"]]
            line += f"  (quartiles {low:.6g}..{high:.6g}, {len(good)} samples)"
        print(line)

    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
