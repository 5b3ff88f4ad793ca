"""One sample of one oscmac benchmark workload, in a process of its own.

``run.py`` starts this script once per sample, one at a time, so that no
sample inherits another's heap or peak memory:

    python3 perfbench/sample.py --workload ct-200 --seed 0 --traced 0

It drives the public API in one thread: ``parse_config`` ->
``Simulator(cfg, seed)`` -> ``Simulator.run()`` -> ``render_trace`` plus
the metrics JSON, rendered to strings with no disk writes. Its last line
of output is one JSON object with the sample's timings, peak memory,
outcome counts and the results of the correctness checks. With
``--traced 1`` the package is wrapped by ``layers.LayerTracer`` first and
the object also holds the per-layer figures.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FRAME_MS = 100.0
# Every workload runs on generator topology 1 with run seed 0, the inputs
# its figures in README.md were taken on. --seed shifts the traffic start
# by whole frames instead: duty schedules repeat every frame, so a shift
# changes the inputs and the trace but keeps the protocol's path. A new
# topology or run seed changes the work itself, by up to 3x on ct-200.
GENERATOR_SEED = 1
RUN_SEED = 0
SHIFT_FRAMES = 16
# set-ups per sample, the timed scenario's own included: at least the
# minimum, then more until SETUP_BUDGET_S of them is timed or the maximum
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 50
SETUP_BUDGET_S = 0.3

WORKLOADS = {
    "noct-1000": {"nodes": 1000, "area_m": 1400.0, "active_ms": 1.0, "mode": "noct",
                  "sources": 5, "packets": 10, "battery_j": 2.0},
    "ct-200": {"nodes": 200, "area_m": 600.0, "active_ms": 1.0, "mode": "ct",
               "sources": 5, "packets": 10, "battery_j": 2.0},
    "lifetime-50": {"nodes": 50, "area_m": 300.0, "active_ms": 2.0, "mode": "auto",
                    "sources": 10, "packets": 100, "battery_j": 0.05},
}


def scenario_json(workload, seed):
    """The scenario document of ``workload`` under benchmark seed ``seed``."""
    w = WORKLOADS[workload]
    return json.dumps({
        "topology": {"generator": {"node_count": w["nodes"], "area_m": w["area_m"],
                                   "seed": GENERATOR_SEED}},
        "traffic": {"sources": w["sources"], "packets_per_source": w["packets"],
                    "jitter_ms": 200.0,
                    "start_s": (seed % SHIFT_FRAMES) * FRAME_MS / 1000.0},
        "mac": {"mode": w["mode"], "active_ms": w["active_ms"], "frame_ms": FRAME_MS},
        "sim": {"horizon_s": 1000.0, "battery_j": w["battery_j"]},
    })


def render_metrics(metrics, config_hash, seed, version):
    """The document ``oscmac.trace.write_metrics`` writes, as a string."""
    doc = {"config_hash": config_hash, "seed": seed, "version": version}
    doc.update(metrics.to_dict())
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def outcomes(metrics, rows, trace_csv):
    """Outcome counts of one run, and its energy conservation error in J.

    The conservation check is acceptance check c08's: joules spent by all
    batteries against the charges summed from the trace rows.
    """
    delivered, duplicates, deaths, charged = set(), 0, 0, 0.0
    for _, _, _, event, detail_json, _ in rows:
        detail = json.loads(detail_json)
        if event == "delivered":
            duplicates += detail["seq"] in delivered
            delivered.add(detail["seq"])
        elif event == "node_died":
            deaths += 1
        if event == "energy_account":
            charged += detail["idle_j"] + detail["sleep_j"]
        elif "j" in detail:
            charged += detail["j"]
    spent = sum(metrics.initial_by_node[n] - metrics.residual_by_node[n]
                for n in metrics.initial_by_node)
    counts = {
        "sim.packets_offered": metrics.packets_offered,
        "sim.packets_delivered": metrics.packets_delivered,
        "sim.packets_failed": metrics.packets_failed,
        "sim.duplicate_deliveries": duplicates,
        "sim.collisions": metrics.collisions,
        "sim.deaths": deaths,
        "sim.first_death_s": metrics.network_lifetime_first_death_s,
        "sim.trace_sha256": hashlib.sha256(trace_csv.encode()).hexdigest(),
    }
    return counts, abs(spent - charged)


def measure(workload, seed, tracer):
    import oscmac
    from oscmac import config, engine, trace

    text = scenario_json(workload, seed)
    clock = time.perf_counter
    setup_s = []
    # repeated set-ups give setup_s a steady median; a traced sample sets up
    # once so that its call counts cover one scenario
    while not tracer and len(setup_s) + 1 < SETUP_MAX_REPEATS and (
            len(setup_s) + 1 < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_BUDGET_S):
        gc.collect()
        t0 = clock()
        sim = engine.Simulator(config.parse_config(text), RUN_SEED)
        setup_s.append(clock() - t0)
        del sim

    gc.collect()
    t0 = clock()
    cfg = config.parse_config(text)
    sim = engine.Simulator(cfg, RUN_SEED)
    t1 = clock()
    metrics = sim.run()
    t2 = clock()
    config_hash = cfg.config_hash()
    trace_csv = trace.render_trace(sim.rows, config_hash, RUN_SEED)
    t3 = clock()
    render_metrics(metrics, config_hash, RUN_SEED, oscmac.__version__)
    t4 = clock()
    setup_s.append(t1 - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    counts, conservation_error = outcomes(metrics, sim.rows, trace_csv)
    result = {
        "setup_s": statistics.median(setup_s),
        "run_s": t2 - t1,
        "wall_s": t4 - t0,
        "peak_rss_mb": peak_rss_mb,
        "outcomes": counts,
        "conservation_error_j": conservation_error,
        "events_match_rows": metrics.events_processed == len(sim.rows),
    }
    if tracer:
        layer = tracer.report(sorted(engine.Simulator._HANDLERS))
        layer.update({
            "engine.trace_rows": len(sim.rows),
            "trace.metrics_s": t4 - t3,
            "trace.bytes": len(trace_csv.encode()),
        })
        result["layers"] = layer
        result["layer_sum_s"] = tracer.layer_sum_s()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import oscmac  # noqa: F401  -- a missing package fails the process, not the sample

    tracer = None
    if args.traced:
        from layers import LayerTracer
        tracer = LayerTracer()
        tracer.install()
    try:
        result = measure(args.workload, args.seed, tracer)
    except Exception:
        result = {"error": traceback.format_exc(limit=3)}
    result["traced"] = bool(args.traced)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
