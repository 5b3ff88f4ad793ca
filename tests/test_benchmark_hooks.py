"""The benchmark's hooks into the engine still exist.

``perfbench/layers.py`` patches names in the package and ``BENCHMARK.json``
names engine event kinds, so renaming or deleting one breaks the traced
benchmark, not the program. These checks catch that in tier-1.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from oscmac.engine import Simulator

ROOT = Path(__file__).resolve().parents[1]
# per-layer names that perfbench/sample.py and perfbench/run.py add to
# LayerTracer.report's
ADDED_OUTSIDE_LAYERS = {"engine.trace_rows", "trace.metrics_s", "trace.bytes",
                        "engine.us_per_event", "trace_overhead_s"}


def _per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec["per_layer"]}


def test_benchmark_event_kinds_are_engine_handlers():
    kinds = {name.split(".", 2)[2] for name in _per_layer_names()
             if name.startswith(("engine.events.", "engine.handler_s."))}
    assert kinds
    assert kinds <= set(Simulator._HANDLERS)


_TRACED_CT_RUN = """
import json, sys
from layers import LayerTracer
tracer = LayerTracer()
tracer.install()
from conftest import generated_doc, make_config
from oscmac import engine, trace
cfg = make_config(generated_doc(mode="ct"))
sim = engine.Simulator(cfg, 0)
sim.run()
trace.render_trace(sim.rows, cfg.config_hash(), 0)
print(json.dumps(tracer.report(sorted(engine.Simulator._HANDLERS))))
"""


def test_layer_tracer_installs_and_reports_a_ct_run():
    """``LayerTracer().install()`` finds every name it patches, and one small
    CT run through it reports every per-layer name the benchmark lists that
    ``layers.py`` produces, with the cooperative path's wrappers and the
    wake rule's (``MacState`` reaches the schedule and ``reserve``) called."""
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", _TRACED_CT_RUN], env=env, cwd=ROOT,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    assert _per_layer_names() - ADDED_OUTSIDE_LAYERS <= set(report)
    for name in ("engine.events.sf_announce", "engine.events.ct_coop",
                 "mac.compose_superframe.calls", "mac.on_superframe.calls",
                 "selection.handle_ct_request.calls", "energy.tx_energy.calls",
                 "channel.distance.calls", "mac.is_awake.calls", "mac.awake_time.calls",
                 "mac.reserve.calls"):
        assert report[name] > 0, name
