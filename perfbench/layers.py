"""Per-layer tracing of oscmac, installed from outside the package.

``LayerTracer.install()`` replaces the public functions and methods that
the simulator calls across module boundaries with counting, timing
wrappers, so a traced run needs no change to ``src/``. The layers are the
package's modules: config, engine, mac, channel, energy, selection and
trace.

A wrapped call's self time is its duration minus the duration of the
wrapped calls nested inside it. The engine layer is ``Simulator.run``
itself: its self time is everything in the run that no other wrapped call
covers, including the event loop, the private handlers and the tracer's
own bookkeeping. Heap events are seen through a ``heapq`` proxy in
``oscmac.engine``: each popped kind is charged the time until the next
pop, and the last one until ``run`` returns.

Only calls made through the names the engine looks up are counted: for
example ``channel.distance`` counts the engine's own ``distance`` calls,
not those ``ct_reach`` makes inside the channel module.
"""

import functools
import heapq
import json
import time
import types
from collections import Counter, defaultdict


def _proxy(module, **overrides):
    """A stand-in for ``module`` with some attributes replaced."""
    proxy = types.ModuleType(module.__name__)
    proxy.__dict__.update(vars(module))
    proxy.__dict__.update(overrides)
    return proxy


def _ratio(part, whole):
    return part / whole if whole else 0.0


class LayerTracer:
    def __init__(self):
        self.calls = Counter()
        self.true = Counter()            # calls whose result was truthy
        self.self_s = defaultdict(float)
        self.events = Counter()          # dispatched heap events by kind
        self.handler_s = defaultdict(float)
        self.run_total_s = 0.0           # self time of wrapped calls inside the run
        self._stack = []                 # nested wrapped time per open call
        self._horizon_us = None
        self._open_kind = None
        self._open_t = 0.0

    def wrap(self, name, fn, truth=None):
        """Wrap ``fn`` so its calls, truthy results and self time are counted."""
        calls, true, self_s, stack = self.calls, self.true, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            calls[name] += 1
            if truth is not None and truth(result):
                true[name] += 1
            return result

        return traced

    def _heappop(self, heap):
        item = heapq.heappop(heap)
        now = time.perf_counter()
        if self._open_kind is not None:
            self.handler_s[self._open_kind] += now - self._open_t
        t_us, _, kind, _ = item
        # an event past the horizon ends the loop without being handled
        self._open_kind = kind if t_us <= self._horizon_us else None
        if self._open_kind is not None:
            self.events[kind] += 1
        self._open_t = now
        return item

    def _traced_run(self, run):
        def run_and_close(sim):
            self._horizon_us = sim.horizon_us
            before = sum(self.self_s.values())
            try:
                return run(sim)
            finally:
                now = time.perf_counter()
                if self._open_kind is not None:
                    self.handler_s[self._open_kind] += now - self._open_t
                    self._open_kind = None
                # wrapped calls nested in the run; engine self time is added
                # once this span closes
                self.run_total_s = sum(self.self_s.values()) - before
        return self.wrap("engine.run", run_and_close)

    def install(self):
        """Patch oscmac's cross-module calls in place; call before any run."""
        from oscmac import config, energy, engine, mac, selection, trace

        w = self.wrap
        config.parse_config = w("config.parse_config", config.parse_config)
        engine.Simulator.run = self._traced_run(engine.Simulator.run)
        engine.heapq = _proxy(heapq, heappop=self._heappop)
        engine.json = _proxy(json, dumps=w("trace.dumps", json.dumps))

        engine.distance = w("channel.distance", engine.distance)
        engine.in_reach = w("channel.in_reach", engine.in_reach, truth=bool)
        engine.ct_reach = w("channel.ct_reach", engine.ct_reach, truth=bool)

        engine.build_schedules = w("mac.build_schedules", engine.build_schedules)
        engine.compose_superframe = w("mac.compose_superframe", engine.compose_superframe)
        mac.two_hop_sets = w("mac.two_hop_sets", mac.two_hop_sets)
        mac.reserve = w("mac.reserve", mac.reserve, truth=bool)
        for name in ("step", "reserve_noct", "on_superframe"):
            setattr(mac, name, w(f"mac.{name}", getattr(mac, name)))
        schedule = mac.DutySchedule
        schedule.is_awake = w("mac.is_awake", schedule.is_awake, truth=bool)
        schedule.next_wake = w("mac.next_wake", schedule.next_wake)
        schedule.awake_time = w("mac.awake_time", schedule.awake_time)

        engine.tx_energy = w("energy.tx_energy", engine.tx_energy)
        engine.rx_energy = w("energy.rx_energy", engine.rx_energy)
        energy.Battery.drain = w("energy.drain", energy.Battery.drain)

        station = selection.WiLemStation
        station.handle_ct_request = w("selection.handle_ct_request", station.handle_ct_request,
                                      truth=lambda result: bool(result[0].helpers))
        station.update_energy = w("selection.update_energy", station.update_energy)

        trace.render_trace = w("trace.render_trace", trace.render_trace)

    def layer_sum_s(self):
        """Self time of every layer inside the run, the engine's included."""
        return self.run_total_s + self.self_s["engine.run"]

    def report(self, kinds):
        """Per-layer metrics by name; ``kinds`` are the engine's event kinds."""
        c, s = self.calls, self.self_s
        reach_calls = c["channel.in_reach"] + c["channel.ct_reach"]
        values = {
            "engine.heap_events": sum(self.events.values()),
            "engine.self_s": s["engine.run"],
            "channel.in_reach.calls": c["channel.in_reach"],
            "channel.ct_reach.calls": c["channel.ct_reach"],
            "channel.reach_s": s["channel.in_reach"] + s["channel.ct_reach"],
            "channel.reach_hit_ratio": _ratio(
                self.true["channel.in_reach"] + self.true["channel.ct_reach"], reach_calls),
            "channel.distance.calls": c["channel.distance"],
            "mac.is_awake.calls": c["mac.is_awake"],
            "mac.is_awake.s": s["mac.is_awake"],
            "mac.is_awake.true_ratio": _ratio(self.true["mac.is_awake"], c["mac.is_awake"]),
            "mac.awake_time.calls": c["mac.awake_time"],
            "mac.awake_time.s": s["mac.awake_time"],
            "mac.build_schedules.s": s["mac.build_schedules"],
            "mac.two_hop_sets.s": s["mac.two_hop_sets"],
            "mac.next_wake.calls": c["mac.next_wake"],
            "mac.reserve.calls": c["mac.reserve"],
            "mac.reserve.accepted_ratio": _ratio(self.true["mac.reserve"], c["mac.reserve"]),
            "mac.step.calls": c["mac.step"],
            "mac.compose_superframe.calls": c["mac.compose_superframe"],
            "mac.on_superframe.calls": c["mac.on_superframe"],
            "energy.tx_energy.calls": c["energy.tx_energy"],
            "energy.rx_energy.calls": c["energy.rx_energy"],
            "energy.drain.calls": c["energy.drain"],
            "energy.s": s["energy.tx_energy"] + s["energy.rx_energy"] + s["energy.drain"],
            "selection.handle_ct_request.calls": c["selection.handle_ct_request"],
            "selection.handle_ct_request.s": s["selection.handle_ct_request"],
            "selection.update_energy.calls": c["selection.update_energy"],
            "selection.elected_ratio": _ratio(self.true["selection.handle_ct_request"],
                                              c["selection.handle_ct_request"]),
            "trace.dumps.calls": c["trace.dumps"],
            "trace.dumps.s": s["trace.dumps"],
            "trace.render_s": s["trace.render_trace"],
            "config.parse_s": s["config.parse_config"],
        }
        for kind in kinds:
            values[f"engine.events.{kind}"] = self.events[kind]
            values[f"engine.handler_s.{kind}"] = self.handler_s[kind]
        return values
