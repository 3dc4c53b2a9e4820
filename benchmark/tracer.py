"""Span tracing of icnsim from the outside, for the per-layer metrics.

:func:`install` replaces public functions and methods of the icnsim modules
with wrappers.  A *span* wrapper records name, start, end and the enclosing
span, and adds its duration to the per-name totals; a *count* wrapper only
counts calls, for functions too cheap to time.  Self time is a span's
duration minus the time its child spans cover.  Functions that another module
imported by name are replaced there too, so calls through either name are
seen.  Simulator handlers are wrapped as they are registered, which is why
tracing must be installed before a deployment is built.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from icnsim.wire import CodecError

MODULES = ("fid", "wire", "topology", "bootstrap", "fabric", "simnet", "deploy", "topospec")

# (module, attribute path) pairs wrapped with a timed span.
SPANS: Tuple[Tuple[str, str], ...] = (
    ("topospec", "generate_random"),
    ("topospec", "parse_spec"),
    ("topology", "TopologyGraph.allocate_resources"),
    ("topology", "TopologyGraph.commit_grant"),
    ("topology", "TopologyGraph.expire_grant"),
    ("topology", "TopologyGraph.shortest_path"),
    ("topology", "TopologyGraph.te_select_path"),
    ("topology", "TopologyGraph.handle_link_event"),
    ("topology", "TopologyGraph.record_stats"),
    ("topology", "TopologyGraph.dump"),
    ("bootstrap", "NodeBootstrapFsm.start"),
    ("bootstrap", "NodeBootstrapFsm.on_message"),
    ("bootstrap", "NodeBootstrapFsm.on_timeout"),
    ("bootstrap", "responder_on_discovery"),
    ("bootstrap", "apply_update"),
    ("bootstrap", "TmEngine.on_message"),
    ("bootstrap", "TmEngine.on_link_event"),
    ("bootstrap", "TmEngine.on_link_stats"),
    ("wire", "encode"),
    ("wire", "decode"),
    ("fabric", "FlowTable.add"),
    ("fabric", "FlowTable.remove"),
    ("fabric", "FlowTable.match_ports"),
    ("fabric", "switch_forward"),
    ("fabric", "encode_packet"),
    ("fabric", "decode_packet"),
    ("fabric", "Controller.on_control_event"),
    ("fabric", "Controller.on_ctl_message"),
    ("simnet", "Simulator.run_until_idle"),
    ("deploy", "Deployment.run_bootstrap"),
    ("deploy", "Deployment.inject_data"),
    ("deploy", "Deployment.inject_probe"),
    ("deploy", "Deployment.fail_link"),
    ("deploy", "Deployment.restore_link"),
    ("deploy", "Deployment.packet_in"),
    ("deploy", "Deployment.packet_out"),
    ("deploy", "Deployment.ctl_send"),
    ("deploy", "Deployment.ctl_to_controller"),
)

# Calls counted but not timed: each takes well under a microsecond.
COUNTS: Tuple[Tuple[str, str], ...] = (
    ("fid", "new_lid"),
    ("fid", "fid_matches"),
    ("fid", "fid_or"),
    ("fid", "BitVector.__or__"),
    ("simnet", "Simulator.schedule"),
    ("deploy", "Deployment.emit"),
    ("fabric", "Controller.on_packet_in"),
)

SPAN_CAP = 500_000  # spans kept for the JSON dump; totals cover every call


def _observe(tracer: "Tracer", name: str, args: tuple, result, raised: Optional[BaseException]):
    """Counts taken at a wrapped call, beyond calls and time."""
    counts = tracer.counts
    if name == "fabric.FlowTable.match_ports":
        counts["fabric.rules_scanned"] += len(args[0].rules)
    elif name == "fabric.switch_forward" and raised is None and not isinstance(result, list):
        counts["fabric.miss_calls"] += 1
    elif name == "wire.decode" and isinstance(raised, CodecError):
        counts["wire.decode_errors"] += 1
    elif name == "topology.TopologyGraph.handle_link_event" and raised is None:
        counts["topology.repairs"] += len(result.repairs)


class Tracer:
    """Spans and counts of the wrapped calls, kept in memory."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.recording = True
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._restore: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Clear totals and stop keeping spans; wrappers stay installed."""
        self.recording = False
        for table in (self.calls, self.total_s, self.self_s, self.counts):
            table.clear()

    def span(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            result = raised = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                raised = exc
                raise
            finally:
                end = clock()
                stack.pop()
                took = end - start
                self.calls[name] += 1
                self.total_s[name] += took
                self.self_s[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if self.recording:
                    if len(self.spans) < SPAN_CAP:
                        self.spans.append((sid, name, start - self.origin,
                                           end - self.origin, parent))
                    else:
                        self.dropped += 1
                _observe(self, name, args, result, raised)

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _packet_in(self, fn: Callable) -> Callable:
        # A PacketIn is useful when the controller acts on it, not audit-drops it.
        def counted(controller, event):
            before = controller.audit_drops
            fn(controller, event)
            self.counts["fabric.packet_in"] += 1
            self.counts["fabric.packet_in_useful"] += controller.audit_drops == before

        return counted

    # -- installation ---------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"icnsim.{m}") for m in MODULES}
        for kind, table in (("span", SPANS), ("count", COUNTS)):
            for mod_name, path in table:
                module = modules[mod_name]
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr]
                name = f"{mod_name}.{path}"
                if name == "fabric.Controller.on_packet_in":
                    wrapped = self._packet_in(original)
                elif kind == "span":
                    wrapped = self.span(name, original)
                else:
                    wrapped = self.count(name, original)
                self._replace(owner, attr, wrapped)
                if owner is module:  # also where other modules imported it by name
                    for other in modules.values():
                        if other is not module and other.__dict__.get(attr) is original:
                            self._replace(other, attr, wrapped)
        simulator = modules["simnet"].Simulator
        register = simulator.__dict__["register"]
        tracer = self

        def traced_register(sim, target, handler):
            func = getattr(handler, "__func__", handler)
            name = f"{func.__module__.rpartition('.')[2]}.{func.__qualname__}"
            register(sim, target, tracer.span(name, handler))

        self._replace(simulator, "register", traced_register)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": [{"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                      for sid, name, start, end, parent in self.spans],
            "spans_dropped": self.dropped,
        }
