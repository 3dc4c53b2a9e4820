"""Executable deployments: spec in, simulated ICN-over-SDN network out.

Builds the reactive objects (TM, controller, switches, hosts), cables them
per the topology spec, and orchestrates bootstrap in spec order.  All
randomness is derived from the spec seed through named substreams, so a
(spec, seed) pair fully determines every event and measurement.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass, replace
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from . import wire
from .bootstrap import (Arm, Broadcast, NodeBootstrapFsm, NodeConfig, Notify, Reply,
                        BootstrapState, Send, Timers, TmEngine, apply_update,
                        responder_on_discovery, NotBootstrapped)
from .fabric import (Controller, FlowTable, IcnPacket, LinkDown, LinkUp, MISS, PacketIn,
                     SwitchAttached, encode_packet, switch_forward)
from .fid import BitVector, Fid, FidParams, fid_matches, fid_or
from .simnet import Control, Deliver, SimReport, Simulator, Timer, ms
from .topology import TM_NID, DirectedLink, RuleInstallFrame, TopologyError, TopologyGraph
from .topospec import TopologySpec
from .wire import CodecError, DiscoveryRequest, ResourceRequest, Update

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FabricDelivery:
    packet: IcnPacket
    in_port: int


@dataclass(frozen=True)
class CtlDelivery:
    data: bytes


@dataclass(frozen=True)
class PacketOutCmd:
    port: int
    packet: IcnPacket


class SwitchNode:
    """Forwarding-only SDN switch with an arbitrary-bitmask flow table."""

    def __init__(self, name: str, net: "Deployment"):
        self.name = name
        self.net = net
        self.ports: Dict[int, str] = {}
        self.table = FlowTable()
        self.drops = 0

    def handle(self, event) -> None:
        kind = event.kind
        if isinstance(kind, Deliver) and isinstance(kind.payload, FabricDelivery):
            self._forward(kind.payload.packet, kind.payload.in_port)
        elif isinstance(kind, Control) and isinstance(kind.event, PacketOutCmd):
            self.net.emit(self.name, kind.event.port, kind.event.packet)
        else:  # pragma: no cover
            log.warning("%s: unhandled event %r", self.name, kind)

    def _forward(self, packet: IcnPacket, in_port: int) -> None:
        result = switch_forward(self.table, packet)
        if result is MISS:
            if packet.fid.is_zero():
                # Unknown ICN traffic on the bootstrap channel goes upstairs.
                self.net.packet_in(self.name, in_port, packet)
            else:
                self.drops += 1
            return
        if packet.hop_limit is not None and packet.hop_limit <= 0:
            self.drops += 1
            return
        onward = packet.spend_hop()
        for port in result:
            self.net.emit(self.name, port, onward)


class HostNode:
    """ICN end host: runs the bootstrap FSM, then consumes and forwards.

    Its link table (``config.link_lids``, neighbour NID -> LID) is written
    only by the TM's Updates; ``nid_port`` (neighbour NID -> port) only by
    the deployment when either end of a link finishes bootstrap.  One rule,
    :meth:`send`, emits what the host originates and what it forwards.
    """

    def __init__(self, name: str, net: "Deployment", rng: Random, timers: Timers):
        self.name = name
        self.net = net
        self.ports: Dict[int, str] = {}
        self.fsm = NodeBootstrapFsm(name, rng, timers)
        self.nid_port: Dict[int, int] = {}
        self._settled = False

    @property
    def config(self):
        return self.fsm.config

    def start(self) -> None:
        self._execute(self.fsm.start())

    def handle(self, event) -> None:
        kind = event.kind
        if isinstance(kind, Deliver) and isinstance(kind.payload, FabricDelivery):
            self._on_packet(kind.payload.packet, kind.payload.in_port)
        elif isinstance(kind, Timer):
            self._execute(self.fsm.on_timeout(kind.timer_id, kind.token))
        else:  # pragma: no cover
            log.warning("%s: unhandled event %r", self.name, kind)
        self._check_settled()

    def _on_packet(self, packet: IcnPacket, in_port: int) -> None:
        if packet.fid.is_zero():
            self._on_link_local(packet, in_port)
            return
        if self.fsm.state != BootstrapState.DONE:
            # Pre-configuration the node owns no identifiers; everything that
            # arrives is treated as addressed to it.
            try:
                msg = wire.decode(packet.payload, self.net.params)
            except CodecError:
                return
            self._execute(self.fsm.on_message(msg, in_port))
            return
        if self.config.ilid is not None and fid_matches(packet.fid, self.config.ilid):
            self._consume(packet, in_port)
        if packet.hop_limit is None or packet.hop_limit > 0:
            self.send(packet.spend_hop(), in_port)

    def send(self, packet: IcnPacket, in_port: Optional[int] = None) -> None:
        """Emit on every link whose LID the FID holds (``in_port``: arrival port)."""
        ports = set()
        for nid, lid in self.config.link_lids.items():
            if not fid_matches(packet.fid, lid):
                continue
            port = self.nid_port.get(nid)
            if port is not None:
                ports.add(port)
            else:
                # Neighbor not yet bound to a port: flood, Bloom style.
                ports.update(p for p in self.ports if p != in_port)
        for port in sorted(ports):
            self.net.emit(self.name, port, packet)

    def _on_link_local(self, packet: IcnPacket, in_port: int) -> None:
        try:
            msg = wire.decode(packet.payload, self.net.params)
        except CodecError:
            return
        if isinstance(msg, DiscoveryRequest) and self.fsm.state == BootstrapState.DONE:
            try:
                offer = responder_on_discovery(msg, self.config)
            except NotBootstrapped:
                return
            self.net.emit(self.name, in_port, self.net.link_local_packet(offer))
        elif self.fsm.state != BootstrapState.DONE:
            self._execute(self.fsm.on_message(msg, in_port))

    def _consume(self, packet: IcnPacket, in_port: int) -> None:
        msg = self.net.consume(self.name, packet)
        if isinstance(msg, Update):
            apply_update(self.config, msg, self.fsm.attach_nid)
        elif msg is not None:
            self._execute(self.fsm.on_message(msg, in_port))

    def _execute(self, actions) -> None:
        for action in actions:
            if isinstance(action, Broadcast):
                frame = self.net.link_local_packet(action.message)
                for port in sorted(self.ports):
                    self.net.emit(self.name, port, frame)
            elif isinstance(action, Send):
                packet = IcnPacket(action.fid, self.net.hop_limit,
                                   wire.encode(action.message, self.net.params),
                                   trace_id=self.net.next_trace())
                self.net.emit(self.name, action.port, packet)
            elif isinstance(action, Arm):
                self.net.sim.schedule_in(action.delay_us, f"node:{self.name}",
                                         Timer(action.timer_id, action.token))

    def _check_settled(self) -> None:
        if self._settled:
            return
        if self.fsm.state == BootstrapState.DONE:
            self._settled = True
            self.net.node_done(self.name)
        elif self.fsm.state == BootstrapState.FAILED:
            self._settled = True
            self.net.node_failed(self.name, "bootstrap retries exhausted")


class TmNode:
    """The Topology Manager as a network endpoint plus serial message server."""

    def __init__(self, name: str, net: "Deployment", graph: TopologyGraph):
        self.name = name
        self.net = net
        self.graph = graph
        self.engine = TmEngine(graph)
        self.ports: Dict[int, str] = {}
        self.nid_port: Dict[int, int] = {}
        self.config = None  # set after construction, needs zero tmfid
        self.service_us = 0
        self.alloc_us = 0
        self.wall_alloc_s = 0.0
        self._queue: deque = deque()
        self._busy = False
        self._pending_actions: List = []
        self._pending_origin = "ctl"

    def handle(self, event) -> None:
        kind = event.kind
        if isinstance(kind, Deliver):
            if isinstance(kind.payload, FabricDelivery):
                self._on_packet(kind.payload.packet, kind.payload.in_port)
            elif isinstance(kind.payload, CtlDelivery):
                self._on_ctl(kind.payload.data)
        elif isinstance(kind, Timer) and kind.timer_id == "svc":
            self._service_done()
        else:  # pragma: no cover
            log.warning("tm: unhandled event %r", kind)

    # -- packet plane ---------------------------------------------------------

    def _on_packet(self, packet: IcnPacket, in_port: int) -> None:
        if packet.fid.is_zero():
            self._on_link_local(packet, in_port)
            return
        if packet.hop_limit is None or packet.hop_limit > 0:
            self.send(packet.spend_hop())
        # TM-bound FIDs carry no iLID for the TM, so arrival means delivery.
        msg = self.net.consume(self.name, packet)
        if msg is not None:
            self._enqueue(msg, "fabric", in_port)

    def send(self, packet: IcnPacket) -> None:
        """Emit on every bound out-link whose LID the FID holds."""
        for link in self.graph.out_links(TM_NID):
            if fid_matches(packet.fid, link.lid):
                port = self.nid_port.get(link.dst)
                if port is not None:
                    self.net.emit(self.name, port, packet)

    def _on_link_local(self, packet: IcnPacket, in_port: int) -> None:
        try:
            msg = wire.decode(packet.payload, self.net.params)
        except CodecError:
            return
        if isinstance(msg, DiscoveryRequest):
            offer = responder_on_discovery(msg, self.config)
            self.net.emit(self.name, in_port, self.net.link_local_packet(offer))
        else:
            # Directly attached nodes address the TM with its own (all-zero)
            # TMFID, so handshake messages arrive on the default-FID channel.
            self._enqueue(msg, "fabric", in_port)

    def _on_ctl(self, data: bytes) -> None:
        try:
            msg = wire.decode(data, self.net.params)
        except CodecError as exc:
            log.warning("tm: bad control frame: %s", exc)
            return
        self._enqueue(msg, "ctl", None)

    # -- serial processing ------------------------------------------------------

    def _enqueue(self, msg, origin: str, in_port: Optional[int]) -> None:
        self._queue.append((msg, origin, in_port))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        msg, origin, in_port = self._queue.popleft()
        self._busy = True
        t0 = time.perf_counter()
        if isinstance(msg, wire.LinkEvent):
            try:
                result = self.engine.on_link_event(msg)
            except Exception as exc:
                log.warning("tm: link event failed: %s", exc)
                result = None
        elif isinstance(msg, wire.LinkStatsReport):
            try:
                result = self.engine.on_link_stats(msg)
            except Exception as exc:
                log.warning("tm: stats report rejected: %s", exc)
                result = None
        else:
            result = self.engine.on_message(msg)
        self.wall_alloc_s += time.perf_counter() - t0
        lids = result.lids_allocated if result else 0
        if (origin == "fabric" and in_port is not None
                and isinstance(msg, ResourceRequest) and msg.attach_nid == TM_NID):
            nid = self.engine.nid_for_nonce(msg.nonce)
            if nid is not None:
                self.nid_port[nid] = in_port
        self._pending_actions = result.actions if result else []
        self._pending_origin = origin
        cost = self.service_us + lids * self.alloc_us
        self.net.sim.schedule_in(cost, f"node:{self.name}", Timer("svc"))

    def _service_done(self) -> None:
        origin = self._pending_origin
        for action in self._pending_actions:
            if isinstance(action, Reply):
                if origin == "ctl":
                    self.net.ctl_to_controller(action.message)
                else:
                    self._route_to_node(action.message.nid, action.message)
            elif isinstance(action, RuleInstallFrame):
                self.net.ctl_to_controller(action)
            elif isinstance(action, Notify):
                self._route_to_node(action.nid, action.message)
        self._pending_actions = []
        self._busy = False
        if self._queue:
            self._start_next()

    def _route_to_node(self, nid: int, message) -> None:
        """Source-route a message to a node over the downstream FID of
        :meth:`TopologyGraph.path_from_tm`, the node's in-tree path reversed."""
        try:
            path = self.graph.path_from_tm(nid)
        except TopologyError as exc:
            log.warning("tm: cannot route to %d: %s", nid, exc)
            return
        if not path:
            return
        self.send(IcnPacket(self.net.path_fid(path, nid), self.net.hop_limit,
                            wire.encode(message, self.net.params),
                            trace_id=self.net.next_trace()))


class Deployment:
    """A fully wired simulated deployment driven by a topology spec."""

    def __init__(self, spec: TopologySpec, seed: Optional[int] = None,
                 mode: str = "sequential"):
        spec.validate()
        self.spec = spec
        self.seed = spec.seed if seed is None else seed
        self.mode = mode
        self.params = FidParams(m=spec.m, k=spec.k)
        d = spec.defaults
        self.timers = Timers(ms(d.discovery_wait_ms), ms(d.request_timeout_ms), d.max_retries)
        self.hop_limit = d.hop_limit
        self.ctl_delay_us = ms(d.control_delay_ms)
        self.sim = Simulator()
        self.controller_rng = Random(f"{self.seed}:controller")
        self.tm_name = spec.tm_name()

        graph_rng = Random(f"{self.seed}:lids")
        self.graph = TopologyGraph(self.params, graph_rng)
        self.tm = TmNode(self.tm_name, self, self.graph)
        self.tm.service_us = ms(d.tm_service_ms)
        self.tm.alloc_us = ms(d.tm_alloc_per_lid_ms)
        self.tm.config = NodeConfig(nid=TM_NID, ilid=self.graph.nodes[TM_NID].ilid,
                                    tmfid=BitVector.zero(self.params.m))

        self.switches: Dict[str, SwitchNode] = {}
        self.hosts: Dict[str, HostNode] = {}
        for node in spec.nodes:
            if node.kind == "switch":
                self.switches[node.name] = SwitchNode(node.name, self)
            elif node.kind == "host":
                rng = Random(f"{self.seed}:nonce:{node.name}")
                self.hosts[node.name] = HostNode(node.name, self, rng, self.timers)

        # Cable everything: port indices follow spec link order per node.
        self._wiring: Dict[Tuple[str, int], Tuple[str, int]] = {}
        self._pair_delay_us: Dict[frozenset, int] = {}
        for link in spec.links:
            pa = self._next_port(link.a)
            pb = self._next_port(link.b)
            self._node(link.a).ports[pa] = link.b
            self._node(link.b).ports[pb] = link.a
            self._wiring[(link.a, pa)] = (link.b, pb)
            self._wiring[(link.b, pb)] = (link.a, pa)
            self._pair_delay_us[frozenset((link.a, link.b))] = ms(link.delay_ms)

        self.controller = Controller(self)
        self.down_pairs: set = set()
        self.drop_filter = None
        self.traces: Dict[int, List[Tuple[str, str]]] = {}
        self.consumed: Dict[int, List[str]] = {}
        self._trace_counter = 0
        self._order = [n.name for n in spec.nodes if n.kind != "tm"]
        self._order_idx = 0
        self.failures: Dict[str, str] = {}
        self._reported_pairs: set = set()

        self.sim.register(f"node:{self.tm_name}", self.tm.handle)
        for name, sw in self.switches.items():
            self.sim.register(f"node:{name}", sw.handle)
        for name, host in self.hosts.items():
            self.sim.register(f"node:{name}", host.handle)
        self.sim.register("ctl", self._controller_handle)
        self.sim.register("orch", self._orch_handle)

    # -- construction helpers ---------------------------------------------------

    def _node(self, name: str):
        if name == self.tm_name:
            return self.tm
        return self.switches.get(name) or self.hosts[name]

    def _next_port(self, name: str) -> int:
        return len(self._node(name).ports)

    # -- plumbing used by nodes and the controller -------------------------------

    def next_trace(self) -> int:
        self._trace_counter += 1
        return self._trace_counter

    def link_local_packet(self, message) -> IcnPacket:
        return IcnPacket(BitVector.zero(self.params.m), self.hop_limit,
                         wire.encode(message, self.params), trace_id=self.next_trace())

    def emit(self, src: str, port: int, packet: IcnPacket) -> None:
        dest = self._wiring.get((src, port))
        if dest is None:
            log.warning("%s: emission on unwired port %d", src, port)
            return
        dst, dst_port = dest
        pair = frozenset((src, dst))
        if pair in self.down_pairs:
            return
        if self.drop_filter is not None and self.drop_filter(src, dst, packet):
            return
        self.traces.setdefault(packet.trace_id, []).append((src, dst))
        self.sim.schedule_in(self._pair_delay_us[pair], f"node:{dst}",
                             Deliver(FabricDelivery(packet, dst_port)))

    def packet_in(self, switch: str, in_port: int, packet: IcnPacket) -> None:
        data = encode_packet(packet, self.params)
        self.sim.schedule_in(self.ctl_delay_us, "ctl",
                             Control(PacketIn(switch, in_port, data)))

    def packet_out(self, switch: str, port: int, packet: IcnPacket) -> None:
        packet = replace(packet, trace_id=self.next_trace())
        self.sim.schedule_in(self.ctl_delay_us, f"node:{switch}",
                             Control(PacketOutCmd(port, packet)))

    def ctl_send(self, message) -> None:
        """Controller -> TM over the ICN-SDN interface."""
        data = wire.encode(message, self.params)
        self.sim.schedule_in(self.ctl_delay_us, f"node:{self.tm_name}",
                             Deliver(CtlDelivery(data)))

    def ctl_to_controller(self, message) -> None:
        """TM -> controller over the ICN-SDN interface."""
        data = wire.encode(message, self.params)
        self.sim.schedule_in(self.ctl_delay_us, "ctl", Deliver(CtlDelivery(data)))

    def link_delay_ms(self, a: str, b: str) -> float:
        return self._pair_delay_us[frozenset((a, b))] / 1000

    def path_fid(self, path: Sequence[DirectedLink], dst_nid: int) -> Fid:
        """OR of a path's LIDs and the destination's iLID, if it has one."""
        lids = [link.lid for link in path]
        ilid = self.graph.nodes[dst_nid].ilid
        if ilid is not None:
            lids.append(ilid)
        return fid_or(lids, width=self.params.m)

    def consume(self, name: str, packet: IcnPacket) -> Optional[wire.Message]:
        """A packet delivered to node ``name``: its control frame, or None.

        A payload that does not start with the frame version byte is data,
        recorded as consumed.  A frame that fails to decode is dropped.
        """
        if not packet.payload or packet.payload[0] != wire.VERSION:
            self.consumed.setdefault(packet.trace_id, []).append(name)
            return None
        try:
            return wire.decode(packet.payload, self.params)
        except CodecError as exc:
            log.warning("%s: bad control frame dropped: %s", name, exc)
            return None

    def _controller_handle(self, event) -> None:
        kind = event.kind
        if isinstance(kind, Control):
            self.controller.on_control_event(kind.event)
        elif isinstance(kind, Deliver) and isinstance(kind.payload, CtlDelivery):
            try:
                msg = wire.decode(kind.payload.data, self.params)
            except CodecError as exc:
                log.warning("controller: bad ctl frame: %s", exc)
                return
            self.controller.on_ctl_message(msg)

    # -- orchestration ------------------------------------------------------------

    def run_bootstrap(self, limit_us: int = 0) -> SimReport:
        """Bootstrap every node in spec order; returns the finished report."""
        if limit_us <= 0:
            limit_us = 10_000_000 + 5_000_000 * len(self._order)
        self.sim.schedule_in(0, "orch", Timer("next"))
        self.sim.run_until_idle(limit_us)
        return self.report()

    def _orch_handle(self, event) -> None:
        if isinstance(event.kind, Timer) and event.kind.timer_id == "next":
            self._start_next_node()

    def _start_next_node(self) -> None:
        while self._order_idx < len(self._order):
            name = self._order[self._order_idx]
            self._order_idx += 1
            if name in self.switches:
                attach = self._find_attach_point(name)
                if attach is None:
                    self.failures[name] = "no ICN-enabled attach point"
                    continue
                self.sim.begin_span(f"bootstrap:{name}")
                self._reported_pairs.add(frozenset((name, attach)))
                self.sim.schedule_in(0, "ctl", Control(SwitchAttached(name, attach)))
                return
            host = self.hosts[name]
            self.sim.begin_span(f"bootstrap:{name}")
            if self.mode == "concurrent":
                host.start()
                continue
            host.start()
            return

    def _find_attach_point(self, switch_name: str) -> Optional[str]:
        for port in sorted(self.switches[switch_name].ports):
            neighbor = self.switches[switch_name].ports[port]
            if neighbor == self.tm_name or neighbor in self.controller.enabled:
                return neighbor
        return None

    def switch_attach_complete(self, name: str) -> None:
        """Controller callback: proxy handshake finished, rules installed."""
        self.sim.end_span(f"bootstrap:{name}")
        self._finish_ports(name)
        self.sim.schedule_in(0, "orch", Timer("next"))

    def node_done(self, name: str) -> None:
        self.sim.end_span(f"bootstrap:{name}")
        host = self.hosts[name]
        # A host attached directly to the TM is otherwise unknown to the
        # controller, which must bind switch rules towards it.
        self.controller.nid_names[host.config.nid] = name
        # Its attach rule is bound, so its discovery ports are spent.
        self.controller.pending_discovery.pop(host.fsm.nonce, None)
        self._finish_ports(name)
        if self.mode != "concurrent":
            self.sim.schedule_in(0, "orch", Timer("next"))

    def _finish_ports(self, name: str) -> None:
        """Per port of a node that just got its NID, towards each neighbour with one.

        Handshake-allocated graph links learn the physical delay (the
        protocol never carries it), each ICN end (TM or host) of the pair
        binds its port to the other's NID, and a connection no handshake
        covered is reported to the TM as a ``LinkUp``.
        """
        node = self._node(name)
        nid = self.nid_of(name)
        for port, other in node.ports.items():  # port order is spec link order
            other_nid = self.nid_of(other)
            if other_nid is None:
                continue
            if not isinstance(node, SwitchNode):
                node.nid_port[other_nid] = port
            peer = self._node(other)
            if not isinstance(peer, SwitchNode):
                peer.nid_port[nid] = self._wiring[(name, port)][1]
            pair = frozenset((name, other))
            delay_ms = self.link_delay_ms(name, other)
            for key in ((nid, other_nid), (other_nid, nid)):
                link = self.graph.links.get(key)
                if link is not None and not link.delay_ms:
                    self.graph.links[key] = replace(link, delay_ms=delay_ms)
            if pair in self._reported_pairs or pair in self.down_pairs:
                continue
            self._reported_pairs.add(pair)
            a, b = sorted(pair)
            key = (nid, other_nid) if a == name else (other_nid, nid)
            if key in self.graph.links or key in self.graph.down_links:
                continue
            self.sim.schedule_in(0, "ctl", Control(LinkUp(a, b)))

    def node_failed(self, name: str, reason: str) -> None:
        self.failures[name] = reason
        if self.mode != "concurrent":
            self.sim.schedule_in(0, "orch", Timer("next"))

    def nid_of(self, name: str) -> Optional[int]:
        if name == self.tm_name:
            return TM_NID
        if name in self.switches:
            return self.controller.enabled.get(name)
        host = self.hosts[name]
        return host.config.nid if host.fsm.state == BootstrapState.DONE else None

    # -- faults and probes ---------------------------------------------------------

    def fail_link(self, a: str, b: str) -> None:
        self.down_pairs.add(frozenset((a, b)))
        self.sim.schedule_in(0, "ctl", Control(LinkDown(a, b)))

    def restore_link(self, a: str, b: str) -> None:
        self.down_pairs.discard(frozenset((a, b)))
        self.sim.schedule_in(0, "ctl", Control(LinkUp(a, b)))

    def inject_probe(self, host_name: str) -> int:
        """Send a packet stamped with the host's own TMFID towards the TM."""
        host = self.hosts[host_name]
        packet = IcnPacket(host.config.tmfid, self.hop_limit, b"PROBE",
                           trace_id=self.next_trace())
        host.send(packet)
        return packet.trace_id

    def inject_data(self, src: str, dst: str) -> int:
        """Unicast data packet between committed nodes, FID from the TM graph."""
        src_nid, dst_nid = self.nid_of(src), self.nid_of(dst)
        path = self.graph.shortest_path(src_nid, dst_nid)
        packet = IcnPacket(self.path_fid(path, dst_nid), self.hop_limit, b"DATA",
                           trace_id=self.next_trace())
        self._node(src).send(packet)
        return packet.trace_id

    def run_until_idle(self, limit_us: int = 10 ** 12) -> int:
        return self.sim.run_until_idle(limit_us)

    # -- reporting -------------------------------------------------------------------

    def report(self) -> SimReport:
        states: Dict[str, str] = {self.tm_name: "TM"}
        for name, sw in self.switches.items():
            states[name] = "ENABLED" if name in self.controller.enabled else "PENDING"
        for name, host in self.hosts.items():
            states[name] = host.fsm.state.name
        return self.sim.report(states)

    def all_done(self) -> bool:
        return (all(n in self.controller.enabled for n in self.switches)
                and all(h.fsm.state == BootstrapState.DONE for h in self.hosts.values()))
