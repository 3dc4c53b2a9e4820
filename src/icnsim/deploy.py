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
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from . import wire
from .bootstrap import (Arm, Broadcast, NodeBootstrapFsm, NodeConfig,
                        BootstrapState, Send, Timers, TmEngine, apply_update,
                        responder_on_discovery, NotBootstrapped)
from .fabric import (Controller, FlowTable, IcnPacket, LinkDown, LinkUp, MISS, PacketIn,
                     SwitchAttached, encode_packet, switch_forward)
from .fid import BitVector, FidError, FidParams, fid_matches
from .simnet import SimReport, Simulator, Timer, ms
from .topology import TM_NID, NodeKind, RuleInstallFrame, TopologyError, TopologyGraph
from .topospec import TopologySpec
from .wire import CodecError, DiscoveryRequest, ResourceRequest, Update

log = logging.getLogger(__name__)


class EndpointError(ValueError):
    """A traffic injector was given a node that cannot send or consume traffic."""


class CableError(ValueError):
    """A link fault was asked for on a pair of nodes that no cable joins."""


class FabricDelivery(NamedTuple):
    packet: IcnPacket
    in_port: int


class PortLink(NamedTuple):
    """Where a wired port leads, with all that a hop over it needs."""

    dst: str
    dst_port: int
    pair: FrozenSet[str]   # both ends, the key of ``down_pairs``
    delay_us: int
    target: str            # the simulator target of ``dst``


@dataclass(frozen=True)
class CtlDelivery:
    data: bytes


@dataclass(frozen=True)
class PacketOutCmd:
    port: int
    packet: IcnPacket


@dataclass(frozen=True)
class ServiceDone:
    """The TM has served one message: the actions to send."""

    actions: List


class SwitchNode:
    """Forwarding-only SDN switch with an arbitrary-bitmask flow table."""

    def __init__(self, name: str, net: "Deployment"):
        self.name = name
        self.net = net
        self.ports: Dict[int, PortLink] = {}
        self.table = FlowTable()
        self.drops = 0

    def handle(self, event) -> None:
        if isinstance(event, FabricDelivery):
            self._forward(event.packet, event.in_port)
        else:  # PacketOutCmd
            self.net.emit(self, event.port, event.packet)

    def _forward(self, packet: IcnPacket, in_port: int) -> None:
        result = switch_forward(self.table, packet)
        if result is MISS:
            if packet.fid.is_zero():
                # Unknown ICN traffic on the bootstrap channel goes upstairs.
                self.net.packet_in(self.name, in_port, packet)
            else:
                self.drops += 1
            return
        if packet.hop_limit <= 0:
            self.drops += 1
            return
        onward = packet.spend_hop()
        for port in result:
            if port != in_port:  # split horizon: never back over the arrival link
                self.net.emit(self, port, onward)


class HostNode:
    """ICN end host: runs the bootstrap FSM, then consumes and forwards.

    ``ports`` holds its cables.  Its link table (``config.link_lids``,
    neighbour NID -> LID) is written only by the TM's Updates; ``nid_port``
    (neighbour NID -> port) only by :meth:`Deployment._finish_ports`, from
    those cables, when either end of a link finishes bootstrap.  One rule,
    :meth:`send`, emits what the host originates and what it forwards.
    """

    def __init__(self, name: str, net: "Deployment", rng: Random, timers: Timers):
        self.name = name
        self.net = net
        self.ports: Dict[int, PortLink] = {}
        self.fsm = NodeBootstrapFsm(name, rng, timers)
        self.nid_port: Dict[int, int] = {}
        self._settled = False

    @property
    def config(self):
        return self.fsm.config

    def start(self) -> None:
        self._execute(self.fsm.start())

    def handle(self, event) -> None:
        if isinstance(event, FabricDelivery):
            self._on_packet(event.packet, event.in_port)
        else:  # Timer
            self._execute(self.fsm.on_timeout(event.timer_id, event.token))
        self._check_settled()

    def _on_packet(self, packet: IcnPacket, in_port: int) -> None:
        if packet.fid.is_zero():
            self._on_link_local(packet, in_port)
            return
        if self.fsm.state != BootstrapState.DONE:
            # Pre-configuration the node owns no identifiers; everything that
            # arrives is treated as addressed to it.
            msg = self.net.decode(self.name, packet.payload)
            if msg is not None:
                self._execute(self.fsm.on_message(msg, in_port))
            return
        if self.config.ilid is not None and fid_matches(packet.fid, self.config.ilid):
            self._consume(packet, in_port)
        if packet.hop_limit > 0:
            self.send(packet.spend_hop(), in_port)

    def send(self, packet: IcnPacket, in_port: Optional[int] = None) -> None:
        """Emit on every link whose LID the FID holds, except the arrival port ``in_port``."""
        ports = set()
        for nid, lid in self.config.link_lids.items():
            if not fid_matches(packet.fid, lid):
                continue
            port = self.nid_port.get(nid)
            if port is not None:
                ports.add(port)
            else:
                # Neighbor not yet bound to a port: flood, Bloom style.
                ports.update(self.ports)
        ports.discard(in_port)
        for port in sorted(ports):
            self.net.emit(self, port, packet)

    def _on_link_local(self, packet: IcnPacket, in_port: int) -> None:
        msg = self.net.decode(self.name, packet.payload)
        if msg is None:
            return
        if isinstance(msg, DiscoveryRequest) and self.fsm.state == BootstrapState.DONE:
            try:
                offer = responder_on_discovery(msg, self.config)
            except NotBootstrapped:
                return
            self.net.emit(self, in_port, self.net.link_local_packet(offer))
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
                    self.net.emit(self, port, frame)
            elif isinstance(action, Send):
                packet = IcnPacket(action.fid, self.net.hop_limit,
                                   wire.encode(action.message, self.net.params),
                                   trace_id=self.net.next_trace())
                self.net.emit(self, action.port, packet)
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
        self.ports: Dict[int, PortLink] = {}
        self.nid_port: Dict[int, int] = {}
        self.config = NodeConfig(nid=TM_NID, ilid=graph.nodes[TM_NID].ilid,
                                 tmfid=BitVector.zero(graph.params.m))
        self.service_us = 0
        self.alloc_us = 0
        self.wall_alloc_s = 0.0
        self._queue: deque = deque()
        self._busy = False

    def handle(self, event) -> None:
        if isinstance(event, FabricDelivery):
            self._on_packet(event.packet, event.in_port)
        elif isinstance(event, CtlDelivery):
            msg = self.net.decode(self.name, event.data)
            if msg is not None:
                self._enqueue(msg, None)
        else:  # ServiceDone
            self._service_done(event)

    # -- packet plane ---------------------------------------------------------

    def _on_packet(self, packet: IcnPacket, in_port: int) -> None:
        if packet.fid.is_zero():
            self._on_link_local(packet, in_port)
            return
        if packet.hop_limit > 0:
            self.send(packet.spend_hop(), in_port)
        # TM-bound FIDs carry no iLID for the TM, so arrival means delivery.
        msg = self.net.consume(self.name, packet)
        if msg is not None:
            self._enqueue(msg, in_port)

    def send(self, packet: IcnPacket, in_port: Optional[int] = None) -> None:
        """Emit on every bound out-link whose LID the FID holds, except arrival port ``in_port``."""
        for link in self.graph.out_links(TM_NID):
            if fid_matches(packet.fid, link.lid):
                port = self.nid_port.get(link.dst)
                if port is not None and port != in_port:
                    self.net.emit(self, port, packet)

    def _on_link_local(self, packet: IcnPacket, in_port: int) -> None:
        msg = self.net.decode(self.name, packet.payload)
        if msg is None:
            return
        if isinstance(msg, DiscoveryRequest):
            offer = responder_on_discovery(msg, self.config)
            self.net.emit(self, in_port, self.net.link_local_packet(offer))
        else:
            # Directly attached nodes address the TM with its own (all-zero)
            # TMFID, so handshake messages arrive on the default-FID channel.
            self._enqueue(msg, in_port)

    # -- serial processing ------------------------------------------------------

    def _enqueue(self, msg, in_port: Optional[int]) -> None:
        """Queue a message; ``in_port`` is its fabric arrival port, None from the controller."""
        self._queue.append((msg, in_port))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        msg, in_port = self._queue.popleft()
        self._busy = True
        t0 = time.perf_counter()
        if isinstance(msg, wire.LinkEvent):
            try:
                result = self.engine.on_link_event(msg)
            except (TopologyError, FidError) as exc:  # FidError: no LID left for an ADD
                log.warning("tm: link event failed: %s", exc)
                result = None
        elif isinstance(msg, wire.LinkStatsReport):
            try:
                result = self.engine.on_link_stats(msg)
            except TopologyError as exc:
                log.warning("tm: stats report rejected: %s", exc)
                result = None
        else:
            result = self.engine.on_message(msg)
        self.wall_alloc_s += time.perf_counter() - t0
        lids = result.lids_allocated if result else 0
        if in_port is not None and isinstance(msg, ResourceRequest) and msg.attach_nid == TM_NID:
            nid = self.engine.nid_for_nonce(msg.nonce)
            if nid is not None:
                self.nid_port[nid] = in_port
        cost = self.service_us + lids * self.alloc_us
        self.net.sim.schedule_in(cost, f"node:{self.name}",
                                 ServiceDone(result.actions if result else []))

    def _service_done(self, done: ServiceDone) -> None:
        for action in done.actions:
            if isinstance(action, RuleInstallFrame):
                self.net.ctl_to_controller(action)
            elif self.graph.nodes[action.nid].kind == NodeKind.SDN_SWITCH:  # a Notify
                self.net.ctl_to_controller(action.message)
            else:
                self._route_to_node(action.nid, action.message)
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
        self.send(IcnPacket(self.graph.path_fid(path, nid), self.net.hop_limit,
                            wire.encode(message, self.net.params),
                            trace_id=self.net.next_trace()))


class Deployment:
    """A fully wired simulated deployment driven by a topology spec."""

    def __init__(self, spec: TopologySpec, seed: Optional[int] = None):
        spec.validate()
        self.spec = spec
        self.seed = spec.seed if seed is None else seed
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

        self.switches: Dict[str, SwitchNode] = {}
        self.hosts: Dict[str, HostNode] = {}
        for node in spec.nodes:
            if node.kind == "switch":
                self.switches[node.name] = SwitchNode(node.name, self)
            elif node.kind == "host":
                rng = Random(f"{self.seed}:nonce:{node.name}")
                self.hosts[node.name] = HostNode(node.name, self, rng, self.timers)

        # Cable everything: port indices follow spec link order per node.
        for link in spec.links:
            a, b = self._node(link.a), self._node(link.b)
            pa, pb = len(a.ports), len(b.ports)
            pair = frozenset((link.a, link.b))
            delay_us = ms(link.delay_ms)
            a.ports[pa] = PortLink(link.b, pb, pair, delay_us, f"node:{link.b}")
            b.ports[pb] = PortLink(link.a, pa, pair, delay_us, f"node:{link.a}")

        self.controller = Controller(self)
        self.down_pairs: set = set()
        self.drop_filter = None
        self.traces: Dict[int, List[Tuple[str, str]]] = {}
        self.consumed: Dict[int, List[str]] = {}
        self._trace_counter = 0
        self._order = [n.name for n in spec.nodes if n.kind != "tm"]
        self._order_idx = 0
        self.failures: Dict[str, str] = {}

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

    # -- plumbing used by nodes and the controller -------------------------------

    def next_trace(self) -> int:
        self._trace_counter += 1
        return self._trace_counter

    def link_local_packet(self, message) -> IcnPacket:
        return IcnPacket(BitVector.zero(self.params.m), self.hop_limit,
                         wire.encode(message, self.params), trace_id=self.next_trace())

    def emit(self, node, port: int, packet: IcnPacket) -> None:
        """Send ``packet`` from ``node`` over the cable on its ``port``."""
        link = node.ports.get(port)
        if link is None:
            log.warning("%s: emission on unwired port %d", node.name, port)
            return
        dst, dst_port, pair, delay_us, target = link
        if pair in self.down_pairs:
            return
        src = node.name
        if self.drop_filter is not None and self.drop_filter(src, dst, packet):
            return
        self.traces.setdefault(packet.trace_id, []).append((src, dst))
        self.sim.schedule_in(delay_us, target, FabricDelivery(packet, dst_port))

    def packet_in(self, switch: str, in_port: int, packet: IcnPacket) -> None:
        data = encode_packet(packet, self.params)
        self.sim.schedule_in(self.ctl_delay_us, "ctl", PacketIn(switch, in_port, data))

    def packet_out(self, switch: str, port: int, packet: IcnPacket) -> None:
        self.sim.schedule_in(self.ctl_delay_us, f"node:{switch}", PacketOutCmd(port, packet))

    def ctl_send(self, message) -> None:
        """Controller -> TM over the ICN-SDN interface."""
        data = wire.encode(message, self.params)
        self.sim.schedule_in(self.ctl_delay_us, f"node:{self.tm_name}", CtlDelivery(data))

    def ctl_to_controller(self, message) -> None:
        """TM -> controller over the ICN-SDN interface."""
        data = wire.encode(message, self.params)
        self.sim.schedule_in(self.ctl_delay_us, "ctl", CtlDelivery(data))

    def link_delay_ms(self, a: str, b: str) -> float:
        return self._cable(a, b).delay_us / 1000

    def consume(self, name: str, packet: IcnPacket) -> Optional[wire.Message]:
        """A packet delivered to node ``name``: its control frame, or None.

        A payload that does not start with the frame version byte is data,
        recorded as consumed.  A frame that fails to decode is dropped.
        """
        if not packet.payload or packet.payload[0] != wire.VERSION:
            self.consumed.setdefault(packet.trace_id, []).append(name)
            return None
        return self.decode(name, packet.payload)

    def decode(self, name: str, data: bytes) -> Optional[wire.Message]:
        """The control frame that node ``name`` received, or None, logged, if it is malformed."""
        try:
            return wire.decode(data, self.params)
        except CodecError as exc:
            log.info("%s: undecodable control frame dropped: %s", name, exc)
            return None

    def _controller_handle(self, event) -> None:
        if isinstance(event, CtlDelivery):
            msg = self.decode("controller", event.data)
            if msg is not None:
                self.controller.on_ctl_message(msg)
        else:  # PacketIn, SwitchAttached, LinkUp or LinkDown
            self.controller.on_control_event(event)

    # -- orchestration ------------------------------------------------------------

    def run_bootstrap(self) -> SimReport:
        """Bootstrap every node in spec order; returns the finished report."""
        self.sim.schedule_in(0, "orch", Timer("next"))
        self.sim.run_until_idle(10_000_000 + 5_000_000 * len(self._order))
        return self.report()

    def _orch_handle(self, event: Timer) -> None:
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
                self.sim.schedule_in(0, "ctl", SwitchAttached(name, attach))
                return
            self.sim.begin_span(f"bootstrap:{name}")
            self.hosts[name].start()
            return

    def _find_attach_point(self, switch_name: str) -> Optional[str]:
        return next((link.dst for link in self.switches[switch_name].ports.values()
                     if link.dst == self.tm_name or link.dst in self.controller.enabled), None)

    def switch_attach_complete(self, name: str) -> None:
        """Controller callback: proxy handshake finished, rules installed."""
        self.sim.end_span(f"bootstrap:{name}")
        self._finish_ports(name)
        self.sim.schedule_in(0, "orch", Timer("next"))

    def node_done(self, name: str) -> None:
        self.sim.end_span(f"bootstrap:{name}")
        # A host that attached through the TM or another host got no attach
        # rule, so its discovery entry is dropped here.
        self.controller.pending_discovery.pop(self.hosts[name].fsm.nonce, None)
        self._finish_ports(name)
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
        for port, cable in node.ports.items():  # port order is spec link order
            other = cable.dst
            other_nid = self.nid_of(other)
            if other_nid is None:
                continue
            if not isinstance(node, SwitchNode):
                node.nid_port[other_nid] = port
            peer = self._node(other)
            if not isinstance(peer, SwitchNode):
                peer.nid_port[nid] = cable.dst_port
            delay_ms = cable.delay_us / 1000
            for key in ((nid, other_nid), (other_nid, nid)):
                link = self.graph.links.get(key)
                if link is not None and not link.delay_ms:
                    self.graph.links[key] = replace(link, delay_ms=delay_ms)
            if cable.pair in self.down_pairs:
                continue
            a, b = sorted((name, other))
            key = (nid, other_nid) if a == name else (other_nid, nid)
            if key in self.graph.links or key in self.graph.down_links:
                continue
            self.sim.schedule_in(0, "ctl", LinkUp(a, b))

    def node_failed(self, name: str, reason: str) -> None:
        self.failures[name] = reason
        # A FAILED host never attaches, so its discovery ports are spent too.
        self.controller.pending_discovery.pop(self.hosts[name].fsm.nonce, None)
        self.sim.schedule_in(0, "orch", Timer("next"))

    def nid_of(self, name: str) -> Optional[int]:
        if name == self.tm_name:
            return TM_NID
        if name in self.switches:
            return self.controller.enabled.get(name)
        host = self.hosts[name]
        return host.config.nid if host.fsm.state == BootstrapState.DONE else None

    # -- faults and probes ---------------------------------------------------------

    def _cable(self, a: str, b: str) -> PortLink:
        """``a``'s end of the cable to ``b``; CableError if there is none."""
        unknown = [name for name in (a, b) if name != self.tm_name
                   and name not in self.switches and name not in self.hosts]
        if unknown:
            raise CableError(f"link {a!r}-{b!r}: unknown node {unknown[0]!r}")
        for link in self._node(a).ports.values():
            if link.dst == b:
                return link
        raise CableError(f"link {a!r}-{b!r}: no cable joins the two nodes")

    def fail_link(self, a: str, b: str) -> None:
        self.down_pairs.add(self._cable(a, b).pair)
        self.sim.schedule_in(0, "ctl", LinkDown(a, b))

    def restore_link(self, a: str, b: str) -> None:
        self.down_pairs.discard(self._cable(a, b).pair)
        self.sim.schedule_in(0, "ctl", LinkUp(a, b))

    def _endpoint(self, name: str):
        """The TM or a DONE host: the nodes that originate and consume traffic."""
        if name == self.tm_name:
            return self.tm
        host = self.hosts.get(name)
        if host is None:
            what = "a switch" if name in self.switches else "not a node"
            raise EndpointError(f"{name!r} is {what}; traffic runs between the TM and DONE hosts")
        if host.fsm.state != BootstrapState.DONE:
            raise EndpointError(f"host {name!r} is {host.fsm.state.name}, not DONE")
        return host

    def inject_probe(self, host_name: str) -> int:
        """Send a packet stamped with a DONE host's own TMFID towards the TM."""
        host = self._endpoint(host_name)
        if host is self.tm:
            raise EndpointError(f"{host_name!r} is the TM; a probe goes from a host to it")
        packet = IcnPacket(host.config.tmfid, self.hop_limit, b"PROBE",
                           trace_id=self.next_trace())
        host.send(packet)
        return packet.trace_id

    def inject_data(self, src: str, dst: str) -> int:
        """Unicast data packet between two endpoints, FID from the TM graph."""
        source, dest = self._endpoint(src), self._endpoint(dst)
        if source is dest:
            raise EndpointError(f"{src!r} is both source and destination")
        dst_nid = dest.config.nid
        path = self.graph.shortest_path(source.config.nid, dst_nid)
        packet = IcnPacket(self.graph.path_fid(path, dst_nid), self.hop_limit, b"DATA",
                           trace_id=self.next_trace())
        source.send(packet)
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
