"""Executable deployments: spec in, simulated ICN-over-SDN network out.

Builds the reactive objects (TM, controller, switches, hosts), cables them
per the topology spec, and orchestrates bootstrap in spec order, a switch
waiting until a neighbour is ICN-enabled.  All randomness is derived from
the spec seed through named substreams, so a (spec, seed) pair fully
determines every event and measurement.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from itertools import chain
from random import Random
from typing import Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from . import wire
from .bootstrap import (Arm, Broadcast, NodeBootstrapFsm, NodeConfig,
                        BootstrapState, Send, Timers, TmEngine, apply_update,
                        responder_on_discovery, NotBootstrapped)
from .fabric import (Controller, FlowTable, IcnPacket, LinkChange, PacketIn, SwitchAttached,
                     encode_packet, switch_forward)
from .fid import FidParams
from .record import record
from .simnet import SimReport, Simulator, ms
from .topology import (TM_NID, DirectedLink, LinkEventKind, NodeKind, RuleInstallFrame,
                       TopologyError, TopologyGraph)
from .topospec import TopologySpec
from .wire import CodecError, DiscoveryRequest, ResourceRequest, Update

log = logging.getLogger(__name__)

# Events a bootstrap may run per spec node and link, per hop of the hop limit:
# a copy storm that the LID density bound misses ends in LimitExceeded there.
BOOT_EVENTS = 64


class EndpointError(ValueError):
    """A traffic injector was given a node that cannot send or consume traffic."""


class CableError(ValueError):
    """A link fault was asked for on a pair of nodes that no cable joins."""


class PortLink(NamedTuple):
    """Where a wired port leads, with all that a hop over it needs.

    A copy in flight is the plain tuple ``(packet, in_port, hop_limit)``
    scheduled for ``handler``: the packet, shared by all its copies, and the
    hop budget it arrives with (the budget's only home).  Nodes tell it
    from other events by ``type(event) is tuple``."""

    dst: str
    dst_port: int
    pair: FrozenSet[str]   # both ends, the key of ``down_pairs``
    delay_us: int
    handler: Callable[[Any], None]  # ``dst``'s simulator handler


@record
class PacketOutCmd:
    port: int
    packet: IcnPacket


class SwitchNode:
    """Forwarding-only SDN switch with an arbitrary-bitmask flow table."""

    def __init__(self, name: str, net: "Deployment"):
        self.name = name
        self.net = net
        self.ports: Dict[int, PortLink] = {}
        self.table = FlowTable(net.params.m)
        self.drops = 0

    def handle(self, event) -> None:
        if type(event) is not tuple:  # PacketOutCmd
            self.net.emit(self, event.port, event.packet, self.net.hop_limit)
            return
        packet, in_port, hop_limit = event
        result = switch_forward(self.table, packet)
        if result is None:
            if not packet.fid:
                # Unknown ICN traffic on the bootstrap channel goes upstairs.
                self.net.packet_in(self.name, in_port, packet, hop_limit)
            else:
                self.drops += 1
            return
        if hop_limit <= 0:
            self.drops += 1
            return
        for port in result:
            if port != in_port:  # split horizon: never back over the arrival link
                self.net.emit(self, port, packet, hop_limit - 1)


class IcnEndpoint:
    """An ICN node on the FID-forwarding plane: the TM or a host.

    ``ports`` holds its cables; ``nid_port`` (neighbour NID -> port) is
    written only by :meth:`Deployment._finish_ports`, from those cables, when
    either end of a link finishes bootstrap.  It answers a neighbour's
    link-local discovery once its ``config`` holds a NID and a TMFID, hands
    every other link-local frame to its ``_handshake``, and forwards by split
    horizon over its own ``send``.
    """

    def __init__(self, name: str, net: "Deployment"):
        self.name = name
        self.net = net
        self.ports: Dict[int, PortLink] = {}
        self.nid_port: Dict[int, int] = {}

    def _on_link_local(self, packet: IcnPacket, in_port: int) -> None:
        msg = self.net.decode(self.name, packet.payload)
        if msg is None:
            return
        if isinstance(msg, DiscoveryRequest):
            try:
                offer = responder_on_discovery(msg, self.config)
            except NotBootstrapped:  # a host not DONE, or one with no TMFID
                return
            self.net.emit(self, in_port, self.net.control_packet(offer), self.net.hop_limit)
        else:
            self._handshake(msg, in_port)

    def _forward(self, packet: IcnPacket, in_port: int, hop_limit: int) -> None:
        if hop_limit > 0 and len(self.ports) > 1:  # split horizon bars a lone cable
            self.send(packet, hop_limit - 1, in_port)


class HostNode(IcnEndpoint):
    """ICN end host: runs the bootstrap FSM, then consumes and forwards.

    Its link table (``config.link_lids``, neighbour NID -> LID) is written
    only by the TM's Updates.  One rule, :meth:`send`, emits what the host
    originates and what it forwards.  Every FSM call goes through
    :meth:`_execute`, which reports the FSM's end, DONE or FAILED, once.
    """

    def __init__(self, name: str, net: "Deployment", rng: Random, timers: Timers):
        super().__init__(name, net)
        self.fsm = NodeBootstrapFsm(name, rng, timers)
        self.config = self.fsm.config
        self._settled = False

    def start(self) -> None:
        self._execute(self.fsm.start())

    def handle(self, event) -> None:
        if type(event) is tuple:
            self._on_packet(*event)
        else:  # the token of a timer the FSM armed
            self._execute(self.fsm.on_timeout(event))

    def _on_packet(self, packet: IcnPacket, in_port: int, hop_limit: int) -> None:
        fid = packet.fid
        if not fid or self.fsm.state != BootstrapState.DONE:
            # Pre-configuration the node owns no identifiers; everything that
            # arrives is treated as addressed to it, on the link-local channel.
            self._on_link_local(packet, in_port)
            return
        if (ilid := self.config.ilid) is not None and fid & ilid == ilid:
            # A DONE host acts only on the TM's Updates; its FSM takes no more frames.
            msg = self.net.consume(self.name, packet)
            if isinstance(msg, Update):
                apply_update(self.config, msg, self.fsm.attach_nid)
        self._forward(packet, in_port, hop_limit)

    def send(self, packet: IcnPacket, hop_limit: int, in_port: Optional[int] = None) -> None:
        """Emit, ``hop_limit`` hops left, on each link whose LID the FID holds, but ``in_port``."""
        fid = packet.fid
        ports = set()
        for nid, lid in self.config.link_lids.items():
            if fid & lid != lid:
                continue
            port = self.nid_port.get(nid)
            if port is not None:
                ports.add(port)
            else:
                # Neighbor not yet bound to a port: flood, Bloom style.
                ports.update(self.ports)
        ports.discard(in_port)
        for port in sorted(ports) if len(ports) > 1 else ports:
            self.net.emit(self, port, packet, hop_limit)

    def _handshake(self, msg, in_port: int) -> None:
        if self.fsm.state != BootstrapState.DONE:
            self._execute(self.fsm.on_message(msg, in_port))

    def _execute(self, actions) -> None:
        for action in actions:
            if isinstance(action, Broadcast):
                frame = self.net.control_packet(action.message)
                for port in sorted(self.ports):
                    self.net.emit(self, port, frame, self.net.hop_limit)
            elif isinstance(action, Send):
                packet = self.net.control_packet(action.message, action.fid)
                self.net.emit(self, action.port, packet, self.net.hop_limit)
            elif isinstance(action, Arm):
                self.net.sim.schedule(action.delay_us, self.handler, action.token)
        if not self._settled and self.fsm.state in (BootstrapState.DONE, BootstrapState.FAILED):
            self._settled = True
            self.net.host_settled(self)


class TmNode(IcnEndpoint):
    """The Topology Manager as a network endpoint plus serial message server.

    Its configuration is fixed: the TM's NID, its iLID and the all-zero
    TMFID.  It forwards a packet before it consumes it, and :meth:`send`
    emits only towards neighbours bound to a port.  Directly attached nodes
    address the TM with its own (all-zero) TMFID, so their handshake frames
    arrive on the link-local channel and join the serial queue.  Controller
    frames arrive as bytes; a served message, as its list of actions.
    Serving takes ``service_us`` plus ``alloc_us`` per LID allocated, which
    is how much the graph's LID registry grew; a link event goes to the
    engine's ``on_link_event``, any other message to its ``on_message``.
    """

    def __init__(self, name: str, net: "Deployment", graph: TopologyGraph,
                 service_us: int, alloc_us: int):
        super().__init__(name, net)
        self.graph = graph
        self.engine = TmEngine(graph)
        self.config = NodeConfig(nid=TM_NID, ilid=graph.nodes[TM_NID].ilid, tmfid=0)
        self.service_us = service_us  # per message served
        self.alloc_us = alloc_us  # per LID allocated
        self.wall_alloc_s = 0.0
        self._queue: deque = deque()
        self._busy = False

    def handle(self, event) -> None:
        if type(event) is tuple:
            self._on_packet(*event)
        elif type(event) is bytes:  # a frame from the controller
            msg = self.net.decode(self.name, event)
            if msg is not None:
                self._enqueue(msg, None)
        else:  # a list: the actions of the message just served
            self._service_done(event)

    # -- packet plane ---------------------------------------------------------

    def _on_packet(self, packet: IcnPacket, in_port: int, hop_limit: int) -> None:
        if not packet.fid:
            self._on_link_local(packet, in_port)
            return
        self._forward(packet, in_port, hop_limit)
        # TM-bound FIDs carry no iLID for the TM, so arrival means delivery.
        msg = self.net.consume(self.name, packet)
        if msg is not None:
            self._enqueue(msg, in_port)

    def send(self, packet: IcnPacket, hop_limit: int, in_port: Optional[int] = None) -> None:
        """Emit, ``hop_limit`` hops left, on each bound out-link the FID holds, but ``in_port``."""
        fid = packet.fid
        for link in self.graph.out_links(TM_NID):
            if fid & link.lid == link.lid:
                port = self.nid_port.get(link.dst)
                if port is not None and port != in_port:
                    self.net.emit(self, port, packet, hop_limit)

    # -- serial processing ------------------------------------------------------

    def _enqueue(self, msg, in_port: Optional[int]) -> None:
        """Queue a message; ``in_port`` is its fabric arrival port, None from the controller."""
        self._queue.append((msg, in_port))
        if not self._busy:
            self._start_next()

    _handshake = _enqueue

    def _start_next(self) -> None:
        msg, in_port = self._queue.popleft()
        self._busy = True
        before = len(self.graph.lid_registry)
        t0 = time.perf_counter()
        if isinstance(msg, wire.LinkEvent):
            actions = self.engine.on_link_event(msg)
        else:
            actions = self.engine.on_message(msg)
        self.wall_alloc_s += time.perf_counter() - t0
        if in_port is not None and isinstance(msg, ResourceRequest) and msg.attach_nid == TM_NID:
            nid = self.engine.nid_for_nonce(msg.nonce)
            if nid is not None:
                self.nid_port[nid] = in_port
        allocated = len(self.graph.lid_registry) - before  # an Exhausted draw takes none
        self.net.sim.schedule(self.service_us + allocated * self.alloc_us, self.handler, actions)

    def _service_done(self, actions: List) -> None:
        for action in actions:
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
        """Source-route a message to a node over :meth:`TopologyGraph.fid_from_tm`."""
        try:
            fid = self.graph.fid_from_tm(nid)
        except TopologyError as exc:
            log.warning("tm: cannot route to %d: %s", nid, exc)
            return
        self.send(self.net.control_packet(message, fid), self.net.hop_limit)


class Deployment:
    """A fully wired simulated deployment driven by a topology spec.

    ``trace_hops`` opts in to the hop trace: ``traces`` maps a packet's
    trace id to the ``(src, dst)`` hops it took, for at most ``trace_hops``
    hops in all.  ``trace_dropped`` counts the hops past that cap.  The
    default, 0, records nothing.
    """

    def __init__(self, spec: TopologySpec, seed: Optional[int] = None, trace_hops: int = 0):
        if trace_hops < 0:
            raise ValueError(f"trace_hops: must be >= 0, got {trace_hops}")
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
        self.tm = TmNode(self.tm_name, self, self.graph,
                         ms(d.tm_service_ms), ms(d.tm_alloc_per_lid_ms))

        self.switches: Dict[str, SwitchNode] = {}
        self.hosts: Dict[str, HostNode] = {}
        for node in spec.nodes:
            if node.kind == "switch":
                self.switches[node.name] = SwitchNode(node.name, self)
            elif node.kind == "host":
                rng = Random(f"{self.seed}:nonce:{node.name}")
                self.hosts[node.name] = HostNode(node.name, self, rng, self.timers)

        self.nodes: Dict[str, Any] = {self.tm_name: self.tm, **self.switches, **self.hosts}
        # Each node keeps its handler as registered (wrapped, if ``register``
        # wraps it): its cables, timers and control messages are scheduled for it.
        for name, node in self.nodes.items():
            self.sim.register(f"node:{name}", node.handle)
            node.handler = self.sim.handler(f"node:{name}")
        self.sim.register("ctl", self._controller_handle)
        self._ctl_handler = self.sim.handler("ctl")
        self.sim.register("orch", self._orch_handle)
        self._orch_handler = self.sim.handler("orch")

        # Cable everything: port indices follow spec link order per node.
        # ``port_to`` maps a node and a neighbour's name to the port between them.
        self.port_to: Dict[str, Dict[str, int]] = {node.name: {} for node in spec.nodes}
        for link in spec.links:
            a, b = self.nodes[link.a], self.nodes[link.b]
            pa, pb = len(a.ports), len(b.ports)
            pair = frozenset((link.a, link.b))
            delay_us = ms(link.delay_ms)
            a.ports[pa] = PortLink(link.b, pb, pair, delay_us, b.handler)
            b.ports[pb] = PortLink(link.a, pa, pair, delay_us, a.handler)
            self.port_to[link.a][link.b], self.port_to[link.b][link.a] = pa, pb

        self.controller = Controller(self)
        self.down_pairs: set = set()
        self.drop_filter = None
        self.traces: Dict[int, List[Tuple[str, str]]] = {}
        self.trace_hops = trace_hops
        self.trace_dropped = 0
        self._trace_room = trace_hops
        self.consumed: Dict[int, List[str]] = {}
        self._trace_counter = 0
        self._order = iter([n.name for n in spec.nodes if n.kind != "tm"])
        self._waiting: Dict[str, None] = {}  # switches with no attach point yet, in spec order
        self.failures: Dict[str, str] = {}

    # -- plumbing used by nodes and the controller -------------------------------

    def next_trace(self) -> int:
        self._trace_counter += 1
        return self._trace_counter

    def control_packet(self, message, fid: int = 0) -> IcnPacket:
        """``message`` under ``fid``; the default, 0, is the link-local (bootstrap) channel."""
        return IcnPacket(fid, wire.encode(message, self.params), trace_id=self.next_trace())

    def emit(self, node, port: int, packet: IcnPacket, hop_limit: int) -> None:
        """Send ``packet`` from ``node`` over the cable on its ``port``; the
        copy it schedules for the far end carries the ``hop_limit`` hops left."""
        link = node.ports.get(port)
        if link is None:
            log.warning("%s: emission on unwired port %d", node.name, port)
            return
        dst, dst_port, pair, delay_us, handler = link
        if pair in self.down_pairs:
            return
        src = node.name
        if self.drop_filter is not None and self.drop_filter(src, dst, packet):
            return
        if self.trace_hops:
            self._trace_hop(packet.trace_id, src, dst)
        self.sim.schedule(delay_us, handler, (packet, dst_port, hop_limit))

    def _trace_hop(self, trace_id: int, src: str, dst: str) -> None:
        if self._trace_room:
            self._trace_room -= 1
            self.traces.setdefault(trace_id, []).append((src, dst))
        else:
            self.trace_dropped += 1

    def packet_in(self, switch: str, in_port: int, packet: IcnPacket, hop_limit: int) -> None:
        data = encode_packet(packet, hop_limit, self.params)
        self.sim.schedule(self.ctl_delay_us, self._ctl_handler, PacketIn(switch, in_port, data))

    def packet_out(self, switch: str, port: int, packet: IcnPacket) -> None:
        self.sim.schedule(self.ctl_delay_us, self.switches[switch].handler,
                          PacketOutCmd(port, packet))

    def ctl_send(self, message) -> None:
        """Controller -> TM over the ICN-SDN interface: the frame, filed as its bytes."""
        self.sim.schedule(self.ctl_delay_us, self.tm.handler, wire.encode(message, self.params))

    def ctl_to_controller(self, message) -> None:
        """TM -> controller over the ICN-SDN interface: the frame, filed as its bytes."""
        self.sim.schedule(self.ctl_delay_us, self._ctl_handler, wire.encode(message, self.params))

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
        if type(event) is bytes:  # a frame from the TM
            msg = self.decode("controller", event)
            if msg is None:
                self.controller.audit_drops += 1
            else:
                self.controller.on_ctl_message(msg)
        else:  # PacketIn, SwitchAttached or LinkChange
            self.controller.on_control_event(event)

    # -- orchestration ------------------------------------------------------------

    def run_bootstrap(self) -> SimReport:
        """Bootstrap every node, as :meth:`_orch_handle` orders; returns the finished report."""
        self.sim.schedule(0, self._orch_handler, None)
        events = BOOT_EVENTS * self.hop_limit * (len(self.nodes) + len(self.spec.links))
        self.sim.run_until_idle(10_000_000 + 5_000_000 * (len(self.nodes) - 1), events)
        return self.report()

    def _orch_handle(self, event: None) -> None:
        """Start the first waiting switch with an ICN-enabled attach point now,
        else the next node in spec order: a switch with none waits.  Once no
        node is left to start, the switches still waiting have failed."""
        waiting = self._waiting
        for name in chain(list(waiting), self._order):  # the order resumes where it stopped
            if name in self.switches:
                attach = self._find_attach_point(name)
                if attach is None:
                    waiting[name] = None
                    continue
                waiting.pop(name, None)
                self.sim.schedule(0, self._ctl_handler, SwitchAttached(name, attach))
            else:
                self.hosts[name].start()
            self.sim.begin_span(f"bootstrap:{name}")
            return
        self.failures.update(dict.fromkeys(waiting, "no ICN-enabled attach point"))
        waiting.clear()

    def _find_attach_point(self, switch_name: str) -> Optional[str]:
        return next((link.dst for link in self.switches[switch_name].ports.values()
                     if link.dst == self.tm_name or link.dst in self.controller.enabled), None)

    def node_attached(self, name: str) -> None:
        """A node got its NID: the controller reports a switch, a DONE host itself."""
        self.sim.end_span(f"bootstrap:{name}")
        self._finish_ports(name)
        self.sim.schedule(0, self._orch_handler, None)

    def host_settled(self, host: HostNode) -> None:
        """A host's FSM ended DONE or FAILED."""
        # A host that attached through the TM or another host got no attach
        # rule, and a FAILED host never attaches: its discovery entry goes here.
        self.controller.pending_discovery.pop(host.fsm.nonce, None)
        if host.fsm.state == BootstrapState.DONE:
            self.node_attached(host.name)
        else:
            self.failures[host.name] = "bootstrap retries exhausted"
            self.sim.schedule(0, self._orch_handler, None)

    def _finish_ports(self, name: str) -> None:
        """Per port of a node that just got its NID, towards each neighbour with one.

        Handshake-allocated graph links learn the physical delay (the
        protocol never carries it), each ICN end (TM or host) of the pair
        binds its port to the other's NID, and a connection no handshake
        covered is reported to the TM as an ADD ``LinkChange``.
        """
        node = self.nodes[name]
        nid = self.nid_of(name)
        for port, cable in node.ports.items():  # port order is spec link order
            other = cable.dst
            other_nid = self.nid_of(other)
            if other_nid is None:
                continue
            if isinstance(node, IcnEndpoint):
                node.nid_port[other_nid] = port
            peer = self.nodes[other]
            if isinstance(peer, IcnEndpoint):
                peer.nid_port[nid] = cable.dst_port
            delay_ms = cable.delay_us / 1000
            for key in ((nid, other_nid), (other_nid, nid)):
                link = self.graph.links.get(key)
                if link is not None and not link.delay_ms:
                    self.graph.links[key] = DirectedLink(*key, link.lid, delay_ms, link.load)
            key = (nid, other_nid)
            if not (cable.pair in self.down_pairs or key in self.graph.links
                    or key in self.graph.down_links):
                self.sim.schedule(0, self._ctl_handler,
                                  LinkChange(LinkEventKind.ADD, *sorted((name, other))))

    def nid_of(self, name: str) -> Optional[int]:
        node = self.nodes[name]
        if isinstance(node, SwitchNode):
            return self.controller.enabled.get(name)
        return node.config.nid or None  # a host has NID 0 until DONE

    # -- faults and probes ---------------------------------------------------------

    def _cable(self, a: str, b: str) -> PortLink:
        """``a``'s end of the cable to ``b``; CableError if there is none."""
        unknown = [name for name in (a, b) if name not in self.nodes]
        if unknown:
            raise CableError(f"link {a!r}-{b!r}: unknown node {unknown[0]!r}")
        if b not in self.port_to[a]:
            raise CableError(f"link {a!r}-{b!r}: no cable joins the two nodes")
        return self.nodes[a].ports[self.port_to[a][b]]

    def fail_link(self, a: str, b: str) -> None:
        self.down_pairs.add(self._cable(a, b).pair)
        self.sim.schedule(0, self._ctl_handler, LinkChange(LinkEventKind.REMOVE, a, b))

    def restore_link(self, a: str, b: str) -> None:
        self.down_pairs.discard(self._cable(a, b).pair)
        self.sim.schedule(0, self._ctl_handler, LinkChange(LinkEventKind.ADD, a, b))

    def _endpoint(self, name: str):
        """The TM or a DONE host: the nodes that originate and consume traffic."""
        node = self.nodes.get(name)
        if not isinstance(node, IcnEndpoint):
            what = "a switch" if node is not None else "not a node"
            raise EndpointError(f"{name!r} is {what}; traffic runs between the TM and DONE hosts")
        if node is not self.tm and node.fsm.state != BootstrapState.DONE:
            raise EndpointError(f"host {name!r} is {node.fsm.state.name}, not DONE")
        return node

    def inject_probe(self, host_name: str) -> int:
        """Send a packet stamped with a DONE host's own TMFID towards the TM."""
        host = self._endpoint(host_name)
        if host is self.tm:
            raise EndpointError(f"{host_name!r} is the TM; a probe goes from a host to it")
        if host.config.tmfid is None:
            raise EndpointError(f"host {host_name!r} holds no TMFID; the TM's Update with it was lost")
        packet = IcnPacket(host.config.tmfid, b"PROBE", trace_id=self.next_trace())
        host.send(packet, self.hop_limit)
        return packet.trace_id

    def inject_data(self, src: str, dst: str) -> int:
        """Unicast data packet between two endpoints, FID from the TM graph."""
        source, dest = self._endpoint(src), self._endpoint(dst)
        if source is dest:
            raise EndpointError(f"{src!r} is both source and destination")
        packet = IcnPacket(self.graph.data_fid(source.config.nid, dest.config.nid), b"DATA",
                           trace_id=self.next_trace())
        source.send(packet, self.hop_limit)
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
        """Every switch enabled, every host DONE and holding a TMFID (a lost TM Update leaves none)."""
        return (all(n in self.controller.enabled for n in self.switches)
                and all(h.fsm.state == BootstrapState.DONE and h.config.tmfid is not None
                        for h in self.hosts.values()))
