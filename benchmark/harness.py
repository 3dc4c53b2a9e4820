"""Seeded workloads for the icnsim benchmark.

Every workload runs the same scenario in *rounds*: generate a random fabric
from the seed, build the deployment and bootstrap it, then make one or more
passes of unicast data between random host pairs and single-link flaps, with
probes from every host in the first pass.  The workloads differ in the shape
of the fabric and in how much of each phase a round holds, so that each one
stresses a different layer:

* ``dataplane_unicast``: a small dense fabric; data packets dominate, which
  is Topology Manager (TM) path reads and flow-table matching.
* ``link_churn``: a medium fabric; link flaps with a probe from every host
  after each transition dominate, which is TM link events, rule add/remove
  and repair Updates.

A run alternates rounds on several fabrics drawn from the seed until the
measuring time has passed.  Every repeat of a fabric's round does the same
work and must give the same digest; the checks count once per fabric, so
the operations a run attempts depend only on the seed.  Every output is
checked, and each miss counts as a failed operation.

Times are *reference seconds*: each timed step's host time, scaled by
``REF_S`` over the time of a fixed reference loop run just before and just
after the step.  The machine shares its cores with other tenants, and its
speed switches between a fast and a slow state (about 1.4 times slower)
every few seconds, in a mix that drifts over minutes; CPU time slows as much
as host time.  The reference loop slows with the machine, so the scaled time
moves much less than host time: on the 2-vCPU Intel Xeon VM the benchmark
was written on, it removed about three quarters of the drift.  There a
reference second is a host second in the fast state.  Each step's slowdown,
the reference loop's time over ``REF_S``, is recorded, and a run reports
its quartiles.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

from icnsim import topospec
from icnsim.deploy import Deployment
from icnsim.simnet import LimitExceeded
from icnsim.topospec import TopologySpec

from tracer import Tracer

LINK_DELAY_MS = 0.1

# The reference loop: interpreter work of a fixed size that allocates no
# object the garbage collector tracks, so that the program's heap cannot slow
# it.  REF_S is its time in the fast state of the machine above.
REF_LOOPS = 4000
REF_S = 3.5e-4
_REF_SLOTS = [0] * 64


def reference() -> float:
    """Host time of one pass of the reference loop."""
    slots = _REF_SLOTS
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
        slots[i & 63] = acc
    return time.perf_counter() - t0


class Stopwatch:
    """Scales the host time of a step to reference seconds.

    A reference pass runs when the watch starts and another when
    :meth:`scale` is called, after the step.
    """

    def __init__(self) -> None:
        self.ref_before = reference()
        self.t0 = time.perf_counter()

    def scale(self, rnd: "Round") -> float:
        """Reference seconds per host second; records the slowdown in ``rnd``."""
        scale = 2 * REF_S / (self.ref_before + reference())
        rnd.slowdown.append(1 / scale)
        return scale


def timed(fn: Callable[[], None], rnd: "Round") -> float:
    """Run ``fn``; its time in reference seconds."""
    watch = Stopwatch()
    fn()
    host = time.perf_counter() - watch.t0
    return host * watch.scale(rnd)


@dataclass(frozen=True)
class Shape:
    switches: int
    links: int            # switch-switch links
    hosts: int
    packets: int          # unicast data packets per pass
    probe_each_transition: bool  # otherwise every host probes once, after the flaps
    # Data and flap passes per round.  A pass after the first does the same
    # work again on the same deployment (same events, rules and LIDs),
    # without the probes: one more repeat of every timed step for little
    # more than the steps' own cost.  link_churn's link times vary more
    # between fabrics than between repeats, so it spends that time on rounds
    # of more fabrics instead.
    passes: int
    # Fabrics a run alternates, enough for 100 flaps in all (p90).  More
    # average out the fabrics' shapes, at the cost of fewer repeats of each;
    # a run's time holds about one round of each, and the first again.
    fabrics: int


WORKLOADS: Dict[str, Shape] = {
    "dataplane_unicast": Shape(24, 200, 32, packets=1000, probe_each_transition=False,
                               passes=2, fabrics=40),
    "link_churn": Shape(80, 160, 32, packets=1000, probe_each_transition=True, passes=1,
                        fabrics=22),
}


@dataclass
class Tally:
    """Checked operations: how many were attempted and how many failed."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def fail_all(self, count: int) -> None:
        self.attempted += count
        self.failed += count

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


@dataclass
class Round:
    """Measurements and checks of one round."""

    fabric: int = 0
    setup_s: float = 0.0
    bootstrap_s: float = 0.0
    nodes: int = 0
    nodes_ok: int = 0
    data_sent: int = 0
    data_delivered: int = 0
    data_s: List[float] = field(default_factory=list)             # per pass
    flaps: int = 0                                                 # per pass
    link_down_s: List[List[float]] = field(default_factory=list)  # per pass, per flap
    link_up_s: List[List[float]] = field(default_factory=list)
    probes_sent: int = 0
    probes_delivered: int = 0
    formation_sim_us: int = 0
    transition_sim_us: List[int] = field(default_factory=list)
    slowdown: List[float] = field(default_factory=list)  # reference loop time / REF_S, per step
    wall_s: float = 0.0
    limited: bool = False  # a LimitExceeded cut the round short; it has no timings
    digest: str = ""
    tally: Tally = field(default_factory=Tally)
    net: Optional[Deployment] = None


def flappable_links(spec: TopologySpec) -> List[Tuple[str, str]]:
    """Switch-switch links on some host's path to the TM whose loss leaves the fabric connected.

    Only a link on some node's path to the TM makes a link-down repair
    anything; flapping the others would mix no-op downs into the latency
    percentiles.  A link that carries only switches' paths (a branch with no
    host behind it) is a cheaper kind of repair, one that changes no host's
    TMFID: such downs take about half the time of the others, and as they
    are nearly half of the path-tree links, the median would sit on the
    boundary between the two kinds and jump from one to the other.  The
    tree is predicted from the spec: switches take NIDs in spec order, and
    each path steps to the smallest NID one hop closer to the TM.
    """
    kinds = spec.node_kinds()
    tm = spec.tm_name()
    order = {n.name: i for i, n in enumerate(spec.nodes)}  # the TM comes first
    core = [(l.a, l.b) for l in spec.links if kinds[l.a] != "host" and kinds[l.b] != "host"]

    def levels(skip: Tuple[str, str] = ("", "")) -> Dict[str, int]:
        adj: Dict[str, List[str]] = {}
        for a, b in core:
            if (a, b) != skip:
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
        level = {tm: 0}
        frontier = [tm]
        while frontier:
            nxt = []
            for node in frontier:
                for peer in adj.get(node, ()):
                    if peer not in level:
                        level[peer] = level[node] + 1
                        nxt.append(peer)
            frontier = nxt
        return level

    level = levels()
    parent = {}
    for a, b in core:
        for child, up in ((a, b), (b, a)):
            if level[up] == level[child] - 1 and order[up] < order.get(parent.get(child), 1 << 30):
                parent[child] = up
    on_host_path = set()
    for link in spec.links:
        for node, host in ((link.a, link.b), (link.b, link.a)):
            if kinds[host] == "host":
                while node in parent:
                    on_host_path.add(frozenset((node, parent[node])))
                    node = parent[node]
    return [(a, b) for a, b in core
            if kinds[a] == "switch" and kinds[b] == "switch"
            and frozenset((a, b)) in on_host_path
            and len(levels(skip=(a, b))) == len(level)]


def check_bootstrap(net: Deployment, rnd: Round) -> None:
    """Every node DONE or ENABLED; NIDs and live LIDs unique; no leaked LID."""
    states = net.report().final_states
    for name, state in states.items():
        if name == net.tm_name:
            continue
        rnd.nodes += 1
        ok = state in ("DONE", "ENABLED")
        rnd.nodes_ok += ok
        rnd.tally.check(ok)
    nids = [net.nid_of(n) for n in list(net.switches) + list(net.hosts)]
    nids = [n for n in nids if n is not None]
    graph = net.graph
    live = [link.lid for link in graph.links.values()]
    live += [rec.ilid for rec in graph.nodes.values() if rec.ilid is not None]
    rnd.tally.check(len(nids) == len(set(nids)) and len(live) == len(set(live))
                    and graph.lid_registry == graph.live_lids())


def send_data(net: Deployment, pairs: List[Tuple[str, str]], rnd: Round) -> None:
    """Timed: inject every packet, then run the fabric until idle."""
    traces: List[Tuple[int, str]] = []

    def step() -> None:
        traces.extend((net.inject_data(src, dst), dst) for src, dst in pairs)
        net.run_until_idle()

    rnd.data_s.append(timed(step, rnd))
    for trace, dst in traces:
        ok = dst in net.consumed.get(trace, ())
        rnd.data_sent += 1
        rnd.data_delivered += ok
        rnd.tally.check(ok)


def send_probes(net: Deployment, rnd: Round) -> None:
    """Every host stamps a probe with its own TMFID; each must reach the TM."""
    traces = [net.inject_probe(host) for host in sorted(net.hosts)]
    net.run_until_idle()
    for trace in traces:
        ok = net.tm_name in net.consumed.get(trace, ())
        rnd.probes_sent += 1
        rnd.probes_delivered += ok
        rnd.tally.check(ok)


def _transition(net: Deployment, change: Callable[[str, str], None], link: Tuple[str, str],
                wall: List[float], rnd: Round) -> None:
    sim_before = net.sim.now

    def step() -> None:
        change(*link)
        net.run_until_idle()

    wall.append(timed(step, rnd))
    rnd.transition_sim_us.append(net.sim.now - sim_before)


def flap_links(net: Deployment, links: List[Tuple[str, str]], probe_each: bool,
               rnd: Round) -> None:
    """One pass: fail, settle, (probe), restore, settle, (probe) for each link.

    LIDs must balance after each restore.
    """
    down: List[float] = []
    up: List[float] = []
    rnd.link_down_s.append(down)
    rnd.link_up_s.append(up)
    for link in links:
        _transition(net, net.fail_link, link, down, rnd)
        if probe_each:
            send_probes(net, rnd)
        _transition(net, net.restore_link, link, up, rnd)
        rnd.tally.check(net.graph.lid_registry == net.graph.live_lids())
        if probe_each:
            send_probes(net, rnd)


def digest(net: Deployment, report_text: str, rnd: Round) -> str:
    h = hashlib.sha256()
    h.update(report_text.encode())
    h.update(net.graph.dump().encode())
    for name in sorted(net.switches):
        h.update(f"{name}:{net.switches[name].table.snapshot()!r}\n".encode())
    h.update(repr((rnd.formation_sim_us, rnd.transition_sim_us, net.sim.now)).encode())
    return h.hexdigest()


def run_round(workload: str, shape: Shape, seed: int, fabric: int) -> Round:
    """One round; its inputs depend only on the workload, the seed and the fabric."""
    rnd = Round(fabric)
    topo_seed = Random(f"{seed}:{workload}:{fabric}:topology").getrandbits(48)
    traffic = Random(f"{seed}:{workload}:{fabric}:traffic")
    started = time.perf_counter()
    watch = Stopwatch()
    # Looked up on the module so that a traced run sees the call.
    spec = topospec.generate_random(shape.switches, shape.links, shape.hosts, topo_seed,
                                    delay_ms=LINK_DELAY_MS)
    net = Deployment(spec)
    rnd.net = net
    t_built = time.perf_counter()

    hosts = sorted(n.name for n in spec.nodes if n.kind == "host")
    pairs = [tuple(traffic.sample(hosts, 2)) for _ in range(shape.packets)]
    # Every candidate once: a sample would let the few links near the TM,
    # whose loss reroutes many nodes, set the p90 by chance.
    flaps = flappable_links(spec)
    traffic.shuffle(flaps)
    rnd.flaps = len(flaps)
    probes = len(hosts) * (2 * len(flaps) if shape.probe_each_transition else 1)

    def fail_rest() -> None:
        """A LimitExceeded fails every planned operation not yet checked."""
        rnd.limited = True
        rest = (shape.packets * shape.passes - rnd.data_sent,
                len(flaps) * shape.passes - sum(map(len, rnd.link_up_s)),
                probes - rnd.probes_sent)
        rnd.data_sent += rest[0]
        rnd.probes_sent += rest[2]
        rnd.tally.fail_all(sum(rest))

    try:
        report = net.run_bootstrap()
    except LimitExceeded:
        nodes = len(spec.nodes) - 1
        rnd.nodes += nodes
        rnd.tally.fail_all(nodes + 1)  # and the uniqueness check
        fail_rest()
        return rnd
    t_booted = time.perf_counter()
    scale = watch.scale(rnd)
    rnd.bootstrap_s = (t_booted - t_built) * scale
    rnd.setup_s = (t_booted - watch.t0) * scale
    rnd.formation_sim_us = report.end_us
    check_bootstrap(net, rnd)
    try:
        for first in [True] + [False] * (shape.passes - 1):
            send_data(net, pairs, rnd)
            # The probes check the first pass; the others repeat its work for timing.
            flap_links(net, flaps, first and shape.probe_each_transition, rnd)
            if first and not shape.probe_each_transition:
                send_probes(net, rnd)
    except LimitExceeded:
        fail_rest()
    rnd.digest = digest(net, report.to_text(), rnd)
    rnd.wall_s = time.perf_counter() - started
    return rnd


def run_rounds(workload: str, shape: Shape, seed: int, seconds: float) -> List[Round]:
    """Alternate the fabrics' rounds: each fabric at least once, the first twice.

    Another round starts while it would end within ``seconds``; the last
    round's time stands for the next one's.
    """
    rounds: List[Round] = []
    started = time.perf_counter()
    while (len(rounds) <= shape.fabrics
           or time.perf_counter() - started + rounds[-1].wall_s <= seconds):
        rnd = run_round(workload, shape, seed, len(rounds) % shape.fabrics)
        rnd.net = None
        gc.collect()  # deployments hold reference cycles; free each before the next
        rounds.append(rnd)
    return rounds


def _percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _fabrics(rounds: List[Round]) -> List[List[Round]]:
    """The rounds with timings, grouped by fabric."""
    groups: Dict[int, List[Round]] = {}
    for r in rounds:
        if not r.limited:
            groups.setdefault(r.fabric, []).append(r)
    return list(groups.values())


def _per_flap(rounds: List[Round], attr: str) -> List[float]:
    """Each flap's mean time over its repeats (passes and rounds), in ms, for all fabrics."""
    return [statistics.fmean(times) * 1e3 for repeats in _fabrics(rounds)
            for times in zip(*(one_pass for r in repeats for one_pass in getattr(r, attr)))]


def _per_fabric(rounds: List[Round], value: Callable[[List[Round]], float]) -> float:
    """Mean over the fabrics of ``value`` of each fabric's repeats."""
    per_fabric = [value(repeats) for repeats in _fabrics(rounds)]
    return statistics.fmean(per_fabric) if per_fabric else 0.0


def firsts(rounds: List[Round]) -> List[Round]:
    """The first round of each fabric: the one whose checks count.

    Every later round of a fabric must give its digest, so it repeats the
    same outcomes; counting it again would make the number of operations
    depend on how many rounds the measuring time held.
    """
    seen: Dict[int, Round] = {}
    for r in rounds:
        seen.setdefault(r.fabric, r)
    return list(seen.values())


def end_to_end(rounds: List[Round]) -> Dict[str, float]:
    """End-to-end metrics: timings are means over the repeats, ratios cover the checks.

    ``setup_s`` is a fabric's median set-up, as a typical set-up, averaged
    over the fabrics.
    """
    down = _per_flap(rounds, "link_down_s")
    up = _per_flap(rounds, "link_up_s")
    checked = firsts(rounds)
    return {
        "setup_s": _per_fabric(rounds, lambda repeats: (
            statistics.median(r.setup_s for r in repeats))),
        "bootstrap_s": _per_fabric(rounds, lambda repeats: (
            statistics.fmean(r.bootstrap_s for r in repeats))),
        "bootstrap_done_ratio": (sum(r.nodes_ok for r in checked)
                                 / sum(r.nodes for r in checked)),
        "data_pkts_per_s": _per_fabric(rounds, lambda repeats: (
            sum(r.data_delivered for r in repeats) / sum(sum(r.data_s) for r in repeats))),
        "data_delivered_ratio": (sum(r.data_delivered for r in checked)
                                 / sum(r.data_sent for r in checked)),
        "link_down_p50_ms": _percentile(down, 50),
        "link_down_p90_ms": _percentile(down, 90),
        "link_up_p50_ms": _percentile(up, 50),
        "link_up_p90_ms": _percentile(up, 90),
        "probe_delivered_ratio": (sum(r.probes_delivered for r in checked)
                                  / sum(r.probes_sent for r in checked)),
    }


def _sum(table: Dict[str, float], *names: str) -> float:
    return sum(table.get(n, 0) for n in names)


def per_layer(tracer: Tracer, rnd: Round) -> Dict[str, float]:
    """Per-layer metrics of one traced round; times are self times in seconds."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    net = rnd.net
    topo = "topology.TopologyGraph."
    fsm = [f"bootstrap.NodeBootstrapFsm.{m}" for m in ("start", "on_message", "on_timeout")]
    tm = ["bootstrap.TmEngine.on_message", "bootstrap.TmEngine.on_link_event"]
    ctl = ["fabric.Controller.on_control_event", "fabric.Controller.on_ctl_message"]
    run_s = tracer.total_s.get("simnet.Simulator.run_until_idle", 0.0)
    events = calls.get("simnet.Simulator.schedule", 0)
    packet_in = counts.get("fabric.packet_in", 0)
    max_retries = net.timers.max_retries
    return {
        "topology.allocate_calls": calls.get(topo + "allocate_resources", 0),
        "topology.allocate_s": self_s.get(topo + "allocate_resources", 0.0),
        "topology.commit_calls": calls.get(topo + "commit_grant", 0),
        "topology.commit_s": self_s.get(topo + "commit_grant", 0.0),
        "topology.link_event_calls": calls.get(topo + "handle_link_event", 0),
        "topology.link_event_s": self_s.get(topo + "handle_link_event", 0.0),
        "topology.shortest_path_calls": calls.get(topo + "shortest_path", 0),
        "topology.shortest_path_s": self_s.get(topo + "shortest_path", 0.0),
        "topology.repairs": counts.get("topology.repairs", 0),
        "topology.lid_registry_size": len(net.graph.lid_registry),
        "bootstrap.tm_calls": _sum(calls, *tm),
        "bootstrap.tm_self_s": _sum(self_s, *tm),
        "bootstrap.fsm_calls": _sum(calls, *fsm),
        "bootstrap.fsm_s": _sum(self_s, *fsm),
        "bootstrap.retries": sum(max_retries - h.fsm.retries_left for h in net.hosts.values()),
        "wire.encode_calls": calls.get("wire.encode", 0),
        "wire.encode_s": self_s.get("wire.encode", 0.0),
        "wire.decode_calls": calls.get("wire.decode", 0),
        "wire.decode_s": self_s.get("wire.decode", 0.0),
        "wire.decode_errors": counts.get("wire.decode_errors", 0),
        "fabric.match_calls": calls.get("fabric.FlowTable.match_ports", 0),
        "fabric.match_s": self_s.get("fabric.FlowTable.match_ports", 0.0),
        "fabric.rules_scanned": counts.get("fabric.rules_scanned", 0),
        "fabric.miss_calls": counts.get("fabric.miss_calls", 0),
        "fabric.rule_add_calls": calls.get("fabric.FlowTable.add", 0),
        "fabric.rule_add_s": self_s.get("fabric.FlowTable.add", 0.0),
        "fabric.rule_remove_calls": calls.get("fabric.FlowTable.remove", 0),
        "fabric.rule_remove_s": self_s.get("fabric.FlowTable.remove", 0.0),
        "fabric.controller_calls": _sum(calls, *ctl),
        "fabric.controller_s": _sum(self_s, *ctl),
        "fabric.packet_in": packet_in,
        "fabric.audit_drops": net.controller.audit_drops,
        "fabric.packet_in_useful_ratio": (counts.get("fabric.packet_in_useful", 0) / packet_in
                                          if packet_in else 0.0),
        "simnet.events": events,
        "simnet.run_s": run_s,
        "simnet.loop_self_s": self_s.get("simnet.Simulator.run_until_idle", 0.0),
        "simnet.events_per_s": events / run_s if run_s else 0.0,
        "simnet.formation_sim_ms": rnd.formation_sim_us / 1e3,
        "simnet.repair_sim_p50_ms": (statistics.median(rnd.transition_sim_us) / 1e3
                                     if rnd.transition_sim_us else 0.0),
        "deploy.switch_handle_s": self_s.get("deploy.SwitchNode.handle", 0.0),
        "deploy.host_handle_s": self_s.get("deploy.HostNode.handle", 0.0),
        "deploy.tm_handle_s": self_s.get("deploy.TmNode.handle", 0.0),
        "deploy.emit_calls": calls.get("deploy.Deployment.emit", 0),
        "deploy.inject_data_s": self_s.get("deploy.Deployment.inject_data", 0.0),
        "deploy.switch_drops": sum(sw.drops for sw in net.switches.values()),
        "deploy.traces_entries": sum(len(hops) for hops in net.traces.values()),
        "fid.new_lid_calls": calls.get("fid.new_lid", 0),
        "fid.match_calls": calls.get("fid.fid_matches", 0),
        "fid.or_calls": calls.get("fid.BitVector.__or__", 0),
        "topospec.generate_s": self_s.get("topospec.generate_random", 0.0),
    }


@dataclass
class Measurement:
    """What one benchmark run reports."""

    metrics: Dict[str, float]
    tally: Tally
    digest: str
    consistent: bool          # every repeat gave the same digest (and counts, traced)
    samples: Dict[str, int]
    tracer: Optional[Tracer] = None


def measure(workload: str, shape: Shape, seed: int, seconds: float) -> Measurement:
    """Untraced run: the end-to-end metrics."""
    rounds = run_rounds(workload, shape, seed, seconds)
    checked = firsts(rounds)
    tally = Tally()
    for r in checked:
        tally.add(r.tally)
    slowdown = statistics.quantiles([x for r in rounds for x in r.slowdown], n=4)
    samples = {"rounds": len(rounds), "fabrics": shape.fabrics,
               "flaps": sum(r.flaps for r in checked),
               "data_packets": sum(r.data_sent for r in checked),
               "probes": sum(r.probes_sent for r in checked),
               "nodes": sum(r.nodes for r in checked),
               "slowdown_quartiles": [round(q, 3) for q in slowdown]}
    # Without a round that ran to its end there are no timings to report.
    consistent = (all(r.digest == checked[r.fabric].digest for r in rounds)
                  and not all(r.limited for r in rounds))
    run_digest = hashlib.sha256("".join(r.digest for r in checked).encode()).hexdigest()
    return Measurement(end_to_end(rounds), tally, run_digest, consistent, samples)


def _ref_wall(rnd: Round) -> float:
    """The round's host time over its median step slowdown: reference seconds."""
    return rnd.wall_s / statistics.median(rnd.slowdown)


def _is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith("_per_s")


def measure_traced(workload: str, shape: Shape, seed: int, seconds: float) -> Measurement:
    """Traced run: fabric 0's round, traced and untraced in turn, for about ``seconds``.

    Per-layer values are means over the traced repeats; the tracing overhead
    compares them with the untraced repeats between them, which saw the same
    machine.  Counts must be the same on every repeat, and every repeat must
    give the digest of a first, untraced round.
    """
    base = run_round(workload, shape, seed, 0)
    base.net = None
    tracer = Tracer()
    repeats: List[Tuple[Round, Dict[str, float]]] = []
    plain: List[Round] = []
    started = time.perf_counter()
    while not repeats or (time.perf_counter() - started + repeats[-1][0].wall_s
                          + plain[-1].wall_s <= seconds):
        if repeats:
            tracer.reset()
        tracer.install()
        try:
            rnd = run_round(workload, shape, seed, 0)
        finally:
            tracer.uninstall()
        repeats.append((rnd, per_layer(tracer, rnd)))
        rnd.net = None
        plain.append(run_round(workload, shape, seed, 0))
        plain[-1].net = None
    first = repeats[0][1]
    exact = all(layer[n] == first[n] for _, layer in repeats for n in first
                if not _is_time(n))
    metrics = {n: statistics.fmean(layer[n] for _, layer in repeats) for n in first}
    traced = [r for r, _ in repeats]
    metrics["trace.overhead_ratio"] = (statistics.fmean(map(_ref_wall, traced))
                                       / statistics.fmean(map(_ref_wall, plain)))
    metrics["trace.spans"] = len(tracer.spans) + tracer.dropped
    consistent = exact and all(r.digest == base.digest
                               for r in [r for r, _ in repeats] + plain)
    return Measurement(metrics, base.tally, base.digest, consistent,
                       {"traced_repeats": len(repeats)}, tracer)
