"""Acceptance suite: one test per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import statistics
import time
from random import Random

import pytest

from golden_vectors import GOLDEN_HEX
from icnsim.bench import run_sweep
from icnsim.bootstrap import BootstrapState
from icnsim.deploy import Deployment
from icnsim.fid import BitVector, FidParams, fid_matches, fid_or, lid_fpr, new_lid
from icnsim.topology import TM_NID
from icnsim.topospec import Defaults, TopoLink, TopoNode, TopologySpec, generate_random
from icnsim.wire import decode, encode, golden_messages

SEED = 20260810  # fixed up front; every criterion derives from it


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


def random_topology(rng: Random, max_switches=30, max_hosts=20, max_extra=10):
    switches = rng.randint(2, max_switches)
    hosts = rng.randint(1, max_hosts)
    cap = switches * (switches - 1) // 2 - (switches - 1)
    links = (switches - 1) + rng.randint(0, min(cap, max_extra))
    return generate_random(switches, links, hosts, seed=rng.getrandbits(48),
                           delay_ms=0.1)


def test_criterion_1_handshake_correctness_and_uniqueness():
    """200 seeded topologies: every node DONE, identifiers globally unique."""
    rng = Random(f"{SEED}:c1")
    started = time.monotonic()
    runs = 200
    for i in range(runs):
        spec = random_topology(rng)
        net = Deployment(spec)
        net.run_bootstrap()
        assert net.all_done(), f"run {i}: incomplete bootstrap ({net.failures})"
        nids = list(net.graph.nodes)
        assert len(nids) == len(set(nids))
        live = [link.lid for link in net.graph.links.values()]
        live += [rec.ilid for rec in net.graph.nodes.values() if rec.ilid is not None]
        assert len(live) == len(set(live)), f"run {i}: LID collision"
        host_nids = [h.config.nid for h in net.hosts.values()]
        assert len(host_nids) == len(set(host_nids))
    elapsed = time.monotonic() - started
    _report("criterion 1 (handshake correctness)", elapsed < 60.0,
            f"{runs} topologies, all DONE, identifiers unique, {elapsed:.1f}s < 60s")


def test_criterion_2_forwarding_soundness():
    """TMFID probes reach the TM; extra traversed links are Bloom FPs."""
    rng = Random(f"{SEED}:c2")
    extras_total = 0
    for i in range(100):
        spec = random_topology(rng, max_switches=12, max_hosts=8, max_extra=6)
        net = Deployment(spec, trace_hops=100_000)
        net.run_bootstrap()
        assert net.all_done(), f"run {i}: incomplete bootstrap"
        name_of = {net.nid_of(n): n for n in list(net.switches) + list(net.hosts)}
        name_of[TM_NID] = net.tm_name
        for host_name, host in net.hosts.items():
            fid = host.config.tmfid
            trace = net.inject_probe(host_name)
            net.run_until_idle()
            assert net.tm_name in net.consumed.get(trace, []), \
                f"run {i}: probe from {host_name} never reached the TM"
            managed = [(name_of[l.src], name_of[l.dst])
                       for l in net.graph.shortest_path(host.config.nid, TM_NID)]
            traversed = net.traces[trace]
            assert net.trace_dropped == 0, f"run {i}: hop trace cut short"
            assert all(pair in traversed for pair in managed), \
                f"run {i}: {host_name} probe skipped part of its managed path"
            for (a, b) in traversed:
                if (a, b) in managed:
                    continue
                extras_total += 1
                link = net.graph.links[(net.nid_of(a), net.nid_of(b))]
                assert fid_matches(fid, link.lid), \
                    f"run {i}: extra hop {a}->{b} is not a Bloom false positive"
    _report("criterion 2 (forwarding soundness)", True,
            f"100 topologies, every probe delivered; {extras_total} extra hops, all FP-classified")


@pytest.mark.parametrize("m,k,n", [(256, 5, 5), (256, 5, 10), (256, 5, 20),
                                   (64, 3, 4), (64, 3, 8)])
def test_criterion_3_bloom_fpr_oracle(m, k, n):
    """Empirical FP rate of fid_matches vs the exact lid_fpr within 3 SE.

    The SE is taken under the null, from the oracle's rate: at m=256, k=5,
    n=5 about 0.5 hits are expected, and an SE from the observed rate would
    collapse on the likely zero-hit outcome.
    """
    trials = 100_000
    per_path = 500
    rng = Random(f"{SEED}:c3:{m}:{k}:{n}")
    params = FidParams(m=m, k=k)
    hits = 0
    for _ in range(trials // per_path):
        registry = set()
        path = [BitVector(m, new_lid(rng, registry, params)) for _ in range(n)]
        fid = fid_or(path)
        path_set = set(path)
        for _ in range(per_path):
            probe = BitVector.from_bits(m, rng.sample(range(m), k))
            while probe in path_set:
                probe = BitVector.from_bits(m, rng.sample(range(m), k))
            if fid_matches(fid, probe):
                hits += 1
    p_hat = hits / trials
    p_theory = float(lid_fpr(m, k, n))
    se = math.sqrt(p_theory * (1 - p_theory) / trials)
    z = (p_hat - p_theory) / se
    _report(f"criterion 3 (FPR oracle m={m} k={k} n={n})", abs(z) <= 3.0,
            f"empirical={p_hat:.6f} theoretical={p_theory:.6f} |z|={abs(z):.2f} (limit 3)")


def test_criterion_4_formation_time_linearity():
    """Formation time linear in link count; TM wall time sub-quadratic.

    The wall-time ratio compares row medians: a single bootstrap can pause
    for ten times its usual time, which would skew a mean of 20.
    """
    result = run_sweep(10, 60, 10, repeats=20, seed=SEED)
    r2 = result.r_squared
    wall_medians = [statistics.median(row.wall_ms) for row in result.rows]
    ratio = wall_medians[-1] / wall_medians[0]
    ok = r2 >= 0.98 and ratio <= 9.0
    _report("criterion 4 (formation linearity)", ok,
            f"R2={r2:.4f} (>=0.98), wall t(60)/t(10)={ratio:.2f} (<=9); "
            f"slope={result.slope_ms_per_link:.3f} ms/link")


def chain_for_hops(hops: int, delay_ms: float) -> TopologySpec:
    """Host at the given link distance from the TM through a switch chain."""
    nodes = [TopoNode("tm", "tm")]
    links = []
    prev = "tm"
    for i in range(1, hops):
        nodes.append(TopoNode(f"s{i}", "switch"))
        links.append(TopoLink(prev, f"s{i}", delay_ms))
        prev = f"s{i}"
    nodes.append(TopoNode("h1", "host"))
    links.append(TopoLink(prev, "h1", delay_ms))
    return TopologySpec(nodes=nodes, links=links, seed=SEED)


def bootstrap_span_us(hops: int, delay_ms: float) -> int:
    net = Deployment(chain_for_hops(hops, delay_ms))
    net.run_bootstrap()
    assert net.all_done()
    return net.report().span("bootstrap:h1").duration_us


def test_criterion_5_hop_independence_and_affine_law():
    """Zero delay: spans exactly equal; 1 ms/hop: affine with slope 4d.

    The post-discovery handshake is four one-way node<->TM legs
    (ResourceRequest, ResourceOffer, OfferAccepted, ResourceAccepted), so
    span = discovery_wait + c + 4*h*d.
    """
    hops = [1, 5, 10, 20]
    zero = {h: bootstrap_span_us(h, 0.0) for h in hops}
    equal = len(set(zero.values())) == 1
    delayed = {h: bootstrap_span_us(h, 1.0) for h in hops}
    ys = [delayed[h] for h in hops]
    slope, intercept = statistics.linear_regression(hops, ys)
    residual = max(abs(y - (slope * x + intercept)) for x, y in zip(hops, ys))
    d_us = 1000.0
    expected_slope = 4 * d_us
    slope_ok = abs(slope - expected_slope) <= 0.01 * expected_slope
    ok = equal and slope_ok and residual < 1.0
    _report("criterion 5 (hop independence + affine law)", ok,
            f"zero-delay spans {sorted(set(zero.values()))} us (equal={equal}); "
            f"slope={slope:.1f} us/hop vs 4d={expected_slope:.0f} "
            f"(within 1%={slope_ok}), max residual={residual:.3f} us")


def test_criterion_6_zero_controller_involvement_after_bootstrap():
    """10 000 data packets between random committed pairs: zero PacketIns."""
    spec = generate_random(switches=10, links=15, hosts=8, seed=SEED, delay_ms=0.1)
    net = Deployment(spec)
    net.run_bootstrap()
    assert net.all_done()
    rng = Random(f"{SEED}:c6")
    names = sorted(net.hosts)
    before = net.controller.packet_in_count
    for _ in range(10_000):
        src, dst = rng.sample(names, 2)
        net.inject_data(src, dst)
    net.run_until_idle()
    packet_ins = net.controller.packet_in_count - before
    _report("criterion 6 (zero controller involvement)", packet_ins == 0,
            f"10000 data packets, {packet_ins} PacketIn events")


def test_criterion_7_resilience_diamond():
    """Link kill: one repair round reroutes the host; link up restores tables."""
    spec = TopologySpec(
        nodes=[TopoNode("tm", "tm"), TopoNode("s1", "switch"), TopoNode("s2", "switch"),
               TopoNode("s3", "switch"), TopoNode("h1", "host")],
        links=[TopoLink("tm", "s1", 0.5), TopoLink("tm", "s2", 0.5),
               TopoLink("s1", "s3", 0.5), TopoLink("s2", "s3", 0.5),
               TopoLink("h1", "s3", 0.5)],
        seed=SEED,
    )
    net = Deployment(spec)
    net.run_bootstrap()
    assert net.all_done()
    h_nid = net.nid_of("h1")
    active = net.graph.shortest_path(h_nid, TM_NID)
    failed_pair = next((l.src, l.dst) for l in active
                       if net.graph.nodes[l.src].kind.name == "SDN_SWITCH"
                       and net.graph.nodes[l.dst].kind.name == "SDN_SWITCH")
    name_of = {net.nid_of(n): n for n in list(net.switches) + [net.tm_name]}
    a, b = name_of[failed_pair[0]], name_of[failed_pair[1]]
    tables_before = {n: net.switches[n].table.snapshot() for n in net.switches}

    net.fail_link(a, b)
    net.run_until_idle()
    new_path = net.graph.shortest_path(h_nid, TM_NID)
    shares = any({l.src, l.dst} == set(failed_pair) for l in new_path)
    trace = net.inject_probe("h1")
    net.run_until_idle()
    routed = net.tm_name in net.consumed.get(trace, [])
    tmfid_synced = net.hosts["h1"].config.tmfid == net.graph.nodes[h_nid].tmfid

    net.restore_link(a, b)
    net.run_until_idle()
    tables_after = {n: net.switches[n].table.snapshot() for n in net.switches}
    restored = tables_after == tables_before
    ok = routed and not shares and tmfid_synced and restored
    _report("criterion 7 (resilience)", ok,
            f"failed {a}->{b}: rerouted={routed}, disjoint={not shares}, "
            f"host updated={tmfid_synced}, tables restored={restored}")


def test_criterion_8_wire_golden_vectors():
    """All seven messages plus the three control frames are byte-exact."""
    params = FidParams(m=256, k=5)
    messages = golden_messages(params)
    assert len(messages) == 10
    for name, msg in messages:
        frame = encode(msg, params)
        assert frame.hex() == GOLDEN_HEX[name], f"{name} drifted from its fixture"
        assert decode(frame, params) == msg, f"{name} does not round-trip"
    _report("criterion 8 (wire golden vectors)", True,
            "10 frame types byte-exact and round-tripped")


def test_criterion_9_determinism():
    """(spec, seed) run twice yields byte-identical reports."""
    rng = Random(f"{SEED}:c9")
    for _ in range(3):
        spec = generate_random(8, 12, 5, seed=rng.getrandbits(48), delay_ms=0.3)
        first = Deployment(spec).run_bootstrap()
        second = Deployment(spec).run_bootstrap()
        assert first.to_csv() == second.to_csv()
        assert first.to_text() == second.to_text()
    _report("criterion 9 (determinism)", True,
            "3 spec/seed pairs, byte-identical CSV and text reports")
