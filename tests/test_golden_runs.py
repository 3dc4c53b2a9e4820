"""Runs pinned across commits: a refactor must leave every byte of them unchanged.

Criterion 9 compares two runs of the same code in one process.  These tests
compare a run with a digest committed here, so a change that alters event
order, identifier allocation, flow rules or packet paths fails them.  Each
fabric is bootstrapped, carries 200 seeded data packets, fails and restores
its first three switch-switch links, and sends one probe per host.  The
digest covers the report, the TM graph, every switch table, and which node
consumed and which links carried each packet, from a hop trace capped
above the run's hop count.
"""

import hashlib
from random import Random

import pytest

from icnsim.deploy import Deployment
from icnsim.topospec import generate_random

GOLDEN = {
    (10, 14, 8, 1): "f7e7d1473a696e77a9231a0ff0fe0e4386b85bbc23d63ec3cb1e23355657a8bb",
    (24, 60, 16, 2): "76487963c31ee3bf83b4e9d8e934621f02cdffaab5695dbecd0a0ff9ec29e4b8",
    (40, 80, 16, 3): "f546169c7ecfed9a07763330e8a764812d00cde0e36c93642fa0fe0cfd652c6d",
}


def run_digest(switches: int, links: int, hosts: int, seed: int) -> str:
    spec = generate_random(switches, links, hosts, seed, delay_ms=0.2)
    net = Deployment(spec, trace_hops=1_000_000)
    net.run_bootstrap()
    traffic = Random(f"golden:{seed}")
    names = sorted(net.hosts)
    for _ in range(200):
        src, dst = traffic.sample(names, 2)
        net.inject_data(src, dst)
    net.run_until_idle()
    kinds = spec.node_kinds()
    core = [(l.a, l.b) for l in spec.links if kinds[l.a] == kinds[l.b] == "switch"]
    for a, b in core[:3]:
        net.fail_link(a, b)
        net.run_until_idle()
        net.restore_link(a, b)
        net.run_until_idle()
    for name in names:
        net.inject_probe(name)
    net.run_until_idle()
    assert net.trace_dropped == 0

    h = hashlib.sha256()
    h.update(net.report().to_text().encode())
    h.update(net.graph.dump().encode())
    for name in sorted(net.switches):
        h.update(f"{name}:{net.switches[name].table.snapshot()!r}\n".encode())
    h.update(repr(sorted(net.consumed.items())).encode())
    h.update(repr(sorted(net.traces.items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("shape", sorted(GOLDEN), ids=lambda s: f"{s[0]}sw-{s[1]}l")
def test_run_matches_committed_digest(shape):
    assert run_digest(*shape) == GOLDEN[shape]
