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
    (10, 14, 8, 1): "f63a20973691d526f35e38480bf207e22dad0c539b5390e04a5d817fd1c0dd30",
    (24, 60, 16, 2): "ce949274002f5dcc829075791bb26a39de125b043d252ae2804778eb010a4c25",
    (40, 80, 16, 3): "83ccd5347c7a569cad5765639aa095fd45b12dc92e934438372a96f40df7e21e",
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
