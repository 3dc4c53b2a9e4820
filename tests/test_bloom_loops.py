"""Bloom false positives at small m must not loop packets.

A LIPSIN-style forwarder emits on every link whose LID the FID covers.  At a
small filter width the reverse LID of the arrival link matches often enough
for a copy to bounce straight back, so every forwarder skips the port a
packet arrived on (split horizon).
"""

from collections import Counter
from dataclasses import replace

import pytest

from icnsim.deploy import Deployment
from icnsim.topospec import generate_random

# Emissions of one packet (one trace id), bootstrap frames included.  With
# split horizon the most seen at m=64 over the seeds below is 9; a copy past
# the bound is dropped, so a forwarding loop ends fast instead of storming.
MAX_EMISSIONS = 16


def loop_faults(m: int, seed: int) -> list:
    """Bootstrap a 24-switch fabric at width m, k=3, then send one data packet
    from each host to the next in name order; every fault found, as text."""
    net = Deployment(replace(generate_random(24, 60, 16, seed), m=m, k=3))
    emissions = Counter()

    def past_bound(src, dst, packet):
        emissions[packet.trace_id] += 1
        return emissions[packet.trace_id] > MAX_EMISSIONS

    net.drop_filter = past_bound
    net.run_bootstrap()
    faults = [f"seed {seed}: {name} {why}" for name, why in sorted(net.failures.items())]
    if not net.all_done():
        faults.append(f"seed {seed}: bootstrap incomplete")
    names = sorted(net.hosts)
    sends = [(net.inject_data(src, dst), src, dst)
             for src, dst in zip(names, names[1:] + names[:1])]
    net.run_until_idle()
    faults += [f"seed {seed}: packet {trace} emitted {count} times"
               for trace, count in sorted(emissions.items()) if count > MAX_EMISSIONS]
    for trace, src, dst in sends:
        delivered = net.consumed.get(trace, [])
        if delivered != [dst]:
            faults.append(f"seed {seed}: {src}->{dst} delivered to {delivered}")
    return faults


@pytest.mark.parametrize("m", [
    64,
    pytest.param(32, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="open defect: at m=32, loops longer than one link still duplicate "
               "and misdeliver packets (seeds 2, 6, 8, 10); needs LIPSIN link ID tags")),
])
def test_split_horizon_bounds_forwarding_at_small_m(m):
    faults = [fault for seed in range(1, 11) for fault in loop_faults(m, seed)]
    assert faults == []
