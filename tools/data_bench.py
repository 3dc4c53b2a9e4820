"""Data-plane cost of ``icnsim``, in microseconds per packet.

A data pass sends unicast packets between seeded random host pairs of a
bootstrapped fabric, in two phases, each timed alone:

- origination: ``Deployment.inject_data`` for every packet, which composes
  the packet's FID and emits its first copies;
- delivery: ``Deployment.run_until_idle``, every hop of every copy.

Both fabric shapes of the benchmark's workloads are measured, with its
0.1 ms links: ``dataplane_unicast`` (``generate_random(24, 200, 32, s)``)
and ``link_churn`` (``generate_random(80, 160, 32, s)``).  Each sample
bootstraps a fresh deployment, so every pass composes all its data FIDs
anew, as each pass of the benchmark does.  Run from the repository
root::

    PYTHONPATH=src python tools/data_bench.py [--packets 1000] [--repeats 5] [--seeds 3]

It prints one JSON line with, per shape and phase, the median and the
fastest microseconds per packet over ``repeats`` samples of each of the
fabric seeds 1 .. ``seeds``, and the origination's share of the median.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from random import Random
from typing import Dict, List, Optional, Tuple

from icnsim.deploy import Deployment
from icnsim.topospec import generate_random

SHAPES = {"dataplane_unicast": (24, 200, 32), "link_churn": (80, 160, 32)}
LINK_DELAY_MS = 0.1


def sample(shape: Tuple[int, int, int], seed: int, packets: int) -> Tuple[float, float]:
    """Origination and delivery microseconds per packet of one pass on a fresh fabric."""
    net = Deployment(generate_random(*shape, seed, delay_ms=LINK_DELAY_MS))
    net.run_bootstrap()
    if not net.all_done():
        raise SystemExit(f"fabric {shape} seed {seed} did not bootstrap")
    traffic = Random(seed)
    hosts = sorted(net.hosts)
    pairs = [tuple(traffic.sample(hosts, 2)) for _ in range(packets)]
    inject = net.inject_data
    gc.collect()
    start = time.perf_counter()
    traces = [(inject(src, dst), dst) for src, dst in pairs]
    injected = time.perf_counter()
    net.run_until_idle()
    done = time.perf_counter()
    if not all(dst in net.consumed.get(trace, ()) for trace, dst in traces):
        raise SystemExit(f"fabric {shape} seed {seed}: a packet was not delivered")
    return (injected - start) / packets * 1e6, (done - injected) / packets * 1e6


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args(argv)
    if min(args.packets, args.repeats, args.seeds) < 1:
        parser.error("--packets, --repeats and --seeds must be at least 1")
    result: Dict[str, object] = {"packets": args.packets, "repeats": args.repeats,
                                 "seeds": args.seeds}
    for name, shape in SHAPES.items():
        inject: List[float] = []
        deliver: List[float] = []
        for _ in range(args.repeats):
            for seed in range(1, args.seeds + 1):
                i, d = sample(shape, seed, args.packets)
                inject.append(i)
                deliver.append(d)
        med_i, med_d = statistics.median(inject), statistics.median(deliver)
        result[name] = {"inject_us_per_pkt": round(med_i, 2),
                        "inject_min_us_per_pkt": round(min(inject), 2),
                        "deliver_us_per_pkt": round(med_d, 2),
                        "deliver_min_us_per_pkt": round(min(deliver), 2),
                        "inject_share": round(med_i / (med_i + med_d), 3)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
