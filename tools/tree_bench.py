"""Tree-engine cost of the TM graph, in microseconds per operation.

On a bootstrapped fabric, two operations of ``TopologyGraph`` are timed:

- a data-tree build: ``_distances_to(dst)``, the in-tree towards one
  destination that a data FID is composed down, for every node;
- a flap: a REMOVE and then an ADD of one TM in-tree link, for every
  in-tree link, each through ``handle_link_event``.  A flap puts back the
  tree it found, so every repeat measures the same work.

Both fabric shapes of the benchmark's workloads are measured, with its
0.1 ms links: ``dataplane_unicast`` (``generate_random(24, 200, 32, s)``)
and ``link_churn`` (``generate_random(80, 160, 32, s)``).  Each fabric seed
is bootstrapped once and measured ``repeats`` times.  Run from the
repository root::

    PYTHONPATH=src python tools/tree_bench.py [--repeats 5] [--seeds 3]

It prints one JSON line with, per shape, the median and the fastest
microseconds per build, per REMOVE, per ADD and per REMOVE/ADD pair over
``repeats`` samples of each of the fabric seeds 1 .. ``seeds``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from icnsim.deploy import Deployment
from icnsim.topology import LinkEvent, LinkEventKind, TopologyGraph
from icnsim.topospec import generate_random

SHAPES = {"dataplane_unicast": (24, 200, 32), "link_churn": (80, 160, 32)}
LINK_DELAY_MS = 0.1


def bootstrapped(shape: Tuple[int, int, int], seed: int) -> TopologyGraph:
    net = Deployment(generate_random(*shape, seed, delay_ms=LINK_DELAY_MS))
    net.run_bootstrap()
    if not net.all_done():
        raise SystemExit(f"fabric {shape} seed {seed} did not bootstrap")
    return net.graph


def sample(g: TopologyGraph) -> Tuple[float, float, float]:
    """Microseconds per data-tree build, per REMOVE and per ADD, over the whole graph."""
    dsts = sorted(g.nodes)
    edges = sorted(g._next.items())
    tree = (dict(g._dist), dict(g._next))
    gc.collect()
    start = time.perf_counter()
    for dst in dsts:
        g._distances_to(dst)
    built = time.perf_counter()
    removing = adding = 0.0
    for key in edges:
        delay_ms = g.links[key].delay_ms
        t0 = time.perf_counter()
        g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, *key))
        t1 = time.perf_counter()
        g.handle_link_event(LinkEvent(LinkEventKind.ADD, *key, delay_ms))
        t2 = time.perf_counter()
        removing += t1 - t0
        adding += t2 - t1
    if (g._dist, g._next) != tree:
        raise SystemExit("a flap did not put the TM in-tree back")
    return ((built - start) / len(dsts) * 1e6, removing / len(edges) * 1e6,
            adding / len(edges) * 1e6)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args(argv)
    if min(args.repeats, args.seeds) < 1:
        parser.error("--repeats and --seeds must be at least 1")
    result: Dict[str, object] = {"repeats": args.repeats, "seeds": args.seeds}
    for name, shape in SHAPES.items():
        samples: Dict[str, List[float]] = {"build": [], "remove": [], "add": [], "pair": []}
        for seed in range(1, args.seeds + 1):
            g = bootstrapped(shape, seed)
            for _ in range(args.repeats):
                build, remove, add = sample(g)
                for key, us in (("build", build), ("remove", remove), ("add", add),
                                ("pair", remove + add)):
                    samples[key].append(us)
        result[name] = {f"{key}_{stat}us": round(f(values), 2)
                        for key, values in samples.items()
                        for stat, f in (("", statistics.median), ("min_", min))}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
