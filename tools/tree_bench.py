"""Tree-engine cost of the TM graph, in microseconds per operation.

On a bootstrapped fabric, two operations of ``TopologyGraph`` are timed:

- a data-tree build: ``_distances_to(dst)``, the in-tree towards one
  destination that a data FID is composed down, for every node;
- a flap: a REMOVE and then an ADD of one TM in-tree cable, for every
  in-tree link, each one link event through ``handle_link_event``.  A flap
  puts back the tree it found, so every repeat measures the same work.
  On a tree whose link events name one direction, each of these events
  still takes the cable out or puts it back, so ``--against`` such a tree
  compares the same path work.

A third figure times whole link transitions of the deployment: for every
TM in-tree link between two switches, ``Deployment.fail_link`` and then
``restore_link``, each followed by ``run_until_idle``.  Each transition
carries one link event of the cable and the TM's repair Updates and rule
changes.

Both fabric shapes of the benchmark's workloads are measured, with its
0.1 ms links: ``dataplane_unicast`` (``generate_random(24, 200, 32, s)``)
and ``link_churn`` (``generate_random(80, 160, 32, s)``).  Each fabric seed
is bootstrapped once and measured ``repeats`` times.  Run from the
repository root::

    PYTHONPATH=src python tools/tree_bench.py [--repeats 5] [--seeds 3] [--against DIR]

It prints one JSON line with, per shape, the median and the fastest
microseconds per build, per REMOVE, per ADD and per REMOVE/ADD pair over
``repeats`` samples of each of the fabric seeds 1 .. ``seeds``, and the
p50 and p90 microseconds of the transitions down and up over every
transition of every repeat and seed.

``--against DIR`` compares with a second icnsim tree, as
``tools/boot_bench.py`` does: DIR is its ``src`` directory (or the
``icnsim`` package in it), imported under another package name.  Each
graph sample of it is taken right after or right before this tree's,
alternating which goes first, and so is each link transition.  Both trees
must give the same graph dump after each sample, and the same graph dump
and switch tables (the text of ``FlowTable.snapshot()``) after each link
transition.  Per shape the line then also holds the other tree's figures,
the median and inclusive quartiles over the sample pairs of this tree's
time over the other's for build, REMOVE and ADD (``build_ratio``,
``build_ratio_q1``, ``build_ratio_q3``, ...), and this tree's transition
percentiles over the other's (``down_p50_ratio``, ...).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from types import ModuleType
from typing import Dict, List, Optional, Tuple

import icnsim
from data_bench import load_tree

SHAPES = {"dataplane_unicast": (24, 200, 32), "link_churn": (80, 160, 32)}
LINK_DELAY_MS = 0.1
OPS = ("build", "remove", "add")


def bootstrapped(tree: ModuleType, shape: Tuple[int, int, int], seed: int):
    net = tree.Deployment(tree.generate_random(*shape, seed, delay_ms=LINK_DELAY_MS))
    net.run_bootstrap()
    if not net.all_done():
        raise SystemExit(f"{tree.__name__}: fabric {shape} seed {seed} did not bootstrap")
    return net


def state(net) -> Tuple[str, Dict[str, str]]:
    """The graph dump and every switch's table, as text."""
    return net.graph.dump(), {name: repr(sw.table.snapshot()) for name, sw in net.switches.items()}


def sample(tree: ModuleType, g) -> Tuple[float, float, float]:
    """Microseconds per data-tree build, per REMOVE and per ADD, over the whole graph."""
    LinkEvent, Kind = tree.topology.LinkEvent, tree.topology.LinkEventKind
    dsts = sorted(g.nodes)
    edges = sorted(g._next.items())
    tree_before = (dict(g._dist), dict(g._next))
    gc.collect()
    start = time.perf_counter()
    for dst in dsts:
        g._distances_to(dst)
    built = time.perf_counter()
    removing = adding = 0.0
    for key in edges:
        delay_ms = g.links[key].delay_ms
        t0 = time.perf_counter()
        g.handle_link_event(LinkEvent(Kind.REMOVE, *key))
        t1 = time.perf_counter()
        g.handle_link_event(LinkEvent(Kind.ADD, *key, delay_ms))
        t2 = time.perf_counter()
        removing += t1 - t0
        adding += t2 - t1
    if (g._dist, g._next) != tree_before:
        raise SystemExit("a flap did not put the TM in-tree back")
    return ((built - start) / len(dsts) * 1e6, removing / len(edges) * 1e6,
            adding / len(edges) * 1e6)


def core_tree_links(net) -> List[Tuple[str, str]]:
    """The TM in-tree links between two switches, as (switch, next hop) names."""
    names = {nid: name for name, nid in net.controller.enabled.items()}
    return [(names[a], names[b]) for a, b in sorted(net.graph._next.items())
            if a in names and b in names]


def transition(net, change, link: Tuple[str, str]) -> float:
    """Microseconds of one link change and the run that settles it."""
    gc.collect()
    start = time.perf_counter()
    change(*link)
    net.run_until_idle()
    return (time.perf_counter() - start) * 1e6


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summary(samples: Dict[str, List[float]]) -> Dict[str, float]:
    row = {f"{key}_{stat}us": round(f(samples[key]), 2)
           for key in (*OPS, "pair") for stat, f in (("", statistics.median), ("min_", min))}
    for key in ("down", "up"):
        for q in (50, 90):
            row[f"{key}_p{q}_us"] = round(percentile(samples[key], q), 2)
    return row


def measure(trees: List[ModuleType], shape: Tuple[int, int, int], seeds: int,
            repeats: int) -> List[Dict[str, List[float]]]:
    """Per tree, the samples of every figure, the trees alternating sample by sample."""
    samples = [{key: [] for key in (*OPS, "pair", "down", "up")} for _ in trees]
    order = list(range(len(trees)))
    for seed in range(1, seeds + 1):
        nets = [bootstrapped(tree, shape, seed) for tree in trees]
        if any(state(net) != state(nets[0]) for net in nets):
            raise SystemExit(f"fabric {shape} seed {seed}: the trees bootstrap differently")
        for rep in range(repeats):
            for k in order if (rep + seed) % 2 else order[::-1]:
                build, remove, add = sample(trees[k], nets[k].graph)
                for key, us in zip((*OPS, "pair"), (build, remove, add, remove + add)):
                    samples[k][key].append(us)
            if any(net.graph.dump() != nets[0].graph.dump() for net in nets):
                raise SystemExit(f"fabric {shape} seed {seed}: the trees' graphs differ "
                                 "after a sample")
        links = core_tree_links(nets[0])
        for rep in range(repeats):
            for i, link in enumerate(links):
                for k in order if (rep + seed + i) % 2 else order[::-1]:
                    samples[k]["down"].append(transition(nets[k], nets[k].fail_link, link))
                    samples[k]["up"].append(transition(nets[k], nets[k].restore_link, link))
                if any(state(net) != state(nets[0]) for net in nets):
                    raise SystemExit(f"fabric {shape} seed {seed}: the trees differ after "
                                     f"the flap of {link}")
    return samples


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--against", metavar="DIR",
                        help="a second icnsim tree to alternate with, e.g. a parent's src/")
    args = parser.parse_args(argv)
    if min(args.repeats, args.seeds) < 1:
        parser.error("--repeats and --seeds must be at least 1")
    trees = [icnsim]
    if args.against:
        try:
            trees.append(load_tree(args.against, "icnsim_against"))
        except (FileNotFoundError, ImportError) as exc:
            parser.error(f"--against: {exc}")
    result: Dict[str, object] = {"repeats": args.repeats, "seeds": args.seeds}
    if args.against:
        result["against"] = args.against
    for name, shape in SHAPES.items():
        samples = measure(trees, shape, args.seeds, args.repeats)
        row: Dict[str, object] = summary(samples[0])
        if args.against:
            row["against"] = summary(samples[1])
            for key in OPS:
                q1, q2, q3 = quartiles([a / b for a, b in zip(samples[0][key], samples[1][key])])
                row.update({f"{key}_ratio": round(q2, 3), f"{key}_ratio_q1": round(q1, 3),
                            f"{key}_ratio_q3": round(q3, 3)})
            for key in ("down", "up"):
                for q in (50, 90):
                    row[f"{key}_p{q}_ratio"] = round(
                        percentile(samples[0][key], q) / percentile(samples[1][key], q), 3)
        result[name] = row
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
