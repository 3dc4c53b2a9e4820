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
        [--against DIR]

It prints one JSON line with, per shape and phase, the median and the
fastest microseconds per packet over ``repeats`` samples of each of the
fabric seeds 1 .. ``seeds``, and the origination's share of the median.
Per shape it also gives what the flow-table lookups of a pass look like,
counted in one untimed pass per seed: ``rules_per_lookup``, the mean size
of the table each lookup searched, and ``indexed_share``, the share of
lookups on tables of more than ``fabric.SCAN_MAX_RULES`` rules, which use
the table's anchor-bit index instead of a scan.

``--against DIR`` compares with a second icnsim tree, for example a
parent commit's checkout: DIR is its ``src`` directory (or the ``icnsim``
package in it).  That tree is imported under another package name, and
each of its samples is taken right after or right before the same
fabric's sample of this one, alternating which goes first.  The machine's
speed state moves runs in separate processes by up to 1.4 times, and
these pairs share it.  After each pair of passes both trees must have
consumed the same packets at the same hosts, counted the same drops at
each switch and hold the same switch tables (the text of
``FlowTable.snapshot()``), or the tool stops.  Per shape the line then
also holds the other tree's medians and the median and quartiles over the
pairs of this tree's time over the other's, for origination, for delivery
and for both (``inject_ratio``, ``inject_ratio_q1``, ``inject_ratio_q3``,
and so on for ``deliver`` and ``data``).
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import statistics
import sys
import time
from random import Random
from types import ModuleType
from typing import Dict, List, Optional, Tuple

import icnsim
from icnsim import deploy
from icnsim.fabric import SCAN_MAX_RULES

SHAPES = {"dataplane_unicast": (24, 200, 32), "link_churn": (80, 160, 32)}
LINK_DELAY_MS = 0.1


def load_tree(path: str, name: str) -> ModuleType:
    """Import the icnsim package under ``path`` as package ``name``."""
    package = os.path.join(path, "icnsim")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        package = path
    init = os.path.join(package, "__init__.py")
    if not os.path.isfile(init):
        raise FileNotFoundError(f"no icnsim package in {path!r}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def bootstrapped(tree: ModuleType, shape: Tuple[int, int, int], seed: int, packets: int):
    """A fresh bootstrapped fabric and the seeded (source, destination) host pairs of a pass."""
    net = tree.Deployment(tree.generate_random(*shape, seed, delay_ms=LINK_DELAY_MS))
    net.run_bootstrap()
    if not net.all_done():
        raise SystemExit(f"fabric {shape} seed {seed} did not bootstrap")
    traffic = Random(seed)
    hosts = sorted(net.hosts)
    return net, [tuple(traffic.sample(hosts, 2)) for _ in range(packets)]


def sample(tree: ModuleType, shape: Tuple[int, int, int], seed: int,
           packets: int) -> Tuple[float, float, tuple]:
    """Origination and delivery microseconds per packet of one pass on a fresh
    fabric, and the pass's end state: packets consumed, drops and tables per switch."""
    net, pairs = bootstrapped(tree, shape, seed, packets)
    inject = net.inject_data
    gc.collect()
    start = time.perf_counter()
    traces = [(inject(src, dst), dst) for src, dst in pairs]
    injected = time.perf_counter()
    net.run_until_idle()
    done = time.perf_counter()
    if not all(dst in net.consumed.get(trace, ()) for trace, dst in traces):
        raise SystemExit(f"fabric {shape} seed {seed}: a packet was not delivered")
    end_state = (net.consumed, {name: sw.drops for name, sw in net.switches.items()},
                 {name: repr(sw.table.snapshot()) for name, sw in net.switches.items()})
    return (injected - start) / packets * 1e6, (done - injected) / packets * 1e6, end_state


def lookup_sizes(shape: Tuple[int, int, int], seed: int, packets: int) -> List[int]:
    """The size of the table searched by each flow-table lookup of one untimed pass."""
    net, pairs = bootstrapped(icnsim, shape, seed, packets)
    sizes: List[int] = []
    forward = deploy.switch_forward

    def counted(table, packet):
        sizes.append(len(table))
        return forward(table, packet)

    # Switches call the deploy module's name; patching it leaves the
    # FlowTable class and its instances as the timed passes find them.
    deploy.switch_forward = counted
    try:
        for src, dst in pairs:
            net.inject_data(src, dst)
        net.run_until_idle()
    finally:
        deploy.switch_forward = forward
    return sizes


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(inject: List[float], deliver: List[float]) -> Dict[str, float]:
    med_i, med_d = statistics.median(inject), statistics.median(deliver)
    return {"inject_us_per_pkt": round(med_i, 2),
            "inject_min_us_per_pkt": round(min(inject), 2),
            "deliver_us_per_pkt": round(med_d, 2),
            "deliver_min_us_per_pkt": round(min(deliver), 2),
            "inject_share": round(med_i / (med_i + med_d), 3)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--against", metavar="DIR",
                        help="a second icnsim tree to alternate with, e.g. a parent's src/")
    args = parser.parse_args(argv)
    if min(args.packets, args.repeats, args.seeds) < 1:
        parser.error("--packets, --repeats and --seeds must be at least 1")
    trees = [icnsim]
    if args.against:
        try:
            trees.append(load_tree(args.against, "icnsim_against"))
        except (FileNotFoundError, ImportError) as exc:
            parser.error(f"--against: {exc}")
    result: Dict[str, object] = {"packets": args.packets, "repeats": args.repeats,
                                 "seeds": args.seeds}
    if args.against:
        result["against"] = args.against
    for name, shape in SHAPES.items():
        times: List[List[Tuple[float, float]]] = [[] for _ in trees]
        order = list(range(len(trees)))
        for rep in range(args.repeats):
            for seed in range(1, args.seeds + 1):
                end_states = []
                for k in order if (rep + seed) % 2 else order[::-1]:
                    *took, end_state = sample(trees[k], shape, seed, args.packets)
                    times[k].append(took)
                    end_states.append(end_state)
                if any(end_state != end_states[0] for end_state in end_states):
                    raise SystemExit(f"fabric {shape} seed {seed}: the trees forwarded differently "
                                     "(consumed packets, switch drops or tables differ)")
        row: Dict[str, object] = summary(*zip(*times[0]))
        sizes = [size for seed in range(1, args.seeds + 1)
                 for size in lookup_sizes(shape, seed, args.packets)]
        row["rules_per_lookup"] = round(statistics.mean(sizes), 2)
        row["indexed_share"] = round(sum(size > SCAN_MAX_RULES for size in sizes) / len(sizes), 3)
        if args.against:
            row["against"] = summary(*zip(*times[1]))
            pairs = list(zip(times[0], times[1]))
            for key, ratios in (("inject", [a[0] / b[0] for a, b in pairs]),
                                ("deliver", [a[1] / b[1] for a, b in pairs]),
                                ("data", [sum(a) / sum(b) for a, b in pairs])):
                q1, q2, q3 = quartiles(ratios)
                row.update({f"{key}_ratio": round(q2, 3), f"{key}_ratio_q1": round(q1, 3),
                            f"{key}_ratio_q3": round(q3, 3)})
        result[name] = row
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
