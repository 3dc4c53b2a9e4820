"""Bootstrap cost of ``icnsim`` against fabric size.

For each link count L, a sample builds a fresh deployment of
``generate_random(2L/3, L, L/3, 1)`` and times ``Deployment.run_bootstrap``
alone, as the benchmark's ``bootstrap_s`` does.  Run from the repository
root::

    PYTHONPATH=src python tools/boot_bench.py [--links 240,960,1920,7680] [--repeats 5]
        [--against DIR]

It prints one JSON line with, per link count:

- ``us_per_link``: the median bootstrap wall time over ``repeats``
  samples, in microseconds per link, and the fastest (``us_per_link_min``);
- ``events`` and ``events_per_s``: every event that a registered handler
  runs during the bootstrap, control events and fabric hops alike, counted
  in an untimed bootstrap, over the median time.  The count wraps each
  handler as ``Simulator.register`` receives it, which works the same on
  any icnsim tree, so it means the same for both trees of ``--against``;
- ``peak_kib_per_link``: the tracemalloc peak of building the deployment
  and bootstrapping it, in a second untimed bootstrap, per link;
- ``retained_kib_per_link``: what that bootstrap still holds once it is
  done (tracemalloc's current size, with the deployment alive), per link.

``--against DIR`` compares with a second icnsim tree, as
``tools/data_bench.py`` does: DIR is its ``src`` directory (or the
``icnsim`` package in it), imported under another package name.  Each of
its samples is taken right after or right before this tree's, alternating
which goes first.  Both trees must give the same graph dump, final node
states and switch tables (the text of ``FlowTable.snapshot()``), or the
tool stops.  Per link count the line then also holds the other tree's
figures, the median and quartiles over the pairs of this tree's time over
the other's (``ratio``, ``ratio_q1``, ``ratio_q3``), and
``report_times_differ``: whether the bootstrap reports differ, which with
equal end states means in simulated times only (a change that moves the
TM's service timing, say).  When they do, ``report_first_difference``
holds the first differing report line of this tree and of the other.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import tracemalloc
from itertools import zip_longest
from types import ModuleType
from typing import Dict, List, Optional, Tuple

import icnsim
from data_bench import load_tree

DEFAULT_LINKS = "240,960,1920,7680"


def fabric(tree: ModuleType, links: int):
    return tree.generate_random(2 * links // 3, links, links // 3, 1)


def timed(tree: ModuleType, spec) -> float:
    """Wall seconds of one bootstrap of a fresh deployment."""
    net = tree.Deployment(spec)
    gc.collect()
    start = time.perf_counter()
    net.run_bootstrap()
    took = time.perf_counter() - start
    if not net.all_done():
        raise SystemExit(f"{tree.__name__}: a fabric of {len(spec.links)} cables did not bootstrap")
    return took


def untimed(tree: ModuleType, spec) -> Tuple[int, int, int, tuple, str]:
    """Events run, tracemalloc peak and retained bytes, the end state of
    bootstrap (graph dump, final node states and switch tables), and its report.

    Events are counted in a bootstrap of their own, which keeps the
    counting wrappers out of the memory figures.
    """
    simulator = tree.simnet.Simulator
    register = simulator.__dict__["register"]
    events = 0

    def counting(sim, target, handler):
        def counted(event):
            nonlocal events
            events += 1
            handler(event)
        register(sim, target, counted)

    simulator.register = counting
    try:
        tree.Deployment(spec).run_bootstrap()
    finally:
        simulator.register = register
    gc.collect()
    gc.disable()  # so that when a collection runs moves neither figure
    tracemalloc.start()
    try:
        net = tree.Deployment(spec)
        net.run_bootstrap()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    tables = {name: repr(sw.table.snapshot()) for name, sw in net.switches.items()}
    report = net.report()
    return events, peak, retained, (net.graph.dump(), report.final_states, tables), report.to_text()


def first_difference(text: str, other: str) -> Optional[List[str]]:
    """The first line at which two texts differ, from each ("" past its end), or None."""
    pairs = zip_longest(text.splitlines(), other.splitlines(), fillvalue="")
    return next(([line, other_line] for line, other_line in pairs if line != other_line), None)


def summary(links: int, times: List[float], events: int, peak: int,
            retained: int) -> Dict[str, float]:
    median = statistics.median(times)
    return {"us_per_link": round(median / links * 1e6, 2),
            "us_per_link_min": round(min(times) / links * 1e6, 2),
            "events": events,
            "events_per_s": round(events / median),
            "peak_kib_per_link": round(peak / links / 1024, 2),
            "retained_kib_per_link": round(retained / links / 1024, 2)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--links", default=DEFAULT_LINKS,
                        help=f"comma-separated link counts, 6 or at least 8 (default {DEFAULT_LINKS})")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--against", metavar="DIR",
                        help="a second icnsim tree to alternate with, e.g. a parent's src/")
    args = parser.parse_args(argv)
    try:
        sizes = [int(part) for part in args.links.split(",")]
    except ValueError:
        parser.error(f"--links: not a list of integers: {args.links!r}")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    trees = [icnsim]
    if args.against:
        try:
            trees.append(load_tree(args.against, "icnsim_against"))
        except (FileNotFoundError, ImportError) as exc:
            parser.error(f"--against: {exc}")
    try:
        fabrics = {links: [fabric(tree, links) for tree in trees] for links in sizes}
    except icnsim.topospec.SpecError as exc:  # too few links for 2L/3 switches, say
        parser.error(f"--links: {exc}")
    for tree in trees:  # first-use allocations, such as the codec's layouts, stay out of the peaks
        tree.Deployment(fabric(tree, 6)).run_bootstrap()
    result: Dict[str, object] = {"links": sizes, "repeats": args.repeats}
    if args.against:
        result["against"] = args.against
    for links, specs in fabrics.items():
        passes = [untimed(tree, spec) for tree, spec in zip(trees, specs)]
        if any(end_state != passes[0][3] for *_, end_state, _ in passes):
            raise SystemExit(f"{links} links: the trees bootstrap to different graphs, "
                             "final node states or tables")
        times: List[List[float]] = [[] for _ in trees]
        order = list(range(len(trees)))
        for rep in range(args.repeats):
            for k in order if rep % 2 else order[::-1]:
                times[k].append(timed(trees[k], specs[k]))
        row: Dict[str, object] = summary(links, times[0], *passes[0][:3])
        if args.against:
            row["against"] = summary(links, times[1], *passes[1][:3])
            ratios = [a / b for a, b in zip(times[0], times[1])]
            q1, _, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                         if len(ratios) > 1 else ratios * 3)
            row.update(ratio=round(statistics.median(ratios), 3),
                       ratio_q1=round(q1, 3), ratio_q3=round(q3, 3))
            difference = first_difference(passes[0][4], passes[1][4])
            row["report_times_differ"] = difference is not None
            if difference is not None:
                row["report_first_difference"] = difference
        result[str(links)] = row
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
