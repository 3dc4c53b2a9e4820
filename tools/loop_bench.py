"""Raw event-loop throughput of ``icnsim.simnet.Simulator``, in ns per event.

Both schedules run the same number of events, packets x ``HOPS`` (4, a
typical data path); they differ in how many events share a timestamp and
how many are pending:

- dense: every packet starts at t=0 and every hop takes the same delay, so
  all packets' hops share each timestamp, as when a pass of data packets
  is injected at one instant (about 1,000 events pending);
- sparse: the same events run as two chains, one on even and one on odd
  timestamps, so no two events share a timestamp and about two are
  pending, as in a link transition.

Each event's handler schedules its chain's next event until the chain is
spent.  The time covers scheduling the first events and running the loop
until idle.  Run from the repository root::

    PYTHONPATH=src python tools/loop_bench.py [--packets 1000] [--repeats 15]

It prints one JSON line with the median and the fastest ns/event of each
schedule over the repeats.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import List, Optional

from icnsim.simnet import Simulator

HOPS = 4


def run_once(chains: int, length: int, stagger: int, delay: int) -> float:
    """ns per event for ``chains`` chains of ``length`` events each.

    Chain i starts at ``i * stagger``, and each of its events schedules the
    next one ``delay`` later.
    """
    sim = Simulator()
    schedule = sim.schedule

    def step(left: int) -> None:
        if left:
            schedule(delay, step, left - 1)

    start = time.perf_counter()
    for i in range(chains):
        schedule(i * stagger, step, length - 1)
    sim.run_until_idle()
    took = time.perf_counter() - start
    return took / (chains * length) * 1e9


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    if args.packets < 1 or args.repeats < 1:
        parser.error("--packets and --repeats must be at least 1")
    events = args.packets * HOPS
    schedules = {"dense": (args.packets, HOPS, 0, 10),
                 "sparse": (2, -(-events // 2), 1, 2)}
    result = {"packets": args.packets, "hops": HOPS, "repeats": args.repeats}
    for name, shape in schedules.items():
        run_once(*shape)  # warm-up
        runs = [run_once(*shape) for _ in range(args.repeats)]
        result[f"{name}_ns_per_event"] = round(statistics.median(runs), 1)
        result[f"{name}_min_ns_per_event"] = round(min(runs), 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
