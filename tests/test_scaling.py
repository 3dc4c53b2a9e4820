"""Bootstrap cost per link stays flat as the fabric grows.

Wall-clock, so it is kept out of the default run: ``pytest -m scaling``.
It gates on a ratio of per-link times, never on absolute times.
"""

import statistics
import time

import pytest

from icnsim.deploy import Deployment
from icnsim.topospec import generate_random

SMALL, LARGE = 240, 1920
REPEATS = 3
MAX_RATIO = 1.5


def per_link_ms(links):
    net = Deployment(generate_random(2 * links // 3, links, links // 3, 1))
    start = time.perf_counter()
    net.run_bootstrap()
    took = time.perf_counter() - start
    assert net.all_done()
    return took / links * 1000


@pytest.mark.scaling
def test_per_link_bootstrap_cost_is_flat():
    times = {SMALL: [], LARGE: []}
    for _ in range(REPEATS):  # alternate, so drift in machine speed hits both sizes
        for links in (SMALL, LARGE):
            times[links].append(per_link_ms(links))
    ratio = statistics.median(times[LARGE]) / statistics.median(times[SMALL])
    assert ratio <= MAX_RATIO, times
