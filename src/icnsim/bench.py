"""Link-count sweep: topology formation time versus fabric size.

For each link count the harness generates seeded random switch fabrics,
bootstraps them end to end, and records the simulated formation time (last
bootstrap event) plus the wall-clock time the TM spent in resource
management.  Means are reported with stddev and a 99% confidence interval,
and a least-squares line is fitted to mean formation time versus links.

The interval's half-width is t * stddev / sqrt(n), where t is the Student-t
0.995 quantile for n - 1 degrees of freedom.  For integer degrees of freedom
the probability P(|T| <= t) has a closed form in theta = atan(t / sqrt(nu))
(Abramowitz & Stegun 26.7.3-26.7.4), which is increasing in theta, so t is
found by bisection on theta until the interval stops shrinking.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from random import Random
from typing import List, Tuple

from .deploy import Deployment
from .topospec import generate_random


def switches_for_links(links: int) -> int:
    """Fabric size for a link budget: about two thirds tree, one third mesh.

    Small budgets are clamped so the complete graph can still hold them.
    """
    mesh_min = math.ceil((1 + math.sqrt(1 + 8 * links)) / 2)
    return max(mesh_min, 2 * links // 3 + 1)


def _t_central(theta: float, nu: int) -> float:
    """P(|T| <= sqrt(nu) * tan(theta)) for Student's t with integer ``nu``."""
    cos = math.cos(theta)
    odd = nu % 2
    # The series in cos(theta): powers 1, 3, .., nu-2 (odd nu), or
    # 0, 2, .., nu-2 (even nu); each term is the last times cos^2 (p+1)/(p+2).
    term, total = (cos if odd else 1.0), 0.0
    for power in range(odd, nu - 1, 2):
        total += term
        term *= cos * cos * (power + 1) / (power + 2)
    series = math.sin(theta) * total
    return 2 / math.pi * (theta + series) if odd else series


def t_quantile(q: float, nu: int) -> float:
    """The Student-t ``q`` quantile, 0.5 < q < 1, for integer ``nu`` >= 1."""
    central = 2 * q - 1
    lo, hi = 0.0, math.pi / 2
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return math.sqrt(nu) * math.tan(mid)
        if _t_central(mid, nu) < central:
            lo = mid
        else:
            hi = mid


@dataclass
class BenchRow:
    links: int
    repeats: int
    sim_ms: List[float] = field(default_factory=list)
    wall_ms: List[float] = field(default_factory=list)

    def stats(self, values: List[float]) -> Tuple[float, float, float]:
        mean = statistics.fmean(values)
        n = len(values)
        if n < 2:
            return mean, 0.0, 0.0
        std = statistics.stdev(values)
        return mean, std, t_quantile(0.995, n - 1) * std / math.sqrt(n)


@dataclass
class BenchResult:
    rows: List[BenchRow]
    slope_ms_per_link: float
    intercept_ms: float
    r_squared: float

    def to_csv(self) -> str:
        lines = ["links,repeats,sim_mean_ms,sim_std_ms,sim_ci99_ms,"
                 "wall_mean_ms,wall_std_ms,wall_ci99_ms"]
        for row in self.rows:
            sim = row.stats(row.sim_ms)
            wall = row.stats(row.wall_ms)
            lines.append("%d,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f"
                         % (row.links, row.repeats, *sim, *wall))
        lines.append("# fit: slope_ms_per_link=%.3f intercept_ms=%.3f r2=%.6f"
                     % (self.slope_ms_per_link, self.intercept_ms, self.r_squared))
        return "\n".join(lines) + "\n"


def run_sweep(links_lo: int, links_hi: int, step: int, repeats: int, seed: int) -> BenchResult:
    if links_lo < 1 or step <= 0 or repeats < 1:
        raise ValueError("need links_lo >= 1, step > 0, repeats >= 1")
    rows = [BenchRow(links, repeats) for links in range(links_lo, links_hi + 1, step)]
    # Repeats outermost: every link count samples the same stretch of
    # machine time, so drift between speed states does not enter the ratios.
    for rep in range(repeats):
        for row in rows:
            links = row.links
            sub_seed = Random(f"{seed}:bench:{links}:{rep}").getrandbits(63)
            spec = generate_random(switches_for_links(links), links, 0, sub_seed)
            net = Deployment(spec)
            report = net.run_bootstrap()
            if not net.all_done():
                raise RuntimeError(f"bench run links={links} rep={rep} did not converge")
            row.sim_ms.append(report.end_us / 1000)
            row.wall_ms.append(net.tm.wall_alloc_s * 1000)
    xs = [float(row.links) for row in rows]
    ys = [row.stats(row.sim_ms)[0] for row in rows]
    if len(rows) < 2:
        return BenchResult(rows, 0.0, ys[0] if ys else 0.0, 1.0)
    slope, intercept = statistics.linear_regression(xs, ys)
    mean_y = statistics.fmean(ys)
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return BenchResult(rows, slope, intercept, r2)
