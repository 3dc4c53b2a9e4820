"""Link-count sweep: topology formation time versus fabric size.

For each link count the harness generates seeded random switch fabrics,
bootstraps them end to end, and records the simulated formation time (last
bootstrap event) plus the wall-clock time the TM spent in resource
management.  Means are reported with stddev and a 99% confidence interval,
and a least-squares line is fitted to mean formation time versus links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import List, Tuple

import numpy as np
from scipy import stats

from .deploy import Deployment
from .topospec import generate_random


def switches_for_links(links: int) -> int:
    """Fabric size for a link budget: about two thirds tree, one third mesh.

    Small budgets are clamped so the complete graph can still hold them.
    """
    mesh_min = math.ceil((1 + math.sqrt(1 + 8 * links)) / 2)
    return max(mesh_min, 2 * links // 3 + 1)


@dataclass
class BenchRow:
    links: int
    repeats: int
    sim_ms: List[float] = field(default_factory=list)
    wall_ms: List[float] = field(default_factory=list)

    def stats(self, values: List[float]) -> Tuple[float, float, float]:
        arr = np.asarray(values, dtype=float)
        mean = float(arr.mean())
        if arr.size < 2:
            return mean, 0.0, 0.0
        std = float(arr.std(ddof=1))
        ci99 = float(stats.t.ppf(0.995, arr.size - 1) * std / np.sqrt(arr.size))
        return mean, std, ci99


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
    xs = np.array([row.links for row in rows], dtype=float)
    ys = np.array([row.stats(row.sim_ms)[0] for row in rows], dtype=float)
    if len(rows) >= 2:
        slope, intercept = np.polyfit(xs, ys, 1)
        predicted = slope * xs + intercept
        ss_res = float(((ys - predicted) ** 2).sum())
        ss_tot = float(((ys - ys.mean()) ** 2).sum())
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    else:
        slope, intercept, r2 = 0.0, float(ys[0]) if len(ys) else 0.0, 1.0
    return BenchResult(rows, float(slope), float(intercept), r2)
