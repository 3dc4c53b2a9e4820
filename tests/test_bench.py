"""The formation-time sweep's statistics, computed with the standard library."""

import pytest

from icnsim.bench import BenchRow, t_quantile

# SciPy's stats.t.ppf(0.995, nu): the reference the interval was first computed with.
T_995 = {1: 63.656741162871526, 2: 9.924843200918287, 3: 5.840909309733355,
         4: 4.604094871349992, 9: 3.249835541592126, 19: 2.8609346064649794,
         29: 2.756385903670605, 99: 2.626405457280827}


@pytest.mark.parametrize("nu", sorted(T_995))
def test_t_quantile_matches_reference(nu):
    assert t_quantile(0.995, nu) == pytest.approx(T_995[nu], rel=1e-9)


def test_row_stats_mean_std_and_interval():
    row = BenchRow(10, 3)
    mean, std, ci99 = row.stats([1.0, 2.0, 3.0])
    assert (mean, std) == (2.0, 1.0)
    assert ci99 == pytest.approx(T_995[2] / 3 ** 0.5, rel=1e-9)
