"""Count tables, Catalan identities, truncated series, and the map probe."""

import math
from collections import defaultdict
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_data as ref
from growingtrees import enumeration
from growingtrees.enumeration import (
    CountTable,
    PolySeries,
    ProbeResult,
    _spread,
    catalan,
    catalan_column_check,
    cumulative_anchor_series,
    fixed_point_probe,
    iterate_p,
    mandelbrot,
    t_height_table,
    t_table,
)


def test_count_table_reference(table14):
    assert table14.entries == ref.ACTIVE_COUNTS_14
    assert table14.n_max == 14


def test_count_table_column_sums(table14):
    for n in range(1, 15):
        assert table14.column_sum(n) == ref.CATALAN[n]
    assert catalan_column_check(table14)


def test_count_table_max_k(table14):
    for n in range(1, 15):
        assert table14.max_k(n) == ref.A_PREFIX[n]
    assert table14.max_k(99) == 0


def test_count_table_small_values():
    table = t_table(4)
    assert table.entries == {
        (1, 1): 1, (2, 1): 2, (3, 1): 4, (3, 2): 1, (4, 1): 12, (4, 2): 2,
    }
    assert table.value(4, 2) == 2
    assert table.value(4, 3) == 0


def test_count_table_csv_layout():
    assert t_table(4).to_csv() == "n,1,2,3,4\n2,1,2,4,12\n4,,,1,2\n"


def test_count_table_guard():
    with pytest.raises(ValueError, match="at least 1"):
        t_table(0)


def test_height_table_reference():
    assert t_height_table(4).entries == ref.STEP4_COUNTS
    assert t_height_table(4).total() == 651
    assert t_height_table(3).entries == ref.STEP3_COUNTS


def test_height_table_base_cases():
    assert t_height_table(1).entries == {(1, 1): 1}
    assert t_height_table(2).entries == {(2, 1): 2, (3, 2): 1}
    with pytest.raises(ValueError, match="at least 1"):
        t_height_table(0)


def test_height_table_totals_count_trees_by_height():
    # B_h, the number of binary trees of height at most h, is the quadratic
    # map's iterate at z = 1: B_0 = 1, B_h = B_{h-1}^2 + 1.
    by_max_height = [1]
    for h in range(1, 10):
        by_max_height.append(by_max_height[-1] ** 2 + 1)
    assert tuple(by_max_height[:6]) == ref.TREES_BY_MAX_HEIGHT
    for h in range(1, 10):
        assert t_height_table(h).total() == by_max_height[h] - by_max_height[h - 1]


def test_height_table_csv_layout():
    assert t_height_table(2).to_csv() == "n,2,3\n2,2,\n4,,1\n"


def test_empty_table():
    # Height 3 needs at least 3 internal nodes, so a cap of 2 prunes every cell.
    empty = t_height_table(3, n_cap=2)
    assert empty.columns == {}
    assert empty.entries == {}
    assert empty.to_csv() == "n\n"
    assert empty.total() == 0
    assert empty.value(1, 1) == 0
    assert empty.max_k(1) == 0
    assert empty.n_max == 0


def test_height_table_cap_keeps_exact_cells():
    full = t_height_table(4)
    capped = t_height_table(4, n_cap=6)
    assert capped.entries == {c: v for c, v in full.entries.items() if c[0] <= 6}


def test_height_marginals_sum_to_count_table():
    # Summing the fixed-height tables over all heights recovers the
    # all-heights table, column by column.
    n_cap = 12
    summed = defaultdict(int)
    for h in range(1, n_cap + 1):
        for cell, v in t_height_table(h, n_cap=n_cap).entries.items():
            summed[cell] += v
    assert dict(summed) == t_table(n_cap).entries


def _spread_by_comb(n, column, target, n_cap):
    # The transfer by its defining formula: one binom(2k, j) * v per (cell, j).
    for k, v in enumerate(column, start=1):
        if not v:
            continue
        for j in range(1, 2 * k + 1):
            if n_cap is not None and n + j > n_cap:
                break
            cell = target.setdefault(n + j, [])
            if len(cell) < j:
                cell.extend([0] * (j - len(cell)))
            cell[j - 1] += comb(2 * k, j) * v


# Columns as the builders make them: zeros inside, a nonzero last value, and
# values from one bit to thousands of bits.
_values = st.one_of(st.just(0), st.integers(1, 1 << 64), st.integers(1 << 3000, 1 << 5000))
_columns = st.lists(_values, min_size=1, max_size=8).map(lambda c: c[:-1] + [c[-1] or 1])


@given(st.lists(_columns, min_size=1, max_size=4), st.one_of(st.none(), st.integers(0, 20)))
def test_packed_transfer_matches_the_binomial_formula(columns, n_cap):
    packed, by_comb = {}, {}
    for n, column in enumerate(columns, start=1):
        _spread(n, column, packed, n_cap)
        _spread_by_comb(n, column, by_comb, n_cap)
    assert packed == by_comb


def test_packed_transfer_at_every_cap_edge():
    n = 7
    for column in ([1], [0, 3], [5, 0, 0, 2], list(t_table(60).columns[60]), [1 << 4000, 0, 1 << 4000 | 1]):
        top = len(column)
        for edge in (0, 1, 2 * top - 1, 2 * top, 2 * top + 1):
            packed, by_comb = {}, {}
            _spread(n, column, packed, n + edge)
            _spread_by_comb(n, column, by_comb, n + edge)
            assert packed == by_comb, (column, edge)
            assert max(packed, default=n) == n + min(edge, 2 * top)


def test_tables_match_the_binomial_formula(monkeypatch):
    def builds():
        return ([t_table(n) for n in range(1, 81)]
                + [t_height_table(h, n_cap) for h in range(1, 9) for n_cap in (None, 3, 12, 40)])
    packed = builds()
    monkeypatch.setattr(enumeration, "_spread", _spread_by_comb)
    assert builds() == packed


def test_catalan_values():
    for n, c in enumerate(ref.CATALAN):
        assert catalan(n) == c
    with pytest.raises(ValueError, match="nonnegative"):
        catalan(-1)


def test_catalan_column_check_flags_excess(table14):
    inflated = CountTable({1: (5,)})
    assert not catalan_column_check(inflated)
    missing = dict(table14.columns)
    missing[9] = (missing[9][0], 0) + missing[9][2:]
    assert CountTable(missing).entries == {c: v for c, v in table14.entries.items() if c != (9, 2)}
    assert not catalan_column_check(CountTable(missing))


def test_polyseries_basics():
    a = PolySeries.of([1, 2, 3], 4)
    assert a.coeffs == (1, 2, 3, 0, 0)
    assert a.coeff(1) == 2
    assert a.coeff(9) == 0
    b = PolySeries.of([0, 1], 4)
    assert (a + b).coeffs == (1, 3, 3, 0, 0)
    assert (a - b).coeffs == (1, 1, 3, 0, 0)
    assert (a * b).coeffs == (0, 1, 2, 3, 0)
    assert a.scaled(2).coeffs == (2, 4, 6, 0, 0)
    assert a.shifted(2).coeffs == (0, 0, 1, 2, 3)
    assert a.shifted(0) == a
    # Shifts at or past the truncation order leave z^trunc or nothing.
    assert a.shifted(4).coeffs == (0, 0, 0, 0, 1)
    assert PolySeries.of([1, 2, 3], 3).shifted(5) == PolySeries.of([], 3)
    with pytest.raises(ValueError, match="shift must be nonnegative"):
        a.shifted(-1)
    assert not a.is_zero()
    assert PolySeries.of([], 2).is_zero()


def test_polyseries_truncation_discipline():
    # Products drop everything past the truncation order.
    z = PolySeries.of([0, 1], 2)
    cubed = z * z * z
    assert cubed.is_zero()
    with pytest.raises(ValueError, match="truncation orders differ"):
        PolySeries.of([1], 2) + PolySeries.of([1], 3)
    with pytest.raises(ValueError, match="length trunc"):
        PolySeries((1, 2), 3)


def test_height_iterate_examples():
    assert iterate_p(0, 4).coeffs == (1, 0, 0, 0, 0)
    assert iterate_p(1, 4).coeffs == (1, 1, 0, 0, 0)
    assert iterate_p(2, 4).coeffs == (1, 1, 2, 1, 0)
    assert mandelbrot(0, 4).coeffs == (0, 1, 0, 0, 0)
    assert mandelbrot(1, 4).coeffs == (0, 1, 1, 0, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        iterate_p(-1)


def test_height_iterate_stabilizes_to_catalan():
    series = iterate_p(16, trunc=16)
    for n in range(17):
        assert series.coeff(n) == ref.CATALAN[n]


def test_height_iterate_counts_trees_by_height():
    for h in range(6):
        total = sum(iterate_p(h, trunc=32).coeffs)
        assert total == ref.TREES_BY_MAX_HEIGHT[h]


def test_mandelbrot_recurrence():
    z = PolySeries.of([0, 1], 64)
    for h in range(11):
        assert mandelbrot(h + 1) == mandelbrot(h) * mandelbrot(h) + z


def test_growth_substitution_identity():
    # With T(x,z) = x + sum t_{n,2k} x^{2k} z^n, one growth step is the
    # substitution x -> 1 + z*x^2:  T(x,z) = x + T(1+z*x^2, z) - T(1, z).
    # Assembled here as exact bivariate polynomials modulo z^{N+1}.
    n_trunc = 10
    cells = t_table(n_trunc).entries
    acc: defaultdict[tuple[int, int], int] = defaultdict(int)

    def add(xdeg, zdeg, coeff):
        if zdeg <= n_trunc:
            acc[(xdeg, zdeg)] += coeff

    add(1, 0, 1)                      # T(x,z) seed term
    for (n, k), v in cells.items():   # T(x,z) cells
        add(2 * k, n, v)
    add(1, 0, -1)                     # -x
    add(0, 0, -1)                     # -T(1+z*x^2, z) seed term = -(1 + z*x^2)
    add(2, 1, -1)
    for (n, k), v in cells.items():
        for j in range(2 * k + 1):
            add(2 * j, n + j, -comb(2 * k, j) * v)
    add(0, 0, 1)                      # +T(1, z)
    for (n, k), v in cells.items():
        add(0, n, v)
    assert all(c == 0 for c in acc.values()), {c: v for c, v in acc.items() if v}


def test_cumulative_anchor_series(table14):
    series = cumulative_anchor_series(trunc=14)
    assert series.coeff(0) == 1
    assert series.coeff(1) == 2
    assert series.coeff(4) == 32
    for n in range(1, 15):
        weighted = sum(2 * k * v for (cn, k), v in table14.entries.items() if cn == n)
        assert series.coeff(n) == weighted
    with pytest.raises(ValueError, match="at least 1"):
        cumulative_anchor_series(0)


def test_probe_converges_below_critical():
    result = fixed_point_probe(0.2)
    assert result.converged and not result.diverged
    assert math.isclose(result.limit, (1 - math.sqrt(1 - 0.8)) / 0.4, rel_tol=1e-9)
    assert fixed_point_probe(0.0).limit == 1.0
    assert fixed_point_probe(0.24).converged


def test_probe_diverges_above_critical():
    result = fixed_point_probe(0.3)
    assert result.diverged
    assert result.limit is None
    assert fixed_point_probe(0.26).diverged


def test_probe_undecided_at_critical_budget():
    result = fixed_point_probe(0.25)
    assert result.status == "undecided"
    assert result.iterations == 100_000
    # A much larger budget resolves the slow passage through z = 1/4.
    assert fixed_point_probe(0.25, max_iters=10_000_000).converged


def test_probe_threshold_guard():
    with pytest.raises(ValueError, match="positive"):
        fixed_point_probe(0.1, max_iters=0)
    assert ProbeResult(status="diverged", iterations=3).diverged
