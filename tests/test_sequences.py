"""Boundary sequences, cell-set geometry, and the scaling-limit diagnostic."""

import math

import pytest

import reference_data as ref
from growingtrees.enumeration import t_height_table
from growingtrees.sequences import (
    CellSet,
    a_gf_check,
    a_hat_seq,
    a_seq,
    a_seq_meta,
    b_formula,
    b_seq,
    gamma,
    lambda_upper,
    psi_image,
    ruler,
    s_area_formula,
    s_domain,
    scaling_limit_deviation,
)


def test_a_prefix():
    assert tuple(a_seq(27)) == ref.A_PREFIX
    assert tuple(a_seq_meta(27)) == ref.A_PREFIX


def test_a_recurrence_routes_agree():
    assert a_seq(5000) == a_seq_meta(5000)


def test_a_increments_are_zero_or_one():
    vals = a_seq(5000)
    assert all(vals[n] - vals[n - 1] in (0, 1) for n in range(2, 5001))


def test_b_prefix():
    assert tuple(b_seq(16)) == ref.B_PREFIX


def test_b_matches_closed_form():
    counts = b_seq(4096)
    for n in range(1, 4097):
        assert counts[n] == b_formula(n)


def test_b_bisection_identities():
    counts = b_seq(2048)
    assert counts[1] == 2
    for n in range(1, 1024):
        assert counts[2 * n] == counts[n] + 1
        assert counts[2 * n + 1] == 1


def test_ruler_prefix():
    for n in range(1, 9):
        assert ruler(n) == ref.RULER_PREFIX[n]


def test_ruler_prefix_sum_closed_form():
    # sum_{i=1}^{2^h - 1} b_hat_i = 2^{h+1} - (h + 2).
    total = 0
    boundary = 2
    h = 1
    for i in range(1, (1 << 20)):
        total += ruler(i)
        if i == boundary - 1:
            assert total == (1 << (h + 1)) - (h + 2)
            boundary <<= 1
            h += 1


def test_a_hat_prefix():
    assert tuple(a_hat_seq(12)) == ref.A_HAT_PREFIX


def test_a_hat_inverts_ruler_repetitions():
    # b_hat_n counts how often n occurs in the a_hat sequence.
    n_max = 10_000
    vals = a_hat_seq(2 * n_max + 64)
    assert vals[-1] > n_max
    occurrences = [0] * (n_max + 2)
    for v in vals[1:]:
        if v <= n_max:
            occurrences[v] += 1
    for n in range(1, n_max + 1):
        assert occurrences[n] == ruler(n)


def test_a_hat_shifted_nested_recurrence():
    # r_0 = r_1 = r_2 = 1 and r_n = r_{n-r_{n-1}} + r_{n-1-r_{n-2}} gives
    # the a_hat sequence shifted by one: r_{n+1} = a_hat_n.
    n_max = 4000
    hats = a_hat_seq(n_max)
    r = [1, 1, 1]
    for n in range(3, n_max + 2):
        r.append(r[n - r[n - 1]] + r[n - 1 - r[n - 2]])
    for n in range(1, n_max + 1):
        assert r[n + 1] == hats[n]


def test_a_generating_function():
    assert a_gf_check(128)
    with pytest.raises(ValueError, match="at least 1"):
        a_gf_check(0)


def test_sequence_guards():
    for fn in (a_seq, a_seq_meta, b_seq, a_hat_seq):
        with pytest.raises(ValueError, match="at least 1"):
            fn(0)
    for fn in (b_formula, ruler):
        with pytest.raises(ValueError, match="at least 1"):
            fn(0)


def test_cellset_interface():
    cells = CellSet(columns={3: (1, 2), 4: (2, 2)}, h=9)
    assert (3, 1) in cells and (3, 2) in cells and (4, 2) in cells
    assert (3, 3) not in cells and (5, 1) not in cells
    assert len(cells) == 3
    assert list(cells) == [(3, 1), (3, 2), (4, 2)]
    assert cells.cells() == {(3, 1), (3, 2), (4, 2)}
    rebuilt = CellSet.from_cells([(4, 2), (3, 2), (3, 1)], h=9)
    assert rebuilt == cells


def test_cellset_rejects_gappy_columns():
    with pytest.raises(ValueError, match="contiguous"):
        CellSet.from_cells([(3, 1), (3, 3)], h=2)


def test_gamma_examples():
    assert gamma(1).cells() == {(1, 1)}
    assert gamma(2).cells() == {(2, 1), (3, 2)}
    assert gamma(3).cells() == {(4, 1), (5, 2), (6, 3), (7, 4)}
    with pytest.raises(ValueError, match="at least 1"):
        gamma(0)


def test_lambda_examples():
    assert tuple(sorted(lambda_upper(3))) == ref.LAMBDA_3
    assert tuple(sorted(lambda_upper(4))) == ref.LAMBDA_4
    with pytest.raises(ValueError, match="at least 1"):
        lambda_upper(0)


def test_lambda_cardinality():
    for h in range(1, 13):
        assert len(lambda_upper(h)) == (1 << h) - h


def test_lambda_self_similar_decomposition():
    # Lambda_{h+1} is Lambda_h shifted by (1,0), a flat bridge at height
    # 2^{h-1}, and Lambda_h shifted by (2^h, 2^{h-1}).
    for h in range(1, 11):
        low = {(n + 1, k) for n, k in lambda_upper(h)}
        bridge = {((1 << h) + i, 1 << (h - 1)) for i in range(1, h)}
        high = {(n + (1 << h), k + (1 << (h - 1))) for n, k in lambda_upper(h)}
        assert low | bridge | high == lambda_upper(h + 1).cells()
        assert not (low & high)


def test_s_domain_small():
    assert s_domain(1).cells() == {(1, 1)}
    assert s_domain(2).cells() == {(2, 1), (3, 2)}
    assert s_domain(3).cells() == {(3, 1), (4, 1), (4, 2), (5, 2), (6, 3), (7, 4)}
    with pytest.raises(ValueError, match="at least 1"):
        s_domain(0)


def test_s_domain_matches_height_table_support():
    for h in range(1, 8):
        assert s_domain(h).cells() == set(t_height_table(h).entries)


def test_s_domain_cardinality_formula():
    assert s_area_formula(1) == 1
    for h in range(1, 13):
        assert len(s_domain(h)) == s_area_formula(h)
    with pytest.raises(ValueError, match="at least 1"):
        s_area_formula(0)


def test_s_domain_cell_bounds():
    for h in range(1, 9):
        for n, k in s_domain(h):
            assert h <= n - k + 1 <= 1 << (h - 1)


def _right_boundary(cells):
    return {(n, k) for n, k in cells if (n + 1, k) not in cells}


def _upper_boundary(cells):
    return {(n, k) for n, k in cells if (n, k + 1) not in cells}


def test_boundary_formulas_match_extraction():
    for h in range(1, 11):
        region = s_domain(h).cells()
        assert _right_boundary(region) == gamma(h).cells()
        assert _upper_boundary(region) == lambda_upper(h).cells()


def test_psi_image_single_step():
    upper3 = {n: hi for n, (_, hi) in s_domain(3).columns.items()}
    assert psi_image(upper3, 3) == s_domain(4).columns
    with pytest.raises(AssertionError, match="empty column"):
        psi_image({}, 1)


def test_upper_boundary_hugs_half_slope_line():
    # Normalized by 2^{h-1}, the upper boundary stays within
    # 2(h+2)/2^h of the line Y = X/2 in perpendicular distance.
    for h in range(2, 15):
        scale = 1 << (h - 1)
        band = 2 * (h + 2) / (1 << h)
        for n, k in lambda_upper(h):
            dist = abs(n - 2 * k) / (scale * math.sqrt(5))
            assert dist <= band


def test_scaling_deviation_pins():
    for h, pinned in ref.SCALING_DEV_PINS.items():
        assert scaling_limit_deviation(h) == pytest.approx(pinned, rel=2e-3)


def test_scaling_deviation_shrinks():
    assert scaling_limit_deviation(12) < scaling_limit_deviation(4)
    with pytest.raises(ValueError, match="at least 2"):
        scaling_limit_deviation(1)
