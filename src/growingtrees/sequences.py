"""Boundary sequences and the geometry of the nonzero cells.

Two intertwined integer sequences describe the reach of the count tables.
The first,

    a_n = max{k : t_{n,2k} > 0},

is the largest number of anchor pairs an active tree with n internal nodes
can carry. It satisfies the inner recurrence a_n = max{k : k <= 2*a_{n-k}}
with a_1 = 1, climbs by 0 or 1, and also obeys the nested (meta-Fibonacci)
recurrence a_n = a_{n-1-a_{n-1}} + a_{n-2-a_{n-2}} with a_0 = a_1 = a_2 = 1.
Its repetition counts b_n = #{k : a_k = n} follow the 2-adic valuation:
b_n = p + 2 if n = 2^p, else p + 1 where p = v_2(n). The generating function
z * sum_{n>=0} prod_{i=1..n} (z + z^{2^i}) reproduces a_n as its z^n
coefficient for n >= 1. Asymptotically a_n / n -> 1/2.

At a fixed height h the nonzero cells S_h = {(n,k) : t_{n,2k,h} != 0} form a
staircase-shaped region, reachable by iterating the one-step image

    psi(n,k) = {(n+i, i) : 1 <= i <= 2k}

of the upper boundary, starting from S_1 = {(1,1)}. Its right boundary is
the exact diagonal Gamma_h = {(2^{h-1}-1+i, i) : 1 <= i <= 2^{h-1}}; its
upper boundary Lambda_h = {(n, a_hat_{n-h+1}) : h <= n <= 2^h-1} is carved
by the ruler-function companion pair

    b_hat_n = v_2(n) + 1,     a_hat_n = min{k : sum_{i<=k} b_hat_i >= n},

and has cardinality 2^h - h. The cell count is |S_h| = 2^{h-2}(2^{h-1}-h+2)
for h >= 2. Normalized by 2^{h-1}, the region fills the triangle with
vertices (0,0), (1,0), (2,1); scaling_limit_deviation measures the distance
to that limit shape.

Cells are stored per column as contiguous k-intervals (the column sections
of every S_h are intervals), which keeps the psi-iteration and the scaling
diagnostic at O(2^h) time and memory even where the cell count is tens of
millions.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from ._record import Record


# ---------------------------------------------------------------------------
# The sequence a_n and its repetition counts b_n
# ---------------------------------------------------------------------------

def _a_values() -> Iterator[int]:
    """a_1, a_2, ... without end, by the inner recurrence a_n = max{k : k <= 2*a_{n-k}}.

    The scan for the maximal k starts at a_{n-1} + 1 and walks down; the
    feasible set {k : k <= 2*a_{n-k}} is downward closed because a is
    nondecreasing, and the total walk length stays linear in n.
    """
    vals = [1, 1]
    yield 1
    for n in itertools.count(2):
        k = min(vals[n - 1] + 1, n - 1)
        while k > 2 * vals[n - k]:
            k -= 1
        vals.append(k)
        yield k


def a_seq(n_max: int) -> list[int]:
    """Values a_0..a_n_max; index 0 carries the generating-function convention a_0 = 1."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return [1, *itertools.islice(_a_values(), n_max)]


def a_seq_meta(n_max: int) -> list[int]:
    """Values a_0..a_n_max by the nested recurrence a_n = a_{n-1-a_{n-1}} + a_{n-2-a_{n-2}}."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    vals = [1, 1, 1]
    for n in range(3, n_max + 1):
        vals.append(vals[n - 1 - vals[n - 1]] + vals[n - 2 - vals[n - 2]])
    return vals[: n_max + 1]


def b_seq(n_max: int) -> list[int]:
    """Repetition counts b_1..b_n_max of a_n, with b[0] = 0 padding.

    b_n counts how many times the value n occurs in the a sequence; a climbs
    by 0 or 1, so the count stops at the first value above n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    counts = [0] * (n_max + 1)
    for a in itertools.takewhile(lambda a: a <= n_max, _a_values()):
        counts[a] += 1
    return counts


def b_formula(n: int) -> int:
    """Closed form of b_n = v_2(n) + 1 (the ruler function), plus 1 when n is a power of 2."""
    return ruler(n) + (n & (n - 1) == 0)


def a_gf_check(trunc: int) -> bool:
    """Check a_n against the product generating function up to order trunc.

    The series z * sum_{n>=0} prod_{i=1}^{n} (z + z^{2^i}) has z^n
    coefficient a_n for every n >= 1 (the z^0 coefficient of the series is 0
    and lies outside the identity; a_0 = 1 is a convention of the
    recurrences, not of this series). The n-th product has valuation n, so
    terms beyond n = trunc cannot contribute.
    """
    from .enumeration import PolySeries

    if trunc < 1:
        raise ValueError("trunc must be at least 1")
    total = PolySeries.of([], trunc)
    product = PolySeries.of([1], trunc)
    i = 0
    while not product.is_zero():
        total = total + product.shifted(1)
        i += 1
        factor_coeffs = [0] * (trunc + 1)
        factor_coeffs[1] = 1
        if (1 << i) <= trunc:
            factor_coeffs[1 << i] += 1
        # Sparse factor on the left: multiplication skips zero coefficients
        # of the left operand, and the factor has only two terms.
        product = PolySeries.of(factor_coeffs, trunc) * product
    expected = a_seq(trunc)
    return all(total.coeff(n) == expected[n] for n in range(1, trunc + 1))


# ---------------------------------------------------------------------------
# The ruler function b_hat and its companion a_hat
# ---------------------------------------------------------------------------

def ruler(n: int) -> int:
    """b_hat_n = v_2(n) + 1: the ruler function, the exponent pattern of 2."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return (n & -n).bit_length()


def a_hat_seq(n_max: int) -> list[int]:
    """Values a_hat_1..a_hat_n_max, with a_hat[0] = 0 padding.

    a_hat_n = min{k : sum_{i<=k} b_hat_i >= n}, the repetition-inverse of the
    ruler function; computed with a single forward walk over the prefix sums.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    vals = [0]
    k = 0
    prefix = 0
    for n in range(1, n_max + 1):
        while prefix < n:
            k += 1
            prefix += ruler(k)
        vals.append(k)
    return vals


# ---------------------------------------------------------------------------
# Cell sets
# ---------------------------------------------------------------------------

class CellSet(Record):
    """A set of (n, k) cells whose columns are contiguous k-intervals.

    columns maps n to the inclusive interval (k_min, k_max). All the cell
    families here (S_h, Gamma_h, Lambda_h) have interval columns, which
    keeps huge instances (|S_14| is about 3.4e7 cells) representable.
    """

    __slots__ = ("columns", "h")
    columns: dict[int, tuple[int, int]]
    h: int

    def __contains__(self, cell: tuple[int, int]) -> bool:
        n, k = cell
        interval = self.columns.get(n)
        return interval is not None and interval[0] <= k <= interval[1]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for n in sorted(self.columns):
            lo, hi = self.columns[n]
            for k in range(lo, hi + 1):
                yield (n, k)

    def __len__(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.columns.values())

    def cells(self) -> set[tuple[int, int]]:
        """Materialize as a plain set; only sensible for small instances."""
        return set(iter(self))

    @classmethod
    def from_cells(cls, cells, h: int) -> "CellSet":
        """Build from explicit cells, which must have contiguous columns."""
        by_n: dict[int, list[int]] = {}
        for n, k in cells:
            by_n.setdefault(n, []).append(k)
        columns = {}
        for n, ks in by_n.items():
            ks.sort()
            if ks[-1] - ks[0] + 1 != len(set(ks)):
                raise ValueError(f"column {n} is not a contiguous interval")
            columns[n] = (ks[0], ks[-1])
        return cls(columns=columns, h=h)


def gamma(h: int) -> CellSet:
    """Right boundary Gamma_h: the diagonal n - k = 2^{h-1} - 1, k = 1..2^{h-1}."""
    if h < 1:
        raise ValueError("h must be at least 1")
    base = 1 << (h - 1)
    return CellSet(columns={base - 1 + i: (i, i) for i in range(1, base + 1)}, h=h)


def lambda_upper(h: int) -> CellSet:
    """Upper boundary Lambda_h = {(n, a_hat_{n-h+1}) : h <= n <= 2^h - 1}.

    Cardinality 2^h - h. The index n-h+1 is the one consistent with the
    bound k <= n - h + 1 and with the brute-force boundaries of the height
    tables; see the package notes on the companion sequence conventions.
    """
    if h < 1:
        raise ValueError("h must be at least 1")
    top = (1 << h) - 1
    a_hat = a_hat_seq(top - h + 1)
    return CellSet(columns={n: (a_hat[n - h + 1], a_hat[n - h + 1]) for n in range(h, top + 1)}, h=h)


def psi_image(upper: dict[int, int], h: int) -> dict[int, tuple[int, int]]:
    """One psi step: columns of the union of psi(n,k) over an upper boundary.

    upper maps n to the top k of column n of S_h, for n = h..2^h-1. The
    image's column n' collects i with 1 <= i <= 2*upper[n'-i]; the feasible i
    form an interval because upper is nondecreasing, so a single ascending
    two-pointer sweep produces all columns of S_{h+1} in O(2^h).
    """
    top_next = (1 << (h + 1)) - 1
    source_hi = (1 << h) - 1
    columns: dict[int, tuple[int, int]] = {}
    i_star = 0
    for n2 in range(h + 1, top_next + 1):
        while True:
            cand = i_star + 1
            src = n2 - cand
            if src < h or cand > 2 * upper.get(src, 0):
                break
            i_star = cand
        k_min = max(1, n2 - source_hi)
        if not k_min <= i_star:
            raise AssertionError(f"empty column {n2} in psi image at h={h}")
        columns[n2] = (k_min, i_star)
    return columns


def s_domain(h: int) -> CellSet:
    """The nonzero-cell region S_h, by iterating psi over upper boundaries.

    S_1 = {(1,1)} and S_{j+1} = psi(upper boundary of S_j). Every cell
    satisfies h <= n - k + 1 <= 2^{h-1}.
    """
    if h < 1:
        raise ValueError("h must be at least 1")
    columns = {1: (1, 1)}
    for j in range(1, h):
        upper = {n: hi for n, (_, hi) in columns.items()}
        columns = psi_image(upper, j)
    return CellSet(columns=columns, h=h)


def s_area_formula(h: int) -> int:
    """Closed-form cell count |S_h| = 2^{h-2} * (2^{h-1} - h + 2) for h >= 2.

    The rearrangement behind the closed form needs h >= 2; the h = 1 value
    is 1 by direct count (S_1 is a single cell).
    """
    if h < 1:
        raise ValueError("h must be at least 1")
    if h == 1:
        return 1
    return (1 << (h - 2)) * ((1 << (h - 1)) - h + 2)


# ---------------------------------------------------------------------------
# Scaling-limit diagnostic
# ---------------------------------------------------------------------------

_TRIANGLE = ((0.0, 0.0), (1.0, 0.0), (2.0, 1.0))


def _segment_distance(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> float:
    dx, dy = bx - ax, by - ay
    t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
    t = min(1.0, max(0.0, t))
    cx, cy = ax + t * dx, ay + t * dy
    return math.hypot(px - cx, py - cy)


def _triangle_distance(px: float, py: float) -> float:
    """Euclidean distance from a point to the closed triangle (0,0),(1,0),(2,1)."""
    a, b, c = _TRIANGLE
    inside = True
    for (sx, sy), (ex, ey) in ((a, b), (b, c), (c, a)):
        # The vertices are in counterclockwise order, so a nonnegative cross
        # product against every edge means the point is inside or on an edge.
        if (ex - sx) * (py - sy) - (ey - sy) * (px - sx) < 0:
            inside = False
            break
    if inside:
        return 0.0
    return min(
        _segment_distance(px, py, a[0], a[1], b[0], b[1]),
        _segment_distance(px, py, b[0], b[1], c[0], c[1]),
        _segment_distance(px, py, c[0], c[1], a[0], a[1]),
    )


def scaling_limit_deviation(h: int) -> float:
    """Two-sided distance between S_h / 2^{h-1} and its limit triangle.

    Returns the maximum over cells of the distance from the normalized cell
    (n,k) / 2^{h-1} to the closed triangle with vertices (0,0), (1,0), (2,1),
    plus the maximum over the three triangle vertices of the distance to the
    nearest normalized cell. Decreases toward 0 as h grows.

    Only column-interval endpoints are examined: the distance to a convex
    set is convex along a column, so each column's maximum sits at an
    endpoint, and for the vertex-to-cell direction the best k in a column is
    the clamped projection.
    """
    if h < 2:
        raise ValueError("h must be at least 2")
    region = s_domain(h)
    scale = float(1 << (h - 1))
    cell_to_triangle = 0.0
    for n, (lo, hi) in region.columns.items():
        x = n / scale
        for k in (lo, hi):
            cell_to_triangle = max(cell_to_triangle, _triangle_distance(x, k / scale))
    vertex_to_cells = 0.0
    for vx, vy in _TRIANGLE:
        best = math.inf
        for n, (lo, hi) in region.columns.items():
            k = min(hi, max(lo, round(vy * scale)))
            best = min(best, math.hypot(n / scale - vx, k / scale - vy))
        vertex_to_cells = max(vertex_to_cells, best)
    return cell_to_triangle + vertex_to_cells
