"""Exact enumeration of growing binary trees.

The central quantities are the big-integer counts

    t_{n,2k}    active growing trees with n internal nodes and 2k anchors,
                over all heights,
    t_{n,2k,h}  the same restricted to height exactly h.

Both satisfy the one-step transfer: a tree with 2m anchors in which k of the
anchors branch (1 <= k <= 2m) gains k internal nodes and ends up with 2k
anchors, in binom(2m, k) ways. Hence

    t_{n,2k} = sum_m binom(2m, k) * t_{n-k,2m},     t_{1,2} = 1,

and the height-indexed recurrence is identical with h stepping to h+1 from
the base t_{1,2,1} = 1. Tables are built by propagating that transfer
forward, one source column at a time, which visits exactly the nonzero cells.

The transfer of one column is a Taylor shift: with P(x) = sum_k v_k x^{2k},
the mass that column n sends to cell (n + j, j) is the coefficient of y^j in
P(1 + y). It runs as one Kronecker-packed Horner pass (von zur Gathen and
Gerhard, ISSAC 1997): P(1 + y) is evaluated at y = 2^s by shifts and adds
alone, and the cells are read off as s-bit digits. The digit width s is the
fewest whole bytes with 2^s > sum_k v_k * 4^k, which is at most
bitlen(sum_k v_k) + 2*top + 8 bits: no digit exceeds that sum, so digits
never carry into one another. Under a column cap the packed value is masked
to the digits kept after every step, which is exact since a low digit never
depends on a higher one. No binomial coefficient is formed.

Column sums over k recover the Catalan numbers: freezing gives a bijection
between active trees at step h and binary trees of height h (in an active
tree every deepest node is an anchor, and the branching choices are forced
by the frozen shape), so summing over the anchor count and height counts
every binary tree with n internal nodes exactly once.

Generating-function layer: with the anchor-marking series T(x,z) the growth
step is the substitution x -> 1 + z*x^2, so the height iterates satisfy
p_0(x,z) = x and p_{h+1}(x,z) = p_h(1 + z*x^2, z). Evaluated at x = 1 these
are computed here as truncated integer power series, along with

    M_h(z) = z * p_h(1,z),

which are the shifted iterates of the quadratic map w -> w^2 + z: M_0 = z and
M_{h+1} = M_h^2 + z (the Mandelbrot polynomials). The cumulative anchor
series 1 + sum_{i>=1} 2^i * prod_{j<i} M_j(z) has z^n coefficient equal to
the 2k-weighted column sum sum_k 2k * t_{n,2k}. On the real axis the map's
fixed-point iteration x -> 1 + z*x^2 converges below the critical parameter
z = 1/4 and escapes beyond it; fixed_point_probe measures that numerically.
"""

from __future__ import annotations

from itertools import zip_longest
from math import comb

from ._record import Record


# ---------------------------------------------------------------------------
# Count tables
# ---------------------------------------------------------------------------

class CountTable(Record):
    """Exact counts t_{n,2k}, or t_{n,2k,h} at a fixed height h, by column.

    columns[n] holds the values for k = 1, 2, ..., top; a zero marks an
    absent cell. h is None for the table over all heights. Treat the column
    map as read-only.
    """

    __slots__ = ("columns", "h")
    _defaults = {"h": None}
    columns: dict[int, tuple[int, ...]]
    h: int | None

    @property
    def n_max(self) -> int:
        """Largest column held (0 for the empty table)."""
        return max(self.columns, default=0)

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """The nonzero cells keyed by (n, k), derived from the columns."""
        return {(n, k): v for n, column in self.columns.items()
                for k, v in enumerate(column, start=1) if v}

    def value(self, n: int, k: int) -> int:
        column = self.columns.get(n, ())
        return column[k - 1] if 1 <= k <= len(column) else 0

    def column_sum(self, n: int) -> int:
        return sum(self.columns.get(n, ()))

    def max_k(self, n: int) -> int:
        """Largest k with a nonzero cell in column n (0 if there is none)."""
        column = self.columns.get(n, ())
        return next((k for k in range(len(column), 0, -1) if column[k - 1]), 0)

    def total(self) -> int:
        """Sum over all cells: at fixed h, the number of active trees of height h."""
        return sum(sum(column) for column in self.columns.values())

    def to_csv(self) -> str:
        """Grid layout: header row "n,<columns>", one row per anchor-pair count.

        The columns span the smallest to the largest n held, row labels are
        the anchor counts 2k, and zero cells are blank. The empty table
        gives "n\n".
        """
        if not self.columns:
            return "n\n"
        ns = range(min(self.columns), max(self.columns) + 1)
        grid = [self.columns.get(n, ()) for n in ns]
        lines = ["n," + ",".join(map(str, ns))]
        for k, row in enumerate(zip_longest(*grid, fillvalue=0), start=1):
            lines.append(f"{2 * k}," + ",".join([str(v) if v else "" for v in row]))
        return "\n".join(lines) + "\n"


# Old name of the fixed-height table, kept because benchmark/tracing.py wraps it.
HeightTable = CountTable


def _spread(n: int, column: list[int], target: dict[int, list[int]], n_cap: int | None) -> None:
    """Write the one-step transfer of column n into target, up to column n_cap.

    Cell (n, k) with value v sends binom(2k, j) * v to cell (n + j, j) for
    1 <= j <= 2k: that mass is digit j of P(1 + y) at y = 2^s, where
    P(x) = sum_k v_k x^{2k} (see the module docstring). The Horner step
    acc -> (acc + v) * (1 + y)^2 is two shifts and three adds. s is the
    fewest whole bytes with 2^s > sum_k v_k * 4^k (that bound has its own
    Horner pass), since no digit of any partial result exceeds the sum.
    Under a cap acc keeps only digits 0..n_cap - n, masked after each step;
    low digits never depend on high ones, so the kept digits stay exact.

    Cell (m, j) gets mass from column m - j alone, so each target cell is
    written once. Columns must be spread in increasing n, each with a
    nonzero last value: the first write into a target column then has its
    largest j and sets the column's length.
    """
    top = len(column)
    digits = 2 * top if n_cap is None else min(2 * top, n_cap - n)
    if digits < 1:
        return
    bound = 0
    for v in reversed(column):
        bound = (bound + v) << 2
    width = (bound.bit_length() + 7) // 8
    s = 8 * width
    mask = (1 << s * (digits + 1)) - 1
    acc = 0
    for v in reversed(column):
        acc += v
        acc += (acc << s + 1) + (acc << 2 * s)
        acc &= mask
    packed = acc.to_bytes(width * (digits + 1), "little")
    for j in range(1, digits + 1):
        cell = target.get(n + j)
        if cell is None:
            cell = target[n + j] = [0] * j
        cell[j - 1] = int.from_bytes(packed[j * width:(j + 1) * width], "little")


def t_table(n_max: int) -> CountTable:
    """Build the table of t_{n,2k} for all 1 <= n <= n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    columns: dict[int, list[int]] = {1: [1]}
    for n in range(1, n_max):
        # Column n only ever receives mass from strictly smaller n, so it is
        # complete before it spreads.
        _spread(n, columns[n], columns, n_max)
    return CountTable({n: tuple(c) for n, c in columns.items()})


def t_height_table(h: int, n_cap: int | None = None) -> CountTable:
    """Build the table of t_{n,2k,h} at height exactly h.

    n_cap, when given, prunes cells with n > n_cap during the iteration; the
    transfer only ever increases n, so retained cells keep their exact
    values. Useful for marginal checks at heights whose full tables are
    astronomically large. Every table has its n = 1 cell, so n_cap is at
    least 1.
    """
    if h < 1:
        raise ValueError("h must be at least 1")
    if n_cap is not None and n_cap < 1:
        raise ValueError(f"n_cap must be at least 1, got {n_cap}")
    current: dict[int, list[int]] = {1: [1]}
    for _ in range(h - 1):
        nxt: dict[int, list[int]] = {}
        # Keys come in increasing n: a spread adds only columns above every
        # column already present, so each step keeps the order _spread needs.
        for n, column in current.items():
            _spread(n, column, nxt, n_cap)
        current = nxt
    return CountTable({n: tuple(c) for n, c in current.items()}, h)


# ---------------------------------------------------------------------------
# Catalan numbers
# ---------------------------------------------------------------------------

def catalan(n: int) -> int:
    """Catalan number C_n = binom(2n, n) / (n + 1), exact."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return comb(2 * n, n) // (n + 1)


def catalan_column_check(table: CountTable) -> bool:
    """Check the per-column Catalan identity on a count table.

    Every plane binary tree with n internal nodes is the frozen image of
    exactly one active growing tree, so each column n of a complete count
    table sums to C_n (see the module docstring). True iff column_sum(n) ==
    catalan(n) for every n up to n_max; a table with a cell missing or
    inflated fails.
    """
    return all(table.column_sum(n) == catalan(n) for n in range(1, table.n_max + 1))


# ---------------------------------------------------------------------------
# Truncated integer power series
# ---------------------------------------------------------------------------

class PolySeries(Record):
    """Dense truncated power series with exact integer coefficients.

    coeffs[i] is the coefficient of z^i; len(coeffs) == trunc + 1 always,
    and trunc >= 0. Arithmetic is exact modulo z^{trunc+1}; operands must
    share the same truncation order.
    """

    __slots__ = ("coeffs", "trunc")
    coeffs: tuple[int, ...]
    trunc: int

    def __init__(self, coeffs: tuple[int, ...], trunc: int) -> None:
        if trunc < 0:
            raise ValueError(f"trunc must be nonnegative, got {trunc}")
        if len(coeffs) != trunc + 1:
            raise ValueError("coefficient list must have length trunc + 1")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "trunc", trunc)

    @classmethod
    def of(cls, values: list[int] | tuple[int, ...], trunc: int) -> "PolySeries":
        values = tuple(values)[: trunc + 1]
        return cls(values + (0,) * (trunc + 1 - len(values)), trunc)

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i <= self.trunc else 0

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check(self, other: "PolySeries") -> None:
        if self.trunc != other.trunc:
            raise ValueError("truncation orders differ")

    def __add__(self, other: "PolySeries") -> "PolySeries":
        self._check(other)
        return PolySeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.trunc)

    def __sub__(self, other: "PolySeries") -> "PolySeries":
        self._check(other)
        return PolySeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.trunc)

    def __mul__(self, other: "PolySeries") -> "PolySeries":
        self._check(other)
        out = [0] * (self.trunc + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: self.trunc + 1 - i]):
                if b:
                    out[i + j] += a * b
        return PolySeries(tuple(out), self.trunc)

    def scaled(self, factor: int) -> "PolySeries":
        return PolySeries(tuple(factor * c for c in self.coeffs), self.trunc)

    def shifted(self, k: int) -> "PolySeries":
        """Multiply by z^k, k >= 0, dropping coefficients past the truncation
        order; a shift past it gives the zero series."""
        if k < 0:
            raise ValueError(f"shift must be nonnegative, got {k}")
        k = min(k, self.trunc + 1)
        return PolySeries((0,) * k + self.coeffs[: self.trunc + 1 - k], self.trunc)


DEFAULT_TRUNC = 64


def iterate_p(h: int, trunc: int = DEFAULT_TRUNC) -> PolySeries:
    """The height iterate p_h(1,z): apply x -> 1 + z*x^2 h times, then x = 1.

    Equivalently u_0 = 1 and u_{j+1} = 1 + z*u_j^2 as series in z. u_j
    counts trees of height at most j by internal nodes, and a tree with n
    internal nodes has height at most n, so the truncated iterates are
    fixed from j = trunc on.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    one = PolySeries.of([1], trunc)
    u = one
    for _ in range(min(h, trunc)):
        u = one + (u * u).shifted(1)
    return u


def mandelbrot(h: int, trunc: int = DEFAULT_TRUNC) -> PolySeries:
    """The polynomial M_h(z) = z * p_h(1,z), truncated.

    Computed from the height iterate; the quadratic-map characterization
    M_0 = z, M_{h+1} = M_h^2 + z is an independent identity that the test
    suite verifies coefficient by coefficient.
    """
    return iterate_p(h, trunc).shifted(1)


def cumulative_anchor_series(trunc: int = DEFAULT_TRUNC) -> PolySeries:
    """The series 1 + sum_{i>=1} 2^i * prod_{j=0}^{i-1} M_j(z), truncated.

    Each M_j has valuation 1, so the i-th term has valuation at least i and
    the sum needs only the terms with i <= trunc. The z^n coefficient equals
    sum_k 2k * t_{n,2k} for n >= 1, and 1 at n = 0.
    """
    if trunc < 1:
        raise ValueError("trunc must be at least 1")
    one = PolySeries.of([1], trunc)
    total = one
    product = one
    p_iter = one
    for i in range(1, trunc + 1):
        product = product * p_iter.shifted(1)  # append the factor M_{i-1}
        if product.is_zero():
            break
        total = total + product.scaled(1 << i)
        p_iter = one + (p_iter * p_iter).shifted(1)
    return total


# ---------------------------------------------------------------------------
# Real-axis probe of the quadratic map
# ---------------------------------------------------------------------------

CONVERGENCE_TOL = 1e-12
DEFAULT_BLOW_UP = 1e6
DEFAULT_MAX_ITERS = 100_000


class ProbeResult(Record):
    """Outcome of the fixed-point iteration: converged, diverged, or undecided."""

    __slots__ = ("status", "limit", "iterations")
    _defaults = {"limit": None, "iterations": 0}
    status: str          # "converged" | "diverged" | "undecided"
    limit: float | None  # fixed point when converged
    iterations: int

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def diverged(self) -> bool:
        return self.status == "diverged"


def fixed_point_probe(z: float, max_iters: int = DEFAULT_MAX_ITERS,
                      blow_up: float = DEFAULT_BLOW_UP) -> ProbeResult:
    """Iterate x <- 1 + z*x^2 from x = 1 and classify the orbit.

    Converged when successive iterates differ by less than 1e-12 (for real
    0 <= z < 1/4 the limit is the smaller fixed point (1 - sqrt(1-4z)) / (2z));
    diverged when |x| exceeds blow_up; undecided when the iteration budget
    runs out, which happens in a slow-passage window around the critical
    parameter z = 1/4.
    """
    if max_iters < 1 or blow_up <= 0:
        raise ValueError("thresholds must be positive")
    x = 1.0
    for iteration in range(1, max_iters + 1):
        x_next = 1.0 + z * x * x
        if abs(x_next) > blow_up:
            return ProbeResult(status="diverged", iterations=iteration)
        if abs(x_next - x) < CONVERGENCE_TOL:
            return ProbeResult(status="converged", limit=x_next, iterations=iteration)
        x = x_next
    return ProbeResult(status="undecided", iterations=max_iters)
