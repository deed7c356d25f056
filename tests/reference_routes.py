"""Second routes to library results, kept in the tests as evidence.

The library computes each quantity one way. These helpers compute a_n by
two independent identities, so the tests can check a_seq against both, list
the valid profiles by walks that share no code with the library's, so the
tests can check the counts and the sampler against the lists, form the
Kraft sum by Horner's rule, so the tests can check kraft_sum's balanced sum,
and reach the cell region S_h by iterating psi from S_1, so the tests can
check s_domain's boundary formulas.
"""

from fractions import Fraction

from growingtrees.enumeration import PolySeries


def a_seq_meta(n_max):
    """a_0..a_n_max by the nested (meta-Fibonacci) recurrence
    a_n = a_{n-1-a_{n-1}} + a_{n-2-a_{n-2}}, with a_0 = a_1 = a_2 = 1."""
    vals = [1, 1, 1]
    for n in range(3, n_max + 1):
        vals.append(vals[n - 1 - vals[n - 1]] + vals[n - 2 - vals[n - 2]])
    return vals[: n_max + 1]


def a_gf_coeffs(trunc):
    """Coefficients of z^0..z^trunc of z * sum_{n>=0} prod_{i=1}^{n} (z + z^{2^i}).

    The z^n coefficient is a_n for every n >= 1; the z^0 coefficient is 0,
    outside the identity (a_0 = 1 is a convention of the recurrences). The
    n-th product has valuation n, so terms beyond n = trunc cannot contribute.
    """
    total = PolySeries.of([], trunc)
    one = product = PolySeries.of([1], trunc)
    z = one.shifted(1)
    i = 0
    while not product.is_zero():
        total = total + product.shifted(1)
        i += 1
        # Sparse factor on the left: multiplication skips zero coefficients
        # of the left operand, and the factor has only two terms.
        product = (z + one.shifted(1 << i)) * product
    return list(total.coeffs)


def valid_profiles(leaves):
    """Every valid profile with the given number of leaves, as level tuples
    in lex order: the length distributions of the complete binary prefix
    codes (the Kraft equality), the level-number sequences of Flajolet and
    Prodinger.

    The walk goes down the depths: below i internal nodes lie 2*i slots, of
    which l_{k+1} <= 2*i are leaves and the rest internal. Each internal node
    still open holds at least two leaves, so a branch that cannot place them
    in the leaves left stops; a profile ends where no internal node is left.
    """
    if leaves == 1:
        return [(1,)]
    found = []
    stack = [((0,), 1, leaves)]  # levels so far, internal nodes at the last depth, leaves left
    while stack:
        levels, internal, left = stack.pop()
        slots = 2 * internal
        for l in range(min(slots, left) + 1):
            below = slots - l
            if below == 0 and l == left:
                found.append(levels + (l,))
            elif below and left - l >= 2 * below:
                stack.append((levels + (l,), below, left - l))
    return sorted(found)


def valid_profiles_of_height(height):
    """Every valid profile of the given height >= 1, as level tuples in lex
    order: the same walk down the depths as valid_profiles', bounded by depth
    in place of leaves.

    Above the last level at least one of the 2*i slots stays internal
    (l < 2*i), so the tree goes on; the last level takes all 2*i slots as
    leaves, which closes it.
    """
    found = []
    stack = [((0,), 1)]  # levels so far, internal nodes at the last depth
    while stack:
        levels, internal = stack.pop()
        slots = 2 * internal
        if len(levels) == height:
            found.append(levels + (slots,))
        else:
            stack.extend((levels + (l,), slots - l) for l in range(slots))
    return sorted(found)


def kraft_sum_horner(levels):
    """The Kraft sum sum_i l_i / 2^i of a profile's levels (l_0, ..., l_h):
    the numerator sum_i l_i * 2^{h-i} by Horner's rule, one level at a time,
    over 2^h."""
    numerator = 0
    for l in levels:
        numerator = 2 * numerator + l
    return Fraction(numerator, 1 << (len(levels) - 1))


def psi_reach(h):
    """The cells of S_h, reached from S_1 = {(1, 1)} by h - 1 steps of
    psi(n, k) = {(n + i, i) : 1 <= i <= 2k}.

    Each step maps only the top cell of each column: psi(n, k) lies inside
    psi(n, k') for k <= k', so the top cell reaches everything its column
    does.
    """
    cells = {(1, 1)}
    for _ in range(h - 1):
        tops = {}
        for n, k in cells:
            tops[n] = max(k, tops.get(n, 0))
        cells = {(n + i, i) for n, k in tops.items() for i in range(1, 2 * k + 1)}
    return cells
