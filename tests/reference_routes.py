"""Second routes to library results, kept in the tests as evidence.

The library computes each quantity one way. These helpers compute a_n by
two independent identities, so the tests can check a_seq against both.
"""

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
