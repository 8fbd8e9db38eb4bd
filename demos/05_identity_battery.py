"""The exact rational backbone.

Everything the fit measures numerically is pinned by closed-form
rational identities: the factorial determinant behind the leading
constants, the inverse and trace of the structured matrices, and the
generalized Hilbert formulas.  All checks here are exact Fraction
equalities, no tolerance anywhere.
"""

from fractions import Fraction

import geoflow.exact as exact
import geoflow.flag as fl


def main():
    print("factorial determinant:")
    for n in (1, 2, 3, 4, 6):
        print("  n=%d  det = %s" % (n, exact.det_formula(n)))
        assert exact.det_nhat(n) == exact.det_formula(n)

    print("\nleading constants from Young rows:")
    for rows in [(1, 1), (2, 1, 1, 1), (3, 1)]:
        print("  rows %-12s C = %s" % (rows, fl.leading_constant(rows)))

    print("\ntrace identity n/(2(4n^2-1)):")
    for n in (2, 5, 10):
        lhs, rhs = exact.trace_identity(n)
        assert lhs == rhs
        print("  n=%-2d  trace = %s" % (n, lhs))

    print("\nalternating sums (both equal 1/2):")
    for n in (2, 7, 12):
        assert exact.comb_identity_A(n) == Fraction(1, 2)
        assert exact.comb_identity_B(n) == Fraction(1, 2)
        print("  n=%-2d  ok" % n)

    a = [Fraction(2 * i + 1, 2) for i in range(5)]
    b = [Fraction(-3 * j + 2, 3) for j in range(5)]
    closed = exact.hilbert_inverse_closed(a, b)
    assert closed == exact.hilbert_matrix(a, b).inverse()
    print("\ngeneralized Hilbert inverse (5x5, fractional nodes): exact match")
    print("all identities hold exactly")


if __name__ == "__main__":
    main()
