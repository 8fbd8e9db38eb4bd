"""Exact rational identities behind the leading constant.

Everything here is integer/Fraction arithmetic; equality is exact,
no tolerances anywhere.
"""

from fractions import Fraction
from math import comb, factorial

from geoflow import exact
from geoflow import flag as fl


def test_det_matches_factorial_formula():
    for n in range(1, 11):
        assert exact.det_nhat(n) == exact.det_formula(n)


def test_det_formula_small_values():
    # n = 1: 0!/1!; n = 2: (0!1!)/(2!3!); n = 3: (0!1!2!)/(3!4!5!)
    assert exact.det_formula(1) == Fraction(1, 1)
    assert exact.det_formula(2) == Fraction(1, 12)
    assert exact.det_formula(3) == Fraction(2, 17280)


def test_closed_inverse_equals_elimination():
    for n in range(1, 7):
        assert exact.nhat_inverse_closed(n) == exact.nhat(n).inverse()


def test_inverse_is_inverse():
    for n in range(1, 7):
        m = exact.nhat(n)
        prod = m @ exact.nhat_inverse_closed(n)
        assert prod == exact.RationalMatrix.identity(n)


def test_trace_identity():
    for n in range(1, 11):
        lhs, rhs = exact.trace_identity(n)
        assert lhs == rhs
        assert rhs == Fraction(n, 2 * (4 * n * n - 1))


def test_alternating_sums_are_one_half():
    for n in range(2, 13):
        assert exact.comb_identity_A(n) == Fraction(1, 2)
        assert exact.comb_identity_B(n) == Fraction(1, 2)


def test_partial_row_sum_grid():
    for n in range(1, 13):
        for k in range(1, 13):
            lhs, rhs = exact.lemma_b0(n, k)
            assert lhs == rhs
            assert rhs == -Fraction(comb(n + k - 1, k - 1))


def test_generalized_hilbert_closed_inverse():
    seqs = [
        ([Fraction(i) for i in range(1, 6)],
         [Fraction(1 - j) for j in range(1, 6)]),
        ([Fraction(2 * i + 1, 2) for i in range(1, 6)],
         [Fraction(-3 * j + 2, 3) for j in range(1, 6)]),
        ([Fraction(i * i) for i in range(1, 5)],
         [Fraction(-j, 7) for j in range(1, 5)]),
    ]
    for a, b in seqs:
        m = exact.hilbert_matrix(a, b)
        closed = exact.hilbert_inverse_closed(a, b)
        assert closed == m.inverse()
        n = len(a)
        assert (m @ closed) == exact.RationalMatrix.identity(n)


def test_hilbert_entry_layout():
    a = [Fraction(1), Fraction(2)]
    b = [Fraction(0), Fraction(-1)]
    m = exact.hilbert_matrix(a, b)
    assert m.rows[0][0] == Fraction(1, 1)   # 1/(a1 - b1)
    assert m.rows[0][1] == Fraction(1, 2)   # 1/(a1 - b2)
    assert m.rows[1][1] == Fraction(1, 3)


def test_hilbert_row_sums_closed():
    a = [Fraction(i) for i in range(1, 7)]
    b = [Fraction(1 - j) for j in range(1, 7)]
    sums = exact.hilbert_row_sums_closed(a, b)
    inv = exact.hilbert_matrix(a, b).inverse()
    for i, s in enumerate(sums):
        assert s == sum(inv.rows[i], Fraction(0))


def test_eta1_values():
    # (2n-1)! / ((n-1)!)^2
    for n in range(1, 9):
        want = Fraction(factorial(2 * n - 1), factorial(n - 1) ** 2)
        assert exact.eta1_value(n) == want


def test_leading_constant_from_rows():
    assert fl.leading_constant([1, 1, 1]) == Fraction(1)
    assert fl.leading_constant([2, 1]) == Fraction(1, 12)
    assert fl.leading_constant([3, 1]) == Fraction(1, 8640)
    assert fl.leading_constant([2, 1, 1, 1]) == Fraction(1, 12)


def test_rational_matrix_ops():
    m = exact.RationalMatrix([[Fraction(1), Fraction(2)],
                              [Fraction(3), Fraction(5)]])
    assert m.det() == Fraction(-1)
    assert m.trace() == Fraction(6)
    assert (m @ m.inverse()) == exact.RationalMatrix.identity(2)
