"""Exact rational arithmetic for the combinatorial layer.

Everything here is integer/rational with zero tolerance: factorial
matrices, their closed-form inverses, determinant product formulas, the
alternating binomial sums, and the two-sequence Cauchy-type matrix with its
closed inverse.  Floating point never enters; results are Fractions.

Rational numbers are stdlib fractions.Fraction values: arbitrary-precision
numerator/denominator, normalized with gcd 1 and positive denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "RationalMatrix",
    "nhat", "ghat", "nhat_inverse_closed", "det_nhat", "det_formula",
    "trace_identity",
    "comb_identity_A", "comb_identity_B", "lemma_b0",
    "hilbert_matrix", "hilbert_inverse_closed", "hilbert_row_sums_closed",
    "eta1_value",
]


class RationalMatrix:
    """Dense exact matrix, sized for the small ranges used here (n <= 12)."""

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(e) for e in row) for row in rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix rows must be non-empty and rectangular")
        self.rows = rows
        self.shape = (len(rows), len(rows[0]))

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __repr__(self):
        return "RationalMatrix(%r)" % (self.rows,)

    def __matmul__(self, other):
        m, n = self.shape
        n2, p = other.shape
        if n != n2:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(m):
            row = []
            for j in range(p):
                row.append(sum((self.rows[i][k] * other.rows[k][j]
                                for k in range(n)), Fraction(0)))
            out.append(row)
        return RationalMatrix(out)

    def trace(self):
        m, n = self.shape
        if m != n:
            raise ValueError("trace of a non-square matrix")
        return sum((self.rows[i][i] for i in range(m)), Fraction(0))

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination.

        Denominators are cleared with one lcm scale so the elimination runs
        on plain integers; exact divisions keep intermediate growth bounded.
        """
        m, n = self.shape
        if m != n:
            raise ValueError("determinant of a non-square matrix")
        scale = 1
        for row in self.rows:
            for e in row:
                scale = scale * e.denominator // math.gcd(scale, e.denominator)
        work = [[int(e * scale) for e in row] for row in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if work[k][k] == 0:
                for r in range(k + 1, n):
                    if work[r][k] != 0:
                        work[k], work[r] = work[r], work[k]
                        sign = -sign
                        break
                else:
                    return Fraction(0)
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    work[i][j] = (work[i][j] * work[k][k]
                                  - work[i][k] * work[k][j]) // prev
                work[i][k] = 0
            prev = work[k][k]
        return Fraction(sign * work[n - 1][n - 1], scale ** n)

    def inverse(self):
        """Exact inverse by Gauss-Jordan elimination over Fractions."""
        m, n = self.shape
        if m != n:
            raise ValueError("inverse of a non-square matrix")
        work = [list(row) + [Fraction(int(i == j)) for j in range(n)]
                for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if work[r][col] != 0:
                    pivot_row = r
                    break
            if pivot_row is None:
                raise ZeroDivisionError("matrix is singular")
            work[col], work[pivot_row] = work[pivot_row], work[col]
            pivot = work[col][col]
            work[col] = [e / pivot for e in work[col]]
            for r in range(n):
                if r != col and work[r][col] != 0:
                    f = work[r][col]
                    work[r] = [a - f * b for a, b in zip(work[r], work[col])]
        return RationalMatrix([row[n:] for row in work])


# ----------------------------------------------------------------------
# Factorial matrices and determinant formulas


def nhat(n):
    """Alternating reciprocal-factorial matrix, entries (-1)^(j-1)/(i+j-1)!
    for 1-based i, j."""
    return RationalMatrix(
        [[Fraction((-1) ** (j - 1), math.factorial(i + j - 1))
          for j in range(1, n + 1)] for i in range(1, n + 1)])


def ghat(n):
    """Companion matrix with entries (-1)^(j-1)/(i+j+1)!."""
    return RationalMatrix(
        [[Fraction((-1) ** (j - 1), math.factorial(i + j + 1))
          for j in range(1, n + 1)] for i in range(1, n + 1)])


def nhat_inverse_closed(n):
    """Closed-form inverse of nhat(n) as a finite alternating sum."""
    nf2 = math.factorial(n) ** 2
    out = []
    for i in range(1, n + 1):
        ci = math.comb(n + i - 1, i - 1)
        row = []
        for j in range(1, n + 1):
            total = Fraction(0)
            for k in range(j, n + 1):
                term = Fraction(
                    (-1) ** (k - j) * ci * math.comb(n + k - 1, k - 1) * nf2,
                    (i + k - 1) * math.factorial(k - j)
                    * math.factorial(n - i) * math.factorial(n - k))
                total += term
            row.append(total)
        out.append(row)
    return RationalMatrix(out)


def det_nhat(n):
    return nhat(n).det()


def det_formula(n):
    """Product formula prod_{j<n} j! / prod_{n<=j<2n} j!."""
    num = 1
    for j in range(n):
        num *= math.factorial(j)
    den = 1
    for j in range(n, 2 * n):
        den *= math.factorial(j)
    return Fraction(num, den)


def trace_identity(n):
    """Exact trace of nhat(n)^-1 @ ghat(n) and its closed value
    n/(2(4n^2-1)); returns (lhs, rhs)."""
    lhs = (nhat(n).inverse() @ ghat(n)).trace()
    rhs = Fraction(n, 2 * (4 * n * n - 1))
    return lhs, rhs


# ----------------------------------------------------------------------
# Alternating binomial sums


def comb_identity_A(n):
    """First alternating sum; equals 1/2 for every n >= 2."""
    if n < 2:
        raise ValueError("identity requires n >= 2")
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction((-1) ** (n + k) * math.comb(2 * n, n - k)
                          * math.comb(n + k - 1, k - 1) ** 2, n + k - 2)
    return total


def comb_identity_B(n):
    """Second alternating sum; equals 1/2 for every n >= 2."""
    if n < 2:
        raise ValueError("identity requires n >= 2")
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction((-1) ** (n + k) * math.comb(2 * n + 1, n - k)
                          * math.comb(n + k, k - 1) ** 2,
                          (n + k) * (n + k - 1))
    return total


def lemma_b0(n, k):
    """Partial alternating row sum of binomials; returns (lhs, rhs) with
    rhs = -C(n+k-1, k-1)."""
    lhs = sum((Fraction((-1) ** j * math.comb(n + k, n + j))
               for j in range(1, k + 1)), Fraction(0))
    rhs = -Fraction(math.comb(n + k - 1, k - 1))
    return lhs, rhs


# ----------------------------------------------------------------------
# Two-sequence Cauchy-type matrices


def _check_sequences(a, b):
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    if len(a) != len(b):
        raise ValueError("sequences must have equal length")
    for ai in a:
        for bj in b:
            if ai == bj:
                raise ValueError("sequences must satisfy a_i != b_j")
    return a, b


def hilbert_matrix(a, b):
    """Matrix with entries 1/(a_i - b_j)."""
    a, b = _check_sequences(a, b)
    return RationalMatrix([[1 / (ai - bj) for bj in b] for ai in a])


def hilbert_inverse_closed(a, b):
    """Closed-form inverse of hilbert_matrix(a, b); entry (i, j) is
    1/(b_i - a_j) times a ratio of difference products."""
    a, b = _check_sequences(a, b)
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            num = Fraction(1)
            for k in range(n):
                num *= (b[i] - a[k]) * (a[j] - b[k])
            den = Fraction(1)
            for k in range(n):
                if k != j:
                    den *= (a[j] - a[k])
            for l in range(n):
                if l != i:
                    den *= (b[i] - b[l])
            row.append(num / (den * (b[i] - a[j])))
        out.append(row)
    return RationalMatrix(out)


def hilbert_row_sums_closed(a, b):
    """Row sums of the closed inverse: -prod_k(b_i - a_k) / prod_{k!=i}(b_i - b_k)."""
    a, b = _check_sequences(a, b)
    n = len(a)
    out = []
    for i in range(n):
        num = Fraction(1)
        for k in range(n):
            num *= (b[i] - a[k])
        den = Fraction(1)
        for k in range(n):
            if k != i:
                den *= (b[i] - b[k])
        out.append(-num / den)
    return out


def eta1_value(n):
    """Row sum of the inverse at row n for a_i = i, b_j = -j+1:
    equals (2n-1)!/((n-1)!)^2."""
    return Fraction(math.factorial(2 * n - 1), math.factorial(n - 1) ** 2)
