"""Integer/rational linear algebra and the cyclotomic ring, checked against
independent oracles (Fraction elimination, numpy eigenvalues, complex
arithmetic)."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from k3lat.exactalg import (
    smith_normal_form,
    hermite_normal_form_columns,
    rational_inverse,
    rational_inertia,
    _det_and_inertia,
    mat_mul,
    identity_matrix,
    CycEight,
)


def random_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def fraction_det(m):
    """Oracle: Gaussian elimination over the rationals, row swaps counted."""
    a = [[Fraction(x) for x in row] for row in m]
    n, sign = len(a), 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    assert out.denominator == 1
    return int(out)


def test_smith_normal_form_properties():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, -6, 6)
        d, u, v, = smith_normal_form(m)
        assert mat_mul(u, mat_mul(m, v)) == d
        # u, v unimodular
        assert abs(fraction_det(u)) == 1
        assert abs(fraction_det(v)) == 1
        diag = [d[i][i] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        # divisibility chain, nonnegative
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and (a == 0 or b % a == 0 or b == 0)
        prod = 1
        for x in diag:
            prod *= x
        assert prod == abs(fraction_det(m))


def test_hermite_form_lower_triangular():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        while True:
            m = random_matrix(rng, n, -5, 5)
            if fraction_det(m):
                break
        h = hermite_normal_form_columns(m)
        for i in range(n):
            assert h[i][i] > 0
            for j in range(i + 1, n):
                assert h[i][j] == 0
            for j in range(i):
                assert 0 <= h[i][j] < h[i][i]
        prod = 1
        for i in range(n):
            prod *= h[i][i]
        assert prod == abs(fraction_det(m))


def test_rational_inverse_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        while True:
            m = random_matrix(rng, n)
            if fraction_det(m):
                break
        inv = rational_inverse(m)
        assert mat_mul(m, inv) == identity_matrix(n)


def test_rational_inverse_edges():
    """The Smith-form inverse: empty and singular matrices, and rational
    entries, whose denominators are cleared before the integer Smith form."""
    assert rational_inverse([]) == []
    for singular in ([[0]], [[1, 2], [2, 4]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]]):
        with pytest.raises(ZeroDivisionError, match="singular"):
            rational_inverse(singular)
    m = [[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(-3, 4)]]
    inv = rational_inverse(m)
    assert all(isinstance(x, Fraction) for row in inv for x in row)
    assert mat_mul(m, inv) == identity_matrix(2)


def test_inertia_sylvester():
    """Inertia of G agrees with the signs of numpy eigenvalues."""
    import numpy as np

    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 5)
        b = random_matrix(rng, n, -4, 4)
        g = mat_mul([[b[j][i] for j in range(n)] for i in range(n)], b)
        # make it symmetric but possibly indefinite
        shift = rng.randint(-20, 5)
        for i in range(n):
            g[i][i] += shift
        eig = np.linalg.eigvalsh(np.array(g, dtype=float))
        if any(abs(e) <= 1e-8 for e in eig):
            continue  # skip near-degenerate samples
        expected = (int((eig > 0).sum()), int((eig < 0).sum()), 0)
        assert rational_inertia(g) == expected


def fraction_inertia(m):
    """Oracle: congruence diagonalization over the rationals.  Pivot on the
    first live nonzero diagonal entry; when every live diagonal entry is 0,
    row_i += row_j and col_i += col_j on a pair with a_ij != 0 first."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    n_plus = n_minus = n_zero = 0
    live = list(range(n))
    while live:
        piv = next((i for i in live if a[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in live for j in live if i < j and a[i][j] != 0), None)
            if pair is None:
                n_zero += len(live)
                break
            i, j = pair
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            piv = i
        p = a[piv][piv]
        if p > 0:
            n_plus += 1
        else:
            n_minus += 1
        live = [i for i in live if i != piv]
        for i in live:
            f = a[i][piv] / p
            if f:
                for k in range(n):
                    a[i][k] -= f * a[piv][k]
                for k in range(n):
                    a[k][i] -= f * a[k][piv]
    return n_plus, n_minus, n_zero


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices up to 8 x 8: plain, singular (sum of
    fewer than n signed rank-one squares), with an all-zero diagonal (the
    hyperbolic-pair pivot), or a zero-diagonal block beside a plain one."""
    n = draw(st.integers(0, 8))
    entry = st.one_of(st.integers(-6, 6), st.integers(-10 ** 9, 10 ** 9))
    kind = draw(st.sampled_from(["plain", "singular", "zero_diagonal", "mixed"]))
    if kind == "singular":
        k = draw(st.integers(0, max(0, n - 1)))
        rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                             min_size=k, max_size=k))
        signs = draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=k, max_size=k))
        return [[sum(s * b[i] * b[j] for s, b in zip(signs, rows)) for j in range(n)]
                for i in range(n)]
    upper = draw(st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    m = [[0] * n for _ in range(n)]
    cells = iter(upper)
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(cells)
    zeros = {"zero_diagonal": n, "mixed": n // 2}.get(kind, 0)
    for i in range(zeros):
        m[i][i] = 0
    return m


@given(symmetric_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
@example([[0, 0], [0, 0]])
@example([[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]])
@example([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
def test_inertia_against_fraction_diagonalization(m):
    """The fraction-free elimination against the Fraction one, singular and
    all-zero-diagonal matrices included (test_inertia_sylvester skips
    them); the same pass's last pivot is the determinant."""
    assert rational_inertia(m) == fraction_inertia(m)
    assert _det_and_inertia(m)[0] == fraction_det(m)


def test_inertia_input_checks():
    with pytest.raises(ValueError, match="not symmetric"):
        rational_inertia([[0, 1], [2, 0]])
    with pytest.raises(TypeError):
        rational_inertia([[Fraction(1, 2)]])
    assert rational_inertia([]) == (0, 0, 0)


def approx(z1, z2, tol=1e-10):
    return abs(z1 - z2) < tol


def test_cyc_eight_against_complex():
    rng = random.Random(17)
    zeta = cmath.exp(1j * cmath.pi / 4)
    for _ in range(200):
        a = CycEight([rng.randint(-8, 8) for _ in range(4)], rng.randint(0, 3))
        b = CycEight([rng.randint(-8, 8) for _ in range(4)], rng.randint(0, 3))
        assert approx(complex(a + b), complex(a) + complex(b))
        assert approx(complex(a * b), complex(a) * complex(b))
        assert approx(complex(a.conjugate()), complex(a).conjugate())


def test_cyc_eight_constants():
    assert approx(complex(CycEight.sqrt2()), math.sqrt(2))
    assert approx(complex(CycEight.zeta_power(2)), 1j)
    assert complex(CycEight.zeta_power(8)) == 1
    assert CycEight.zeta_power(4) == CycEight.integer(-1)
    # sqrt2^2 = 2
    s = CycEight.sqrt2()
    assert s * s == CycEight.integer(2)


def test_cyc_eight_canonical_equality():
    a = CycEight([2, 0, 2, 0], 1)
    b = CycEight([1, 0, 1, 0], 0)
    assert a == b
    assert hash(a) == hash(b)
