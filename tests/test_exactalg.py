"""Integer/rational linear algebra and the cyclotomic ring, checked against
independent oracles (Fraction elimination, numpy eigenvalues, complex
arithmetic)."""

import cmath
import math
import random
import time
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
from k3lat.geography import block_sum_witness, fixture_catalog, geography_table
from k3lat.lattice import parse_lattice


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


# Oracle for smith_normal_form: d, u and v as three matrices, each operation
# written on two of them, in the order the one-table version makes it.
def three_matrix_smith_form(m):
    """Return (d, u, v) with u*m*v = d, u and v unimodular, d diagonal with
    d[i] | d[i+1] and d[i] >= 0.  Entries of u and v can grow with the rank
    of a dense m; on the parser's block sums they stay small (4 bits at rank 96).
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(row) for row in m]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        d[dst] = [x + k * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, k):
        for row in d:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def move_min_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (
                        best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            return False
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        return True

    def reduce_from(start):
        """Diagonalize the trailing block with indices >= start."""
        t = start
        while t < rows and t < cols:
            if not move_min_pivot(t):
                return t
            while True:
                # shrink the pivot to a gcd of its row and column
                bad = next((i for i in range(t + 1, rows)
                            if d[i][t] % d[t][t] != 0), None)
                if bad is not None:
                    add_row(t, bad, -(d[bad][t] // d[t][t]))
                    swap_rows(t, bad)
                    continue
                bad = next((j for j in range(t + 1, cols)
                            if d[t][j] % d[t][t] != 0), None)
                if bad is not None:
                    add_col(t, bad, -(d[t][bad] // d[t][t]))
                    swap_cols(t, bad)
                    continue
                break
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    add_row(t, i, -(d[i][t] // d[t][t]))
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    add_col(t, j, -(d[t][j] // d[t][t]))
            if d[t][t] < 0:
                negate_row(t)
            t += 1
        return t

    def left_mul(i, j, U):
        """Rows i, j of d and u times the 2 x 2 matrix U."""
        for a in (d, u):
            ri, rj = a[i], a[j]
            a[i] = [U[0][0] * p + U[0][1] * q for p, q in zip(ri, rj)]
            a[j] = [U[1][0] * p + U[1][1] * q for p, q in zip(ri, rj)]

    def right_mul(i, j, V):
        """Columns i, j of d and v times the 2 x 2 matrix V."""
        for row in d + v:
            p, q = row[i], row[j]
            row[i], row[j] = p * V[0][0] + q * V[1][0], p * V[0][1] + q * V[1][1]

    rank = reduce_from(0)

    # enforce the divisibility chain d[i] | d[i+1]
    if all(d[i][i] in (1, 2) for i in range(rank)):
        changed = True
        while changed:
            changed = False
            for i in range(rank - 1):
                if d[i + 1][i + 1] % d[i][i] != 0:
                    # fold column i+1 into column i and re-diagonalize from i;
                    # the new d[i][i] is a proper divisor of the old one
                    add_col(i + 1, i, 1)
                    reduce_from(i)
                    changed = True
                    break
        return d, u, v
    # each pair (x, y) with x not dividing y becomes (gcd, lcm) in one step
    for i in range(rank):
        for j in range(i + 1, rank):
            x, y = d[i][i], d[j][j]
            if y % x == 0:
                continue
            g = math.gcd(x, y)
            xg, yg = x // g, y // g
            # extended Euclid on (xg, yg), then s reduced into [0, yg)
            r0, r1, s0, s1 = xg, yg, 1, 0
            while r1:
                k = r0 // r1
                r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
            s = s0 % yg
            t = (1 - s * xg) // yg
            left_mul(i, j, [[s, t], [-yg, xg]])
            right_mul(i, j, [[1, -t * yg], [1, s * xg]])
            assert (d[i][i], d[j][j]) == (g, x * y // g)
    return d, u, v


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


def smith_differential_cases():
    """Seeded random matrices with 0-8 rows and columns, zero rows and zero
    columns among them, with entries in +-9 and in +-10^9; the gram of every
    catalog fixture and of every block-sum witness for L+ and L-; and three
    block sums of rank 96."""
    rng = random.Random(23)
    for k in range(400):
        rows = rng.randint(0, 8)
        cols = rng.randint(0, 8) if rows else 0
        bound = 9 if k % 2 else 10 ** 9
        m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        for i in rng.sample(range(rows), rng.randint(0, rows) // 2):
            m[i] = [0] * cols
        for j in rng.sample(range(cols), rng.randint(0, cols) // 2):
            for row in m:
                row[j] = 0
        yield m
    for fix in fixture_catalog():
        yield fix.lattice.gram
    for e in geography_table():
        r, a, delta = e.triplet
        yield block_sum_witness(1, r - 1, a, delta).gram
        yield block_sum_witness(2, 20 - r, a, delta).gram
    for expr in ("E8(2)^12", "U(2)^48", "<2>^2 + <-2>^94"):
        yield parse_lattice(expr).gram


def test_smith_form_on_mixed_primes():
    """Block sums mixing the primes 3 and 5 leave the first pass with
    pairs such as (3, 5) that break the chain; one step per pair turns each
    into (1, 15) without a new pivot scan, so u and v stay small and the
    rank-96 sum takes well under a second."""
    for expr, bound in (("U(3) + U(5)", 0.1), ("U(3)^24 + U(5)^24", 1)):
        m = parse_lattice(expr).gram
        start = time.perf_counter()
        d, u, v = smith_normal_form(m)
        assert time.perf_counter() - start < bound, expr
        n = len(m)
        assert [d[i][i] for i in range(n)] == [1] * (n // 2) + [15] * (n // 2)
        assert mat_mul(u, mat_mul(m, v)) == d
        assert max(abs(x) for row in u + v for x in row) < 8, expr


def test_smith_form_against_the_three_matrix_oracle():
    """The one-table Smith form makes the oracle's operations in the same
    order, so (d, u, v) are identical, not merely equivalent: the nontrivial
    columns of v are the D_L basis."""
    checked = 0
    for m in smith_differential_cases():
        assert smith_normal_form(m) == three_matrix_smith_form(m), checked
        checked += 1
    assert checked == 400 + len(fixture_catalog()) + 2 * 75 + 3


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
