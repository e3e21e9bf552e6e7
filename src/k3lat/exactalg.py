"""Exact linear-algebra kernel: Smith normal form, rational inertia, and
arithmetic in the ring generated by a primitive 8th root of unity with
2-power denominators.

Everything here is pure Python integer / Fraction arithmetic; no floats
except in the explicit `complex()` conversions used by numeric cross-checks.
"""

from fractions import Fraction


# ---------------------------------------------------------------------------
# small matrix helpers (lists of lists, row-major)

def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    oi[j] += aik * bk[j]
    return out


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def det(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    prod = Fraction(sign)
    for i in range(n):
        prod *= a[i][i]
    if prod.denominator == 1:
        return int(prod)
    return prod


def rational_inverse(m):
    """Exact inverse of a nonsingular matrix, entries as Fractions."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


# ---------------------------------------------------------------------------
# Smith normal form

def smith_normal_form(m):
    """Return (d, u, v) with u*m*v = d, u and v unimodular, d diagonal with
    d[i] | d[i+1] and d[i] >= 0.
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

    rank = reduce_from(0)

    # enforce the divisibility chain d[i] | d[i+1]
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


def hermite_normal_form_columns(m):
    """Column-style HNF of an integer matrix whose columns generate a rank-n
    subgroup of Z^n (n = number of rows).  Returns an n x n lower-triangular
    basis matrix with positive diagonal and reduced off-diagonal entries.
    """
    n = len(m)
    cols = [list(c) for c in zip(*m)]
    basis = []
    for row in range(n):
        live = [c for c in cols if c[row] != 0]
        rest = [c for c in cols if c[row] == 0]
        if not live:
            raise ValueError("columns do not have full rank")
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[row]))
            piv = live[0]
            reduced = [piv]
            for c in live[1:]:
                q = c[row] // piv[row]
                for k in range(n):
                    c[k] -= q * piv[k]
                (reduced if c[row] != 0 else rest).append(c)
            live = reduced
        piv = live[0]
        if piv[row] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        cols = rest
    out = [[basis[j][i] for j in range(n)] for i in range(n)]
    # reduce entries to the left of each diagonal into [0, diag)
    for j in range(n):
        for k in range(j):
            q = out[j][k] // out[j][j]
            if q:
                for r in range(n):
                    out[r][k] -= q * out[r][j]
    return out


# ---------------------------------------------------------------------------
# rational inertia

def rational_inertia(m):
    """Signature of a symmetric rational matrix via exact congruence
    diagonalization.  Returns (n_plus, n_minus, n_zero).
    """
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
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
            # congruence by (row_i += row_j) makes the diagonal nonzero
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


# ---------------------------------------------------------------------------
# the cyclotomic ring Z[zeta_8, 1/2]

class CycEight:
    """Exact element c0 + c1*z + c2*z^2 + c3*z^3 over 2^e, where z is a
    primitive 8th root of unity (z^4 = -1).

    Immutable and canonical: e is minimal.
    """

    __slots__ = ("coeffs", "denom_exp")

    def __init__(self, coeffs=(0, 0, 0, 0), denom_exp=0):
        c = [int(x) for x in coeffs]
        if len(c) != 4:
            raise ValueError("need exactly four coefficients")
        e = int(denom_exp)
        if e < 0:
            raise ValueError("denominator exponent must be >= 0")
        while e > 0 and all(x % 2 == 0 for x in c):
            c = [x // 2 for x in c]
            e -= 1
        object.__setattr__(self, "coeffs", tuple(c))
        object.__setattr__(self, "denom_exp", e)

    def __setattr__(self, *args):
        raise AttributeError("CycEight is immutable")

    # constructors -----------------------------------------------------
    @classmethod
    def integer(cls, n):
        return cls((n, 0, 0, 0))

    @classmethod
    def zeta_power(cls, k):
        """z^k for any integer k."""
        k %= 8
        sign = 1
        if k >= 4:
            k -= 4
            sign = -1
        c = [0, 0, 0, 0]
        c[k] = sign
        return cls(c)

    @classmethod
    def sqrt2(cls):
        # z + z^-1 = z - z^3
        return cls((0, 1, 0, -1))

    @classmethod
    def half_power(cls, e):
        """2^(-e) for e >= 0."""
        return cls((1, 0, 0, 0), e)

    # arithmetic -------------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        e = max(self.denom_exp, other.denom_exp)
        a = [x << (e - self.denom_exp) for x in self.coeffs]
        b = [x << (e - other.denom_exp) for x in other.coeffs]
        return CycEight([x + y for x, y in zip(a, b)], e)

    __radd__ = __add__

    def __neg__(self):
        return CycEight([-x for x in self.coeffs], self.denom_exp)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        c = [0] * 4
        for i in range(4):
            if not a[i]:
                continue
            for j in range(4):
                if not b[j]:
                    continue
                k = i + j
                if k >= 4:
                    c[k - 4] -= a[i] * b[j]
                else:
                    c[k] += a[i] * b[j]
        return CycEight(c, self.denom_exp + other.denom_exp)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers not supported")
        out = CycEight.integer(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self):
        """Galois conjugation z -> z^-1 (complex conjugation)."""
        c0, c1, c2, c3 = self.coeffs
        # z^-1 = -z^3, z^-2 = -z^2... careful: conj(z^k) = z^-k
        # z^-1 = -z^3, z^-2 = -z^2 is wrong: z^-2 = z^6 = -z^2; z^-3 = z^5 = -z.
        return CycEight((c0, -c3, -c2, -c1), self.denom_exp)

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs and self.denom_exp == other.denom_exp

    def __hash__(self):
        return hash((self.coeffs, self.denom_exp))

    def is_zero(self):
        return self.coeffs == (0, 0, 0, 0)

    def __complex__(self):
        import cmath
        z = cmath.exp(1j * cmath.pi / 4)
        val = sum(c * z ** k for k, c in enumerate(self.coeffs))
        return val / 2 ** self.denom_exp

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            base = "1" if k == 0 else ("z" if k == 1 else f"z^{k}")
            terms.append(f"{c}*{base}" if k else str(c))
        body = " + ".join(terms) if terms else "0"
        if self.denom_exp:
            return f"({body})/2^{self.denom_exp}"
        return body


def _coerce(x):
    if isinstance(x, CycEight):
        return x
    if isinstance(x, int):
        return CycEight.integer(x)
    raise TypeError(f"cannot coerce {type(x)!r} to CycEight")
