"""Exact linear-algebra kernel: Smith and Hermite normal forms, rational
inverses, determinant and inertia of a symmetric matrix by fraction-free
symmetric elimination, and arithmetic in the ring generated by a primitive
8th root of unity with 2-power denominators.

Every elimination runs on Python ints; `rational_inverse` only hands its
result back as Fractions.  No floats except in the explicit `complex()`
conversions used by numeric cross-checks.
"""

import math
from fractions import Fraction
from operator import index


# ---------------------------------------------------------------------------
# small matrix helpers (lists of lists, row-major)

def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
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


def transpose(a):
    return [list(col) for col in zip(*a)]


# ---------------------------------------------------------------------------
# Smith normal form

def smith_normal_form(m):
    """Return (d, u, v) with u*m*v = d, u and v unimodular, d diagonal with
    d[i] | d[i+1] and d[i] >= 0.  Entries of u and v can grow with the rank
    of a dense m; on the parser's block sums they stay small (4 bits at rank 96).
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    # d is one table [[m | I_rows], [I_cols]]: a row operation on its first
    # `rows` rows acts on d and u at once, a column operation on its first
    # `cols` columns on d and v; d, u and v are sliced off it at the end
    d = [list(row) + e for row, e in zip(m, identity_matrix(rows))] + identity_matrix(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        d[dst] = [x + k * y for x, y in zip(d[dst], d[src])]

    def add_col(src, dst, k):
        for row in d:
            row[dst] += k * row[src]

    # every entry the scan sees is an integer combination of m's entries, so
    # none is smaller than their gcd, the content: one equal to it ends the scan
    content = 0
    for row in m:
        content = math.gcd(content, *row)
        if content == 1:
            break

    def move_min_pivot(t):
        best, low = None, math.inf
        for i in range(t, rows):
            row = d[i]
            for j in range(t, cols):
                if 0 < abs(row[j]) < low:  # strict: the first row-major minimum
                    best, low = (i, j), abs(row[j])
                    if low == content:
                        break
            if low == content:
                break
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
                d[t] = [-x for x in d[t]]
            t += 1
        return t

    rank = reduce_from(0)

    # enforce the divisibility chain d[i] | d[i+1]
    if all(d[i][i] <= 2 for i in range(rank)):
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
    else:
        # (x, y) -> (g, x y / g) by one unimodular step on rows and columns
        # i, j: with x = g xg, y = g yg and s xg + t yg = 1,
        # [[s, t], [-yg, xg]] diag(x, y) [[1, -t yg], [1, s xg]] = diag(g, x yg)
        for i in range(rank):
            for j in range(i + 1, rank):
                x, y = d[i][i], d[j][j]
                if y % x:
                    g = math.gcd(x, y)
                    xg, yg = x // g, y // g
                    s = pow(xg, -1, yg)
                    t = (1 - s * xg) // yg
                    d[i], d[j] = ([s * p + t * q for p, q in zip(d[i], d[j])],
                                  [xg * q - yg * p for p, q in zip(d[i], d[j])])
                    for row in d:
                        row[i], row[j] = row[i] + row[j], s * xg * row[j] - t * yg * row[i]
    return [row[:cols] for row in d[:rows]], [row[cols:] for row in d[:rows]], d[rows:]


def rational_inverse(m):
    """Exact inverse of a nonsingular matrix, entries as Fractions, from the
    Smith form: with c clearing the denominators of m, u (c m) v = d gives
    m^-1 = c v d^-1 u, computed over the last invariant factor d_n."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    c = math.lcm(*(x.denominator for row in a for x in row))
    d, u, v = smith_normal_form([[int(c * x) for x in row] for row in a])
    last = d[-1][-1] if n else 1
    if not last:
        raise ZeroDivisionError("matrix is singular")
    w = mat_mul(v, [[last // d[i][i] * x for x in u[i]] for i in range(n)])
    return [[Fraction(c * x, last) for x in row] for row in w]


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
# fraction-free symmetric elimination and inertia

def _symmetric_bareiss(m):
    """Fraction-free symmetric elimination (Bareiss 1968) of a symmetric
    integer matrix.  Yields (i, p, row) per pivot: its index, the pivot and
    its row on the indices still live, in order.  Pivot on the first live
    nonzero diagonal entry; if there is none, row_i += row_j, col_i += col_j
    for the first a_ij != 0 makes a_ii = 2 a_ij one.  Live entries become
    (p a_ik - a_i,piv a_piv,k) // prev, exactly, so the pivots are the
    leading minors M_k of a matrix congruent to m.  A row with a_i,piv = 0 is rescaled by p / prev
    only when next read, so a block sum costs what its blocks cost.
    """
    a = [list(map(index, row)) for row in m]  # TypeError on a non-integer
    idx = list(range(len(a)))
    scale = [1] * len(a)  # the pivot each row was last brought up to
    prev = 1

    def fresh(t):
        s = scale[t]
        if s != prev:
            a[t] = [x * prev // s for x in a[t]]
            scale[t] = prev
        return a[t]

    while a:
        t = next((t for t, row in enumerate(a) if row[t]), None)
        if t is None:  # a stale row has the zero pattern of its fresh self
            t, u = next(((t, u) for t, row in enumerate(a) for u, x in enumerate(row) if x),
                        (None, None))
            if t is None:
                return
            a[t] = [x + y for x, y in zip(fresh(t), fresh(u))]
            for row in a:
                row[t] += row[u]
        prow = fresh(t)
        del a[t], scale[t]
        p = prow.pop(t)
        yield idx.pop(t), p, prow
        for r, row in enumerate(a):
            del row[t]
            f = prow[r]
            if f:
                a[r] = [(p * x - f * y) // prev for x, y in zip(fresh(r), prow)]
                scale[r] = p
        prev = p


def _det_and_inertia(m):
    """(det m, (n_plus, n_minus, n_zero)) of a symmetric integer matrix from
    one `_symmetric_bareiss` pass: its congruences (symmetric swaps, the
    hyperbolic row_i += row_j, col_i += col_j) have det +-1, so det m is the
    last of n pivots, else 0; the signs of M_k / M_(k-1) give the inertia."""
    pivots = [p for _, p, _ in _symmetric_bareiss(m)]
    signs = [p > 0 for p in pivots]
    n_plus = sum(s == t for s, t in zip([True] + signs, signs))  # M_(k-1) M_k > 0
    det_m = ([1] + pivots)[-1] if len(pivots) == len(m) else 0
    return det_m, (n_plus, len(signs) - n_plus, len(m) - len(signs))


def rational_inertia(m):
    """Signature (n_plus, n_minus, n_zero) of a symmetric integer matrix."""
    n = len(m)
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    return _det_and_inertia(m)[1]


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
        low = c[0] | c[1] | c[2] | c[3]  # its 2-adic valuation is the entries' least
        shift = min(e, (low & -low).bit_length() - 1) if low else e
        c, e = [x >> shift for x in c], e - shift
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
        return cls(cls.integer(1).zeta_rows()[k % 8])

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

    def __mul__(self, other):
        other = _coerce(other)  # the negacyclic product in Z[z]/(z^4 + 1):
        (a0, a1, a2, a3), (b0, b1, b2, b3) = self.coeffs, other.coeffs
        return CycEight((a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
                         a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
                         a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
                         a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0), self.denom_exp + other.denom_exp)

    __rmul__ = __mul__

    def zeta_rows(self):
        """The coefficients of self z^j, j = 0..7, by plain rotations: z maps
        (c0, c1, c2, c3) to (-c3, c0, c1, c2), over the same 2^e."""
        c0, c1, c2, c3 = self.coeffs
        rows = [(c0, c1, c2, c3), (-c3, c0, c1, c2), (-c2, -c3, c0, c1), (-c1, -c2, -c3, c0)]
        return rows + [(-x0, -x1, -x2, -x3) for x0, x1, x2, x3 in rows]

    def conjugate(self):
        """Galois conjugation z -> z^-1 (complex conjugation)."""
        c0, c1, c2, c3 = self.coeffs
        # z^-1 = z^7 = -z^3, z^-2 = -z^2, z^-3 = -z
        return CycEight((c0, -c3, -c2, -c1), self.denom_exp)

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs and self.denom_exp == other.denom_exp

    def __hash__(self):
        return hash((self.coeffs, self.denom_exp))

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
