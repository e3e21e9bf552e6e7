"""Short-vector machinery: Fincke-Pohst enumeration on definite lattices,
level by level on exact integer arrays (int64 where a bound allows it, else
Python ints), bounded witness search on indefinite ones, and the D'/D''
classification of norm -2 vectors by whether half of them lies in the dual.
"""

import math
from fractions import Fraction

from ._lazy import LazyNumpy
from .errors import NotDefinite, BoundExceeded, InvalidInput, NotInDual
from .exactalg import _symmetric_bareiss

np = LazyNumpy(globals())

# Nodes (coordinate choices) a witness search (about a second of it) or a
# Fincke-Pohst enumeration (E8: 9,196 at bound 6, 49,464 at bound 10, past the
# budget at bound 24, each well under a second) may visit before it gives up.
WITNESS_NODE_BUDGET = 1_000_000


def short_vectors(L, bound):
    """All nonzero vectors of |norm| <= bound in a definite lattice, up to
    sign: (vector, norm) pairs sorted by (|norm|, vector), each vector's first
    nonzero coordinate positive, norms with the lattice's sign.  Raises
    BoundExceeded after WITNESS_NODE_BUDGET search nodes.
    """
    X, norms = short_vector_arrays(L, bound)
    out = []  # tuples built by blocks keep the peak near the output's size
    for a in range(0, len(X), 1024):
        out += zip(zip(*X[a:a + 1024].T.tolist()), norms[a:a + 1024].tolist())
    return out


def short_vector_arrays(L, bound):
    """short_vectors as arrays (X, norms): row i of X is the i-th vector, and
    norms[i] its norm.  Both take the narrowest dtype that holds their
    values, object past int64.  Level by level from x_(n-1), a row of X is a
    partial vector with rem = e (b - its norm) left; row 0, the zero prefix,
    takes x >= 0 only, so each +-v pair is met once.
    """
    n = L.rank
    sign = -1 if n and L.gram[0][0] < 0 else 1  # the sign of a definite form
    levels = _lagrange_integers([[sign * x for x in row] for row in L.gram])
    b = math.floor(bound)  # norms are integers
    if b < 0 or not n:
        return np.zeros((0, n), np.int8), np.zeros(0, np.int8)
    X, rem, most = np.zeros((1, n), np.int8), np.array([b], object), b  # rem <= most = e b
    top, left = [0] * n, WITNESS_NODE_BUDGET  # top[j]: max |x_j| over the rows
    for i, (d, nums, k, mul, div) in zip(reversed(range(n)), levels):
        most *= mul  # rem's units e_i -> u_i
        T = math.isqrt(most // k)  # |d x + s| <= T, so |x| <= (T + S) / d + 1
        js, cs = [j for j, _ in nums], [c for _, c in nums]
        S = sum(abs(c) * top[j] for j, c in nums)  # |s| <= S
        # bounds rem and t^2, k val, d x + s, lo - cumsum(counts) and the c_j
        big = max([most + 2 * T + 1, k * (T + 1), T + 2 * S + d + left, *map(abs, cs)])
        dt = object if big >> 63 else np.int64  # no int64 value below can wrap
        X = X.astype(np.min_scalar_type(-max(*top, (T + S) // d + 1) - 1), copy=False)
        rem = rem.astype(dt, copy=False) * mul  # X: the narrowest type that holds every x
        s = (X[:, js] * np.array(cs, dt)).sum(1)
        t = _isqrt(rem // k, most)
        lo = -((s + t) // d)
        lo[0] = 0
        counts = (t - s) // d + 1 - lo
        left -= int(counts.sum())  # this level's nodes before they exist; exact sum
        if left < 0:
            raise BoundExceeded(
                f"Fincke-Pohst passed {WITNESS_NODE_BUDGET} nodes; use a smaller bound")
        counts = counts.astype(np.int64)  # each at most the nodes left
        x = np.repeat(lo - np.cumsum(counts) + counts, counts)
        x += np.arange(len(x))
        val = d * x + np.repeat(s, counts)
        X, rem = np.repeat(X, counts, axis=0), (np.repeat(rem, counts) - k * val * val) // div
        most //= div
        X[:, i] = x
        top[i] = max(-int(x.min()), int(x.max()))
        del s, t, lo, counts, x, val
    X, norms = X[1:], b - rem[1:]  # row 0 is the zero vector; e is 1 here
    X *= np.where(X[np.arange(len(X)), (X != 0).argmax(1)] < 0, -1, 1)[:, None]
    order = np.lexsort([*X.T[::-1], norms])  # by (|norm|, x_0, ..., x_(n-1))
    return X[order], (sign * norms[order]).astype(np.min_scalar_type(-b - 1))


def _isqrt(r, most):
    """Floor square roots of an integer array r, 0 <= r <= most; on int64,
    (isqrt(most) + 1)^2 < 2^63.  The float root is exact below 2^52; past
    it, rounding can lift it by one but never lower it."""
    if r.dtype == object:
        return np.array([math.isqrt(v) for v in r], object)
    t = np.sqrt(r).astype(np.int64)
    if most >> 52:
        t -= t * t > r
    return t


def _lagrange_integers(q):
    """Per level of a positive definite integer gram q, from the last, (d,
    nums, k, mul, div): norm(x) = sum_i k_i val_i^2 / u_i, val_i = d x_i + sum
    of c x_j over (j, c) in nums.  From the pivots M_i and rows a_ij of
    `_symmetric_bareiss`, g_i = gcd(M_i, a_i,i+1..n): d = M_i / g_i, c = a_ij
    / g_i, k_i / u_i = g_i^2 / (M_i M_(i-1)), u_i = lcm(e_i, its denominator)
    = mul_i e_i and e_(i-1) = gcd(M_(i-1), u_i) = u_i / div_i, e_(n-1) = 1:
    the terms of levels >= i sum to an integer over u_i and, as the norm of
    x's projection away from the first i basis vectors, over M_(i-1).
    """
    rows, prev = [], 1
    for i, p, row in _symmetric_bareiss(q):
        if i != len(rows) or p <= 0:  # Sylvester: every M_i > 0
            raise NotDefinite("Fincke-Pohst needs a definite lattice")
        g = math.gcd(p, *row)
        nums = [(j, x // g) for j, x in enumerate(row, i + 1) if x]
        rows.append((p // g, nums, Fraction(g * g, p * prev), prev))
        prev = p
    levels, e = [], 1
    for d, nums, w, m in reversed(rows):
        u = math.lcm(e, w.denominator)
        levels.append((d, nums, w.numerator * (u // w.denominator), u // e, u // math.gcd(m, u)))
        e = math.gcd(m, u)
    return levels


def witness_vector(L, target_norm, box):
    """A vector of the given norm with coordinates in [-box, box], or None.

    Semidecision only: None does not prove nonexistence.  The search runs
    in increasing sup-norm shells so cheap witnesses are found first.  It
    raises BoundExceeded after WITNESS_NODE_BUDGET nodes, so None always
    means the whole box was searched.
    """
    if box < 1:
        raise InvalidInput("box must be >= 1")
    n = L.rank
    gram = L.gram
    # setting coords[i] = x adds x (2 sum_{j<i} G_ij x_j + G_ii x) to the norm
    lower = [[(j, 2 * gram[i][j]) for j in range(i) if gram[i][j]] for i in range(n)]
    if not n:
        return None  # only the zero vector
    coords = [0] * n
    left = WITNESS_NODE_BUDGET

    def spend(nodes):
        nonlocal left
        left -= nodes
        if left < 0:
            raise BoundExceeded(
                f"witness search passed {WITNESS_NODE_BUDGET} nodes; use a smaller box")

    def dfs(i, values, norm):
        s = sum(c * coords[j] for j, c in lower[i])
        g = gram[i][i]
        if i < n - 1:
            spend(1)
            for x in values:
                coords[i] = x
                hit = dfs(i + 1, values, norm + x * (s + g * x))
                if hit:
                    return hit
            coords[i] = 0
            return None
        # the last coordinate: this node and one node per value tried, no
        # sup-norm test (a vector inside a smaller shell was missed there)
        want = target_norm - norm
        nonzero = any(coords)
        for p, x in enumerate(values):
            if x * (s + g * x) == want and (x or nonzero):
                spend(p + 2)
                return (*coords[:i], x)
        spend(len(values) + 1)
        return None

    values = ()  # shell k: 0, 1, -1, ..., k, -k; grown as reached, so the budget bounds any box
    for k in range(box + 1):
        values += (k, -k) if k else (0,)
        hit = dfs(0, values, 0)
        if hit:
            # canonical sign: first nonzero coordinate positive
            first = next(c for c in hit if c)
            return hit if first > 0 else tuple(-c for c in hit)
    return None


def disc_class_of_vector(L, lam):
    """(class of lam/2 in D_L, flag) where the flag says lam/2 is in the
    dual.  When the flag is False the class is None.
    """
    try:
        return L.disc_class([Fraction(c, 2) for c in lam]), True
    except NotInDual:
        return None, False
