"""Short-vector machinery: Fincke-Pohst enumeration on definite lattices in
exact integer arithmetic, bounded witness search on indefinite ones, and the
D'/D'' classification of norm -2 vectors by whether half of them lies in
the dual.
"""

import math
from fractions import Fraction

from .errors import NotDefinite, BoundExceeded, InvalidInput

# Nodes (coordinate choices) a witness search or a Fincke-Pohst enumeration
# may visit before it gives up; about a second of search.  The searches the
# Kodaira audit runs need at most 16,421 nodes; short_vectors on E8 needs
# 9,196 at bound 6 and 49,464 at bound 10, and exceeds the budget at bound 24.
WITNESS_NODE_BUDGET = 1_000_000


def short_vectors(L, bound):
    """All nonzero vectors of |norm| <= bound in a definite lattice, up to
    sign.  Returns (vector, norm) pairs sorted by (|norm|, vector); norms
    carry the sign of the lattice.  Raises BoundExceeded after
    WITNESS_NODE_BUDGET search nodes.
    """
    n_plus, n_minus = L.signature()
    if n_plus and n_minus:
        raise NotDefinite("Fincke-Pohst needs a definite lattice")
    sign = 1 if n_minus == 0 else -1
    n = L.rank
    # Lagrange decomposition: norm = sum_i q[i][i] (x_i + sum_{j>i} q[i][j] x_j)^2
    q = [[Fraction(sign * x) for x in row] for row in L.gram]
    for i in range(n):
        piv = q[i][i]
        if piv <= 0:
            raise NotDefinite("gram matrix is not definite")
        for j in range(i + 1, n):
            q[i][j] = q[i][j] / piv
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= piv * q[i][k] * q[i][l]
    # The same over the integers: with D_i = dens[i] the common denominator
    # of row i, N_ij = D_i q[i][j] and scale the common denominator of the
    # q[i][i] / D_i^2, scale times level i's term is
    # K_i (D_i x_i + sum_{j>i} N_ij x_j)^2 with K_i = ks[i].
    dens = [math.lcm(*(q[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    nums = [[(j, q[i][j].numerator * (dens[i] // q[i][j].denominator))
             for j in range(i + 1, n) if q[i][j]] for i in range(n)]
    ratios = [q[i][i] / (dens[i] * dens[i]) for i in range(n)]
    scale = math.lcm(*(r.denominator for r in ratios))
    ks = [r.numerator * (scale // r.denominator) for r in ratios]
    budget = math.floor(Fraction(bound) * scale)
    out = []
    coords = [0] * n
    left = WITNESS_NODE_BUDGET

    def descend(i, remaining, half):
        """Choose coords[i] given the budget left for levels <= i; while
        every higher coordinate is zero (half), only x_i >= 0, so each +-v
        pair is met once."""
        nonlocal left
        if i < 0:
            if not half:
                out.append((tuple(coords), sign * ((budget - remaining) // scale)))
            return
        d, k = dens[i], ks[i]
        s = sum(c * coords[j] for j, c in nums[i])
        t = math.isqrt(remaining // k)  # |d x + s| <= t
        lo = 0 if half else -((s + t) // d)
        hi = (t - s) // d + 1
        left -= hi - lo  # this node's children, counted in one step
        if left < 0:
            raise BoundExceeded(
                f"Fincke-Pohst passed {WITNESS_NODE_BUDGET} nodes; use a smaller bound")
        for x in range(lo, hi):
            coords[i] = x
            val = d * x + s
            descend(i - 1, remaining - k * val * val, half and not x)
        coords[i] = 0

    if budget >= 0:
        descend(n - 1, budget, True)
    result = [(max(v, tuple(-c for c in v)), norm) for v, norm in out]
    result.sort(key=lambda t: (abs(t[1]), t[0]))
    return result


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
    coords = [0] * n
    left = WITNESS_NODE_BUDGET

    def dfs(i, shell, norm):
        nonlocal left
        left -= 1
        if left < 0:
            raise BoundExceeded(
                f"witness search passed {WITNESS_NODE_BUDGET} nodes; use a smaller box")
        if i == n:
            # no sup-norm test: a vector inside a smaller shell missed there
            if norm == target_norm and any(coords):
                return tuple(coords)
            return None
        s = sum(c * coords[j] for j, c in lower[i])
        g = gram[i][i]
        for x in _shell_range(shell):
            coords[i] = x
            hit = dfs(i + 1, shell, norm + x * (s + g * x))
            if hit:
                return hit
        coords[i] = 0
        return None

    for shell in range(box + 1):
        hit = dfs(0, shell, 0)
        if hit:
            # canonical sign: first nonzero coordinate positive
            first = next(c for c in hit if c)
            return hit if first > 0 else tuple(-c for c in hit)
    return None


def _shell_range(shell):
    # 0, 1, -1, ..., shell, -shell: deterministic, small values first
    yield 0
    for v in range(1, shell + 1):
        yield v
        yield -v


def disc_class_of_vector(L, lam):
    """(class of lam/2 in D_L, flag) where the flag says lam/2 is in the
    dual.  When the flag is False the class is None.
    """
    half = [Fraction(c, 2) for c in lam]
    if not L.in_dual(half):
        return None, False
    return L.disc_class(half), True
