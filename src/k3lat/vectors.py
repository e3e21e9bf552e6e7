"""Short-vector machinery: Fincke-Pohst enumeration on definite lattices in
exact integer arithmetic, bounded witness search on indefinite ones, and the
D'/D'' classification of norm -2 vectors by whether half of them lies in
the dual.
"""

import math
from collections import defaultdict
from fractions import Fraction

from .errors import NotDefinite, BoundExceeded, InvalidInput, NotInDual
from .exactalg import _symmetric_bareiss

# Nodes (coordinate choices) a witness search or a Fincke-Pohst enumeration
# may visit before it gives up; about a second of search.  short_vectors on E8
# needs 9,196 at bound 6 and 49,464 at bound 10, and exceeds the budget at
# bound 24.
WITNESS_NODE_BUDGET = 1_000_000


def short_vectors(L, bound):
    """All nonzero vectors of |norm| <= bound in a definite lattice, up to
    sign.  Returns (vector, norm) pairs sorted by (|norm|, vector); norms
    carry the sign of the lattice.  Raises BoundExceeded after
    WITNESS_NODE_BUDGET search nodes.
    """
    n = L.rank
    sign = -1 if n and L.gram[0][0] < 0 else 1  # the sign of a definite form
    dens, nums, scale, ks = _lagrange_integers([[sign * x for x in row] for row in L.gram])
    budget = math.floor(bound) * scale  # norms are integers
    out = defaultdict(list)  # scale |norm| -> [v], v's first nonzero coordinate positive
    coords = [0] * n
    left = WITNESS_NODE_BUDGET

    def descend(i, remaining, first):
        """Choose coords[i] given the budget left for levels <= i; first is
        the first nonzero higher coordinate.  While there is none, only
        x_i >= 0, so each +-v pair is met once.  Level 0 emits in place."""
        nonlocal left
        d, k = dens[i], ks[i]
        s = sum(c * coords[j] for j, c in nums[i])
        t = math.isqrt(remaining // k)  # |d x + s| <= t
        lo = -((s + t) // d) if first else 0
        hi = (t - s) // d + 1
        left -= hi - lo  # this node's children, counted in one step
        if left < 0:
            raise BoundExceeded(
                f"Fincke-Pohst passed {WITNESS_NODE_BUDGET} nodes; use a smaller bound")
        if i:
            for x in range(lo, hi):
                coords[i] = x
                val = d * x + s
                descend(i - 1, remaining - k * val * val, x or first)
            coords[i] = 0
            return
        tail = tuple(coords[1:])
        neg = tuple(-c for c in tail) if lo < 0 or first < 0 else None
        used = budget - remaining
        for x in range(lo, hi):
            val = d * x + s
            f = x or first  # the sign of (x, tail); 0 at the zero vector
            if f > 0:
                out[used + k * val * val].append((x,) + tail)
            elif f:
                out[used + k * val * val].append((-x,) + neg)

    if budget >= 0 and n:
        descend(n - 1, budget, 0)
    return [(v, sign * (m // scale)) for m in sorted(out) for v in sorted(out[m])]


def _lagrange_integers(q):
    """(dens, nums, scale, ks) of a positive definite integer gram q, with
    scale * norm(x) = sum_i ks[i] (dens[i] x_i + sum_{(j, c) in nums[i]} c x_j)^2.
    From the pivots M_i and rows a_ij of `_symmetric_bareiss`, with g_i =
    gcd(M_i, a_i,i+1..n): D_i = M_i / g_i, N_ij = a_ij / g_i and level
    weight g_i^2 / (M_i M_(i-1)); scale clears the weights' denominators.
    """
    dens, nums, weights = [], [], []
    prev = 1
    for i, p, row in _symmetric_bareiss(q):
        if i != len(dens) or p <= 0:  # Sylvester: every M_i > 0
            raise NotDefinite("Fincke-Pohst needs a definite lattice")
        g = math.gcd(p, *row)
        dens.append(p // g)
        nums.append([(j, x // g) for j, x in enumerate(row, i + 1) if x])
        h = math.gcd(g * g, p * prev)
        weights.append((g * g // h, p * prev // h))
        prev = p
    scale = math.lcm(*(d for _, d in weights))
    return dens, nums, scale, [k * (scale // d) for k, d in weights]


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
