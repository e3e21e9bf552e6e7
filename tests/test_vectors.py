"""Short vectors: Fincke-Pohst against a brute-force box oracle, root
counts, witness search, and dual-class flags."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

import numpy as np

from k3lat import vectors
from k3lat.errors import BoundExceeded, NotDefinite
from k3lat.lattice import (
    Lattice,
    parse_lattice,
    e8_lattice,
    e7_lattice,
    d4_lattice,
    rescale,
    direct_sum,
    hyperbolic_plane,
    m_lattice,
)
from k3lat.vectors import short_vectors, witness_vector, disc_class_of_vector


def random_definite(rng, n):
    """B^T B + diagonal bump, possibly negated: always definite."""
    while True:
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        g = [[sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        for i in range(n):
            g[i][i] += rng.randint(1, 3)
        if round(np.linalg.det(np.array(g, dtype=float))) != 0:
            break
    if rng.random() < 0.5:
        g = [[-x for x in row] for row in g]
    return Lattice(g)


def brute_force_box(L, bound):
    """Independent oracle: enumerate every coordinate box guaranteed to
    contain all vectors of |norm| <= bound (eigenvalue bound)."""
    g = np.array(L.gram, dtype=float)
    lam_min = min(abs(v) for v in np.linalg.eigvalsh(g))
    box = int(np.floor(np.sqrt(bound / lam_min) + 1e-9)) + 1
    n = L.rank
    out = set()

    def norm(v):
        total = 0
        for i in range(n):
            if v[i]:
                total += v[i] * sum(L.gram[i][j] * v[j] for j in range(n))
        return total

    def rec(i, v):
        if i == n:
            if any(v):
                nv = norm(v)
                if 0 < abs(nv) <= bound:
                    neg = tuple(-c for c in v)
                    t = tuple(v)
                    out.add((max(t, neg), nv))
            return
        for x in range(-box, box + 1):
            v[i] = x
            rec(i + 1, v)
        v[i] = 0

    rec(0, [0] * n)
    return sorted(out, key=lambda t: (abs(t[1]), t[0]))


def brute_force_dual_box(L, bound):
    """Independent oracle for larger ranks: |x_i|^2 <= |norm(x)| (G^-1)_ii
    (Cauchy-Schwarz against the dual basis) bounds each coordinate; the box
    is scanned in numpy, one value of the first coordinate at a time."""
    g = np.array(L.gram, dtype=np.int64)
    inv = np.linalg.inv(g.astype(float))
    box = [int(math.floor(math.sqrt(bound * abs(inv[i, i])) + 1e-9)) for i in range(L.rank)]
    rest = np.array(list(product(*(range(-b, b + 1) for b in box[1:]))),
                    dtype=np.int64).reshape(-1, L.rank - 1)
    out = set()
    for x0 in range(-box[0], box[0] + 1):
        pts = np.hstack([np.full((len(rest), 1), x0, dtype=np.int64), rest])
        norms = np.einsum("ki,ij,kj->k", pts, g, pts)
        for k in np.nonzero((norms != 0) & (np.abs(norms) <= bound))[0]:
            v = tuple(int(c) for c in pts[k])
            out.add((max(v, tuple(-c for c in v)), int(norms[k])))
    return sorted(out, key=lambda t: (abs(t[1]), t[0]))


def random_gram_a_t_a_plus_i(rng, n):
    """A^T A + I: positive definite with fractional Lagrange coefficients."""
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    return [[sum(a[k][i] * a[k][j] for k in range(n)) + (i == j) for j in range(n)]
            for i in range(n)]


def test_fincke_pohst_against_brute_force():
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randint(1, 5)
        L = random_definite(rng, n)
        bound = rng.randint(1, 8)
        got = short_vectors(L, bound)
        expected = brute_force_box(L, bound)
        assert sorted(got) == sorted(expected), (L.gram, bound)
    # non-diagonal root lattices, both signs, and random A^T A + I
    cases = [(Lattice([[2, -1], [-1, 2]]), b) for b in (2, 6, 14)]
    cases += [(Lattice([[-2, 1], [1, -2]]), 8)]
    cases += [(d4_lattice(), b) for b in (2, 4, 6)]
    cases += [(e7_lattice(), b) for b in (2, 4)]
    cases += [(Lattice([[-x for x in row] for row in e7_lattice().gram]), 3)]
    for _ in range(30):
        n = rng.randint(2, 5)
        g = random_gram_a_t_a_plus_i(rng, n)
        if rng.random() < 0.5:
            g = [[-x for x in row] for row in g]
        cases.append((Lattice(g), rng.randint(1, 12)))
    for L, bound in cases:
        got = short_vectors(L, bound)
        assert got == brute_force_dual_box(L, bound), (L.gram, bound)
    assert len(short_vectors(e7_lattice(), 2)) == 63  # 126 roots


def fraction_lagrange_integers(q):
    """Oracle: Lagrange's decomposition norm = sum_i q[i][i] (x_i +
    sum_{j>i} q[i][j] x_j)^2 over the rationals, put over the integers as
    D_i = lcm of row i's denominators, N_ij = D_i q[i][j] and
    K_i = scale q[i][i] / D_i^2."""
    n = len(q)
    q = [[Fraction(x) for x in row] for row in q]
    for i in range(n):
        piv = q[i][i]
        for j in range(i + 1, n):
            q[i][j] = q[i][j] / piv
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= piv * q[i][k] * q[i][l]
    dens = [math.lcm(*(q[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    nums = [[(j, q[i][j].numerator * (dens[i] // q[i][j].denominator))
             for j in range(i + 1, n) if q[i][j]] for i in range(n)]
    ratios = [q[i][i] / (dens[i] * dens[i]) for i in range(n)]
    scale = math.lcm(*(r.denominator for r in ratios))
    return dens, nums, scale, [r.numerator * (scale // r.denominator) for r in ratios]


def fraction_levels(q):
    """Oracle for _lagrange_integers, from the last level: the Fraction
    decomposition's D_i and N_ij, its weights w_i = K_i / scale, the leading
    minors M_i as products of its pivots w_i D_i^2, and the units u_i =
    lcm(e_i, den w_i), e_(i-1) = gcd(M_(i-1), u_i) from e_(n-1) = 1.
    Returns the levels and [M_-1 = 1, M_0, ..., M_(n-1)]."""
    dens, nums, scale, ks = fraction_lagrange_integers(q)
    weights = [Fraction(k, scale) for k in ks]
    minors = [Fraction(1)]
    for w, d in zip(weights, dens):
        minors.append(minors[-1] * w * d * d)
    assert all(m.denominator == 1 for m in minors)
    minors = [m.numerator for m in minors]
    levels, e = [], 1
    for i in reversed(range(len(q))):
        u = math.lcm(e, weights[i].denominator)
        e_next = math.gcd(minors[i], u)
        levels.append((dens[i], nums[i], weights[i].numerator * (u // weights[i].denominator),
                       u // e, u // e_next))
        e = e_next
    return levels, minors


def test_lagrange_integers_against_fractions():
    """short_vectors' integers from the fraction-free elimination equal the
    Fraction derivation, so the search and its node count are unchanged.
    Each level's unit u_i divides M_i M_(i-1), so the level's integers stay
    below M_i M_(i-1) b whatever the other levels' denominators; and on any
    integer x, e (b - the norm of the levels so far) stays an integer from
    level to level and ends at b - norm(x)."""
    rng = random.Random(31)
    lattices = [e8_lattice(), rescale(e8_lattice(), 2), parse_lattice("<-2>^8"),
                d4_lattice(), e7_lattice()]
    lattices += [random_definite(rng, rng.randint(1, 8)) for _ in range(60)]
    lattices += [Lattice(random_gram_a_t_a_plus_i(rng, rng.randint(2, 8))) for _ in range(40)]
    for L in lattices:
        sign = 1 if L.signature()[1] == 0 else -1
        q = [[sign * x for x in row] for row in L.gram]
        levels, minors = fraction_levels(q)
        assert vectors._lagrange_integers(q) == levels, L.gram
        n = len(q)
        for _ in range(5):
            x = [rng.randint(-3, 3) for _ in range(n)]
            b = rng.randint(-5, 60)
            rem, e = b, 1
            for i, (d, nums, k, mul, div) in zip(reversed(range(n)), levels):
                assert minors[i + 1] * minors[i] % (e * mul) == 0
                val = d * x[i] + sum(c * x[j] for j, c in nums)
                rem = rem * mul - k * val * val
                assert rem % div == 0, (L.gram, x, i)
                rem, e = rem // div, e * mul // div
            norm = sum(q[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
            assert (rem, e) == (b - norm, 1), (L.gram, x)


def test_lagrange_integers_reject_indefinite():
    for g in ([[2, 1], [1, -2]], [[0, 1], [1, 0]], [[-2]]):
        with pytest.raises(NotDefinite):
            vectors._lagrange_integers(g)


def recursive_short_vectors(L, bound):
    """Reference: the depth-first Fincke-Pohst that short_vectors replaced,
    on Python ints, one call per node.  Returns (list, nodes visited)."""
    n = L.rank
    sign = -1 if n and L.gram[0][0] < 0 else 1
    q = [[sign * x for x in row] for row in L.gram]
    dens, nums, scale, ks = fraction_lagrange_integers(q)
    budget = math.floor(bound) * scale
    out, coords, nodes = [], [0] * n, 0

    def descend(i, remaining, first):
        nonlocal nodes
        d, k = dens[i], ks[i]
        s = sum(c * coords[j] for j, c in nums[i])
        t = math.isqrt(remaining // k)
        lo = -((s + t) // d) if first else 0
        hi = (t - s) // d + 1
        nodes += hi - lo
        for x in range(lo, hi):
            coords[i] = x
            val = d * x + s
            if i:
                descend(i - 1, remaining - k * val * val, x or first)
            elif x or first:
                v = tuple(coords) if (x or first) > 0 else tuple(-c for c in coords)
                out.append((budget - remaining + k * val * val, v))
        coords[i] = 0

    if budget >= 0 and n:
        descend(n - 1, budget, 0)
    return [(v, sign * (m // scale)) for m, v in sorted(out)], nodes


def test_short_vectors_against_the_recursive_search(monkeypatch):
    """Same list and order as the depth-first search, and the same node
    count: with that budget it returns, with one node less it raises."""
    rng = random.Random(17)
    cases = [(e8_lattice(), 6), (rescale(e8_lattice(), -2), 8), (parse_lattice("<-2>^8"), 6),
             (d4_lattice(), 6), (e7_lattice(), 4), (Lattice([[2, -1], [-1, 2]]), 14)]
    cases += [(random_definite(rng, rng.randint(1, 8)), rng.randint(0, 10)) for _ in range(40)]
    cases += [(Lattice(random_gram_a_t_a_plus_i(rng, rng.randint(2, 8))), rng.randint(0, 40))
              for _ in range(40)]
    for L, bound in cases:
        want, nodes = recursive_short_vectors(L, bound)
        monkeypatch.setattr(vectors, "WITNESS_NODE_BUDGET", nodes)
        assert short_vectors(L, bound) == want, (L.gram, bound)
        if nodes:
            monkeypatch.setattr(vectors, "WITNESS_NODE_BUDGET", nodes - 1)
            with pytest.raises(BoundExceeded):
                short_vectors(L, bound)


def test_short_vectors_generic_grams_run_on_int64(monkeypatch):
    """Each level counts in its own units, which divide M_i M_(i-1): rank 8
    grams A^T A + I, whose weights' common denominator passes 2^88, run every
    level on int64 at bounds 10-40, as E8 does at bound 10.  (The third gram
    of the six has a level unit near 2^61, too large for these bounds.)"""
    rng = random.Random(8)
    grams = [random_gram_a_t_a_plus_i(rng, 8) for _ in range(6)]
    dtypes = []
    isqrt = vectors._isqrt
    monkeypatch.setattr(vectors, "_isqrt", lambda r, most: dtypes.append(r.dtype) or isqrt(r, most))
    for r in (0, 1, 3, 4, 5):
        assert fraction_lagrange_integers(grams[r])[2] >> 88
        short_vectors(Lattice(grams[r]), 10 + 6 * r)
    short_vectors(e8_lattice(), 10)
    assert dtypes == [np.dtype(np.int64)] * 48


def test_isqrt_against_math_isqrt():
    """_isqrt is math.isqrt next to squares: the bare float root below 2^52,
    the float root less its overshoot up to the largest int64 `most` with
    (isqrt(most) + 1)^2 < 2^63, and on Python ints."""
    def near_squares(roots, limit):
        return [m * m + j for m in roots for j in range(-300, 301) if 0 <= m * m + j < limit]
    most = 3037000499**2 - 1  # 3037000500^2 > 2^63 - 1
    low = near_squares([0, 1, 2, 10**6, 2**25 + 1, 2**26 - 1], 2**52)
    high = low + near_squares([2**26, 2**26 + 1, 94906267, 2**31 + 12345, 3037000498,
                               3037000499], most + 1)
    assert vectors._isqrt(np.array(low, np.int64), 2**52 - 1).tolist() == list(map(math.isqrt, low))
    assert vectors._isqrt(np.array(high, np.int64), most).tolist() == list(map(math.isqrt, high))
    huge = [v << 80 for v in high]
    assert vectors._isqrt(np.array(huge, object), huge[-1]).tolist() == list(map(math.isqrt, huge))


@pytest.mark.parametrize("g, top", [(2, 8), (1, 127), (1, 128), (2, 128), (1, 32768)])
def test_short_vectors_at_the_edges_of_narrow_dtypes(g, top):
    """<g> at bound g top^2 has the vectors x = 1..top of norm g x^2: the
    coordinates and norms reach 127/128 and 32767/32768 exactly, where a
    narrow integer type too small by one would wrap."""
    want = [((x,), g * x * x) for x in range(1, top + 1)]
    assert short_vectors(Lattice([[g]]), g * top * top) == want
    assert short_vectors(Lattice([[-g]]), g * top * top) == [(v, -n) for v, n in want]


def test_e8_root_count():
    roots = short_vectors(e8_lattice(), 2)
    assert len(roots) == 120  # 240 roots, up to sign
    assert all(n == -2 for _, n in roots)


def test_rescaled_roots():
    roots = short_vectors(rescale(e8_lattice(), 2), 4)
    assert len(roots) == 120
    assert all(n == -4 for _, n in roots)


@pytest.mark.parametrize("lattice, bound, nodes, count", [
    pytest.param(e8_lattice, 2, 369, 120, id="E8-2"),
    pytest.param(e8_lattice, 4, 2723, 1200, id="E8-4"),
    pytest.param(e8_lattice, 6, 9196, 4560, id="E8-6"),
    pytest.param(e8_lattice, 10, 49464, 28440, id="E8-10"),
    pytest.param(lambda: rescale(e8_lattice(), 2), 8, 2723, 1200, id="E8(2)-8"),
    pytest.param(lambda: parse_lattice("<-2>^8"), 6, 716, 288, id="<-2>^8-6"),
    pytest.param(d4_lattice, 6, 116, 72, id="D4-6"),
    pytest.param(e7_lattice, 4, 963, 441, id="E7-4"),
])
def test_fincke_pohst_node_budget(monkeypatch, lattice, bound, nodes, count):
    """The enumeration visits exactly `nodes` nodes (the counts of the
    depth-first search it replaced): with that budget it returns the same
    list, and with one node less it raises instead of truncating."""
    L = lattice()
    full = short_vectors(L, bound)
    assert len(full) == count
    monkeypatch.setattr(vectors, "WITNESS_NODE_BUDGET", nodes)
    assert short_vectors(L, bound) == full
    monkeypatch.setattr(vectors, "WITNESS_NODE_BUDGET", nodes - 1)
    with pytest.raises(BoundExceeded):
        short_vectors(L, bound)


@pytest.mark.parametrize("bound, limit_mib", [(24, 45), (100, 100)])
def test_fincke_pohst_raises_before_the_level_past_the_budget(bound, limit_mib):
    """E8 passes the node budget at bound 24 on a level of 802,201 nodes and
    at bound 100 on one of 4,553,992; that level's table alone would take
    49 and 278 MiB.  It raises before building it."""
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceeded):
            short_vectors(e8_lattice(), bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


def overflow_cases():
    rng = random.Random(62)
    cases = [(Lattice([[2, -1], [-1, 2]]), 14), (d4_lattice(), 6), (e8_lattice(), 4)]
    cases += [(Lattice(random_gram_a_t_a_plus_i(rng, rng.randint(2, 6))), rng.randint(1, 10))
              for _ in range(8)]
    return cases


@pytest.mark.parametrize("k", [0, 31, 56, 58, 62, 100])
def test_short_vectors_exact_at_every_scale(k):
    """On L(2^k) at bound 2^k b the search meets integers 2^k times larger
    and must return short_vectors(L, b) with norms times 2^k.  Across these
    k its levels run on int64 with float square roots exact below 2^52, on
    int64 with corrected roots, and on Python ints; a wrapped int64 anywhere
    would change the list."""
    for L, b in overflow_cases():
        want = [(v, 2**k * n) for v, n in short_vectors(L, b)]
        assert short_vectors(rescale(L, 2**k), 2**k * b) == want, (L.gram, b, k)


def u2_m7():
    """U(2) + M7(-1), the lattice of the audit's norm -4 witness."""
    return direct_sum(rescale(hyperbolic_plane(), 2), rescale(m_lattice(7), -1))


@pytest.mark.parametrize("lattice, norm, box, nodes", [
    (u2_m7, -4, 2, 16421),
    (lambda: parse_lattice("LambdaK3"), -2, 2, 47),
    (lambda: parse_lattice("U(2) + <-2>"), -2, 3, 9),
    (hyperbolic_plane, -4, 3, 29),
])
def test_witness_node_budget(monkeypatch, lattice, norm, box, nodes):
    """Each search finds its witness in exactly `nodes` nodes (one per
    coordinate value tried); one node less of budget and it raises."""
    L = lattice()
    monkeypatch.setattr(vectors, "WITNESS_NODE_BUDGET", nodes)
    v = witness_vector(L, norm, box)
    assert v is not None and L.norm(v) == norm
    monkeypatch.setattr(vectors, "WITNESS_NODE_BUDGET", nodes - 1)
    with pytest.raises(BoundExceeded):
        witness_vector(L, norm, box)


def test_witness_huge_box_is_lazy():
    """Shells are built only when the search reaches them: a witness in a
    small shell is found at once, and a box with none exhausts the node
    budget instead of building every shell first."""
    U = hyperbolic_plane()
    assert witness_vector(U, -4, 10**9) == witness_vector(U, -4, 3)
    with pytest.raises(BoundExceeded):
        witness_vector(U, 3, 10**9)  # odd norms unreachable in U


def test_short_vectors_huge_bounds_raise():
    """Bounds far past the node budget raise BoundExceeded however many
    nodes the level would have: one row of about 2^130 nodes, and two rows
    of about 2^62 and 2^62.5 nodes, each an int64, whose int64 sum wraps."""
    with pytest.raises(BoundExceeded):
        short_vectors(Lattice([[2]]), 2**130)
    with pytest.raises(BoundExceeded):
        short_vectors(Lattice([[1, 0], [0, 2**123]]), 2**124)


def test_rank_zero_searches():
    assert short_vectors(Lattice([]), 4) == []
    assert witness_vector(Lattice([]), 0, 1) is None


def test_indefinite_rejected():
    with pytest.raises(NotDefinite):
        short_vectors(hyperbolic_plane(), 2)


def test_witness_vector_hyperbolic():
    U = hyperbolic_plane()
    v = witness_vector(U, -4, 3)
    assert v is not None
    assert U.norm(v) == -4
    assert witness_vector(U, 3, 3) is None  # odd norms unreachable in U


def test_witness_vector_u2_m7():
    L = u2_m7()
    v = witness_vector(L, -4, 2)
    assert v is not None
    assert L.norm(v) == -4


def test_witness_zero_norm_excluded():
    U = hyperbolic_plane()
    v = witness_vector(U, 0, 2)
    assert v is not None and any(v)
    assert U.norm(v) == 0


def shell_brute_force(L, target_norm, box):
    """Oracle: scan each sup-norm shell in the search's order (coordinate 0
    slowest, values 0, 1, -1, 2, -2, ...), norms by the full sum."""
    n = L.rank
    for shell in range(box + 1):
        values = [0] + [s * v for v in range(1, shell + 1) for s in (1, -1)]
        for v in product(values, repeat=n):
            if not any(v) or max(abs(c) for c in v) != shell:
                continue
            norm = sum(v[i] * L.gram[i][j] * v[j] for i in range(n) for j in range(n))
            if norm == target_norm:
                first = next(c for c in v if c)
                return v if first > 0 else tuple(-c for c in v)
    return None


def test_witness_vector_first_hit_against_brute_force():
    rng = random.Random(31)
    cases = [(hyperbolic_plane(), t, 3) for t in (-6, -4, -2, 0, 2, 3)]
    cases += [(parse_lattice("U(2) + <-2>"), t, 3) for t in (-6, -4, -2, 2, 5)]
    cases += [(parse_lattice("U(2) + <2> + <-2>^2"), t, 2) for t in (-4, -2, 0, 4)]
    cases += [(d4_lattice(), t, 2) for t in (-2, -4, -6, 2)]
    for _ in range(40):
        n = rng.randint(2, 4)
        while True:
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = rng.randint(-3, 3)
            if round(np.linalg.det(np.array(g, dtype=float))) != 0:
                break
        cases.append((Lattice(g), rng.randint(-8, 8), rng.randint(1, 2)))
    hits = 0
    for L, target, box in cases:
        expected = shell_brute_force(L, target, box)
        assert witness_vector(L, target, box) == expected, (L.gram, target, box)
        hits += expected is not None
    assert hits >= 30


@pytest.mark.parametrize("N", [3, 2**20, 2**33])
@pytest.mark.parametrize("skew", ["U", "U^-1"])
def test_short_vectors_in_a_skewed_basis(N, skew):
    """Z^4 in the basis of the columns of B = U = I + N (superdiagonal) or of
    B = U^-1, whose entries are (-N)^(j - i).  A vector y of Z^4 has the
    coordinates B^-1 y: near N |y| for U and up to N^3 |y| for U^-1, past
    2^63 at N = 2^33, while every norm stays small (there the first two
    levels run on int64 and the last two on Python ints).  The list must be
    the image of Z^4's, whatever integers the search meets."""
    n, b = 4, 3
    U = [[1 if i == j else N if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    V = [[(-N) ** (j - i) if j >= i else 0 for j in range(n)] for i in range(n)]  # U^-1
    B, inv = (U, V) if skew == "U" else (V, U)
    gram = [[sum(B[k][i] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    want = set()
    for y in product(range(-1, 2), repeat=n):
        if 0 < sum(c * c for c in y) <= b:
            x = tuple(sum(inv[i][j] * y[j] for j in range(n)) for i in range(n))
            first = next(c for c in x if c)
            want.add((x if first > 0 else tuple(-c for c in x), sum(c * c for c in y)))
    assert short_vectors(Lattice(gram), b) == sorted(want, key=lambda p: (p[1], p[0]))


def test_short_vectors_levels_that_hold_huge_integers_they_do_not_use():
    """A level whose own bounds are small can still hold integers past 2^63:
    a coefficient 2^70 on a coordinate that is 0 on every short vector
    (det 2^140), or coordinates near 2^70 that its center does not use
    (norm = x_0^2 + (x_1 + 2^70 x_2)^2 + x_2^2).  Both need Python ints."""
    assert short_vectors(Lattice([[1, 2**70], [2**70, 2**141]]), 4) == [((1, 0), 1), ((2, 0), 4)]
    M = 2**70
    L = Lattice([[1, 0, 0], [0, 1, M], [0, M, M * M + 1]])
    assert short_vectors(L, 1) == [((0, 1, 0), 1), ((0, M, -1), 1), ((1, 0, 0), 1)]


def test_disc_class_flags():
    """In E8(2) every lattice vector halves into the dual; in E8 only the
    doubles do."""
    L2 = rescale(e8_lattice(), 2)
    for v, _ in short_vectors(L2, 4)[:10]:
        cls, flag = disc_class_of_vector(L2, v)
        assert flag
        assert cls is not None
    L1 = e8_lattice()
    root = short_vectors(L1, 2)[0][0]
    cls, flag = disc_class_of_vector(L1, root)
    assert not flag and cls is None
    doubled = tuple(2 * c for c in root)
    cls, flag = disc_class_of_vector(L1, doubled)
    assert flag
    assert cls == tuple()  # unimodular: trivial discriminant group
