"""Short vectors: Fincke-Pohst against a brute-force box oracle, root
counts, witness search, and dual-class flags."""

import math
import random
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


def test_lagrange_integers_against_fractions():
    """short_vectors' integers from the fraction-free elimination equal the
    Fraction derivation, so the search and its node count are unchanged."""
    rng = random.Random(31)
    lattices = [e8_lattice(), rescale(e8_lattice(), 2), parse_lattice("<-2>^8"),
                d4_lattice(), e7_lattice()]
    lattices += [random_definite(rng, rng.randint(1, 8)) for _ in range(60)]
    lattices += [Lattice(random_gram_a_t_a_plus_i(rng, rng.randint(2, 8))) for _ in range(40)]
    for L in lattices:
        sign = 1 if L.signature()[1] == 0 else -1
        q = [[sign * x for x in row] for row in L.gram]
        assert vectors._lagrange_integers(q) == fraction_lagrange_integers(q), L.gram


def test_lagrange_integers_reject_indefinite():
    for g in ([[2, 1], [1, -2]], [[0, 1], [1, 0]], [[-2]]):
        with pytest.raises(NotDefinite):
            vectors._lagrange_integers(g)


def test_e8_root_count():
    roots = short_vectors(e8_lattice(), 2)
    assert len(roots) == 120  # 240 roots, up to sign
    assert all(n == -2 for _, n in roots)


def test_rescaled_roots():
    roots = short_vectors(rescale(e8_lattice(), 2), 4)
    assert len(roots) == 120
    assert all(n == -4 for _, n in roots)


def test_fincke_pohst_node_budget(monkeypatch):
    """E8 at bound 6 visits 9,196 nodes, far under WITNESS_NODE_BUDGET; one
    node less of budget and the enumeration raises instead of truncating."""
    monkeypatch.setattr(vectors, "WITNESS_NODE_BUDGET", 9196)
    assert len(short_vectors(e8_lattice(), 6)) == 4560
    monkeypatch.setattr(vectors, "WITNESS_NODE_BUDGET", 9195)
    with pytest.raises(BoundExceeded):
        short_vectors(e8_lattice(), 6)


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
