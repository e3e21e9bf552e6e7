"""The main-invariant geography of 2-elementary K3 surfaces.

Existence of even 2-elementary lattices with prescribed signature and
discriminant form, the 75-entry triplet table, the isotropic-subgroup
isogeny finder, the (g, k) fixed-locus formulas, and a catalog of every
named lattice construction used elsewhere in the package.
"""

from fractions import Fraction

from .errors import NotRealizable
from .finiteform import (
    form_invariants,
    iter_isotropic_subgroups,
    quotient_form,
)
from .lattice import (
    GlueSpec,
    direct_sum,
    discriminant_form,
    dual_rescaled,
    d4_lattice,
    e7_lattice,
    e8_lattice,
    hyperbolic_plane,
    k3_lattice,
    m_lattice,
    main_invariant,
    overlattice,
    parse_lattice,
    rescale,
    span_lattice,
)


def _form_exists(a, delta, sigma):
    """Whether a 2-elementary finite quadratic form with invariants
    (a, delta, sigma mod 8) exists.

    Enumerates decompositions into the four building blocks: the two
    rank-one odd blocks (sigma +/-1, delta 1), and the even blocks u
    (sigma 0) and v (sigma 4), both of length 2.
    """
    if a < 0:
        return False
    for j in range(a + 1):
        for k in range(a - j + 1):
            rem = a - j - k
            if rem % 2:
                continue
            if (j + k > 0) != (delta == 1):
                continue
            for n in range(rem // 2 + 1):
                if (j - k + 4 * n - sigma) % 8 == 0:
                    return True
    return False


def _lattice_exists(t_plus, t_minus, a, delta, sigma):
    """Even 2-elementary lattice existence with the given signature and
    form invariants (Nikulin's conditions).
    """
    if t_plus < 0 or t_minus < 0 or a < 0:
        return False
    if t_plus + t_minus < a:
        return False
    if (t_plus + t_minus - a) % 2:
        return False
    if (t_plus - t_minus - sigma) % 8:
        return False
    if not _form_exists(a, delta, sigma % 8):
        return False
    # boundary rank = a: the gram matrix is twice a unimodular one, and an
    # even unimodular form needs signature divisible by 8 when delta = 0
    if t_plus + t_minus == a and delta == 0 and (t_plus - t_minus) % 8:
        return False
    return True


def lattice_exists(sig, q):
    """Whether an even lattice of signature sig with discriminant form q exists."""
    t_plus, t_minus = sig
    a, delta, sigma = form_invariants(q)
    return _lattice_exists(t_plus, t_minus, a, delta, sigma)


def k3_triplet_realizable(r, a, delta):
    """Whether (r, a, delta) occurs for a 2-elementary K3 involution:
    both the hyperbolic L+ of signature (1, r-1) and the complementary
    L- of signature (2, 20-r) with the negated form must exist.
    """
    if not (1 <= r <= 20) or a < 0 or delta not in (0, 1):
        return False
    sigma = (2 - r) % 8
    if not _lattice_exists(1, r - 1, a, delta, sigma):
        return False
    # negating the form negates sigma
    return _lattice_exists(2, 20 - r, a, delta, (-sigma) % 8)


# the triplets with individually studied moduli; everything else in the
# table comes from the existence conditions
NAMED_TRIPLETS = [
    (1, 1, 1), (2, 2, 0), (5, 5, 1), (10, 2, 0), (10, 8, 0), (10, 8, 1),
    (10, 10, 0), (10, 10, 1), (11, 9, 1), (11, 11, 1), (12, 8, 1),
    (12, 10, 1), (13, 7, 1), (13, 9, 1), (14, 8, 1), (15, 7, 1),
    (16, 6, 1), (17, 5, 1), (18, 4, 0), (18, 4, 1), (19, 3, 1),
]


class GeographyEntry:
    def __init__(self, r, a, delta):
        self.triplet = (r, a, delta)
        self.g = 11 - (r + a) // 2
        self.k = (r - a) // 2
        self.named = (r, a, delta) in NAMED_TRIPLETS
        self.fixture = _FIXTURE_BY_TRIPLET.get((r, a, delta))

    def __repr__(self):
        return f"GeographyEntry{self.triplet}"


def geography_table():
    """All realizable triplets, ordered by (r, a, delta); 75 entries."""
    out = []
    for r in range(1, 21):
        for a in range(0, 23):
            for delta in (0, 1):
                if k3_triplet_realizable(r, a, delta):
                    out.append(GeographyEntry(r, a, delta))
    return out


def geometric_invariants(r, a, delta):
    """(g, k, fixed_locus_kind) of the involution fixed locus."""
    if not k3_triplet_realizable(r, a, delta):
        raise NotRealizable(f"({r},{a},{delta}) is not a K3 main invariant")
    g = 11 - (r + a) // 2
    k = (r - a) // 2
    if (r, a, delta) == (10, 10, 0):
        kind = "empty"
    elif (r, a, delta) == (10, 8, 0):
        kind = "two-elliptic-curves"
    else:
        kind = "curves"
    return g, k, kind


# ---------------------------------------------------------------------------
# isogenies from isotropic subgroups

def find_isogeny_glue(L, a_target, delta_target):
    """An isotropic subgroup G of D_L whose quotient form has invariants
    (a_target, delta_target), together with the overlattice realizing it.
    Returns (G, M) or None.
    """
    form = discriminant_form(L)
    a = form.a
    drop = a - a_target
    if drop < 0 or drop % 2:
        return None
    rank_needed = drop // 2
    lifts = L.disc_generator_lifts()
    for G in iter_isotropic_subgroups(form, 2 ** rank_needed):
        if G.rank != rank_needed:
            continue
        qq = quotient_form(form, G)
        a2, d2, _ = form_invariants(qq)
        if (a2, d2) != (a_target, delta_target):
            continue
        vectors = []
        for gen in G.generators:
            vec = [Fraction(0)] * L.rank
            for i, bit in enumerate(gen):
                if bit:
                    vec = [x + y for x, y in zip(vec, lifts[i])]
            vectors.append(vec)
        M, _index = overlattice(L, GlueSpec(vectors))
        inv = main_invariant(M)
        if (inv.a, inv.delta) == (a_target, delta_target):
            return G, M
    return None


# ---------------------------------------------------------------------------
# constructive witnesses by block sums

_HALF = Fraction(1, 2)


def _blocks():
    return [
        ("U", hyperbolic_plane(), (1, 1, 0, 0)),
        ("U(2)", rescale(hyperbolic_plane(), 2), (1, 1, 2, 0)),
        ("<2>", span_lattice(2), (1, 0, 1, 1)),
        ("<-2>", span_lattice(-2), (0, 1, 1, 1)),
        ("D4", d4_lattice(), (0, 4, 2, 0)),
        ("E7", e7_lattice(), (0, 7, 1, 1)),
        ("E8", e8_lattice(), (0, 8, 0, 0)),
        ("E8(2)", rescale(e8_lattice(), 2), (0, 8, 8, 0)),
    ]


def block_sum_witness(t_plus, t_minus, a, delta):
    """An explicit even 2-elementary lattice with the given invariants,
    assembled from standard blocks; None if the search space is exhausted.
    """
    blocks = _blocks()
    counts = [0] * len(blocks)
    found = []

    def total(idx):
        return sum(counts[i] * blocks[i][2][idx] for i in range(len(blocks)))

    def search(i):
        if found:
            return
        if i == len(blocks):
            if (total(0), total(1), total(2)) != (t_plus, t_minus, a):
                return
            has_odd = any(c and blk[2][3] for c, blk in zip(counts, blocks))
            if has_odd != (delta == 1):
                return
            pieces = []
            for c, (_, lat, _) in zip(counts, blocks):
                pieces.extend([lat] * c)
            if not pieces:
                return
            L = direct_sum(*pieces) if len(pieces) > 1 else pieces[0]
            inv = main_invariant(L)
            if inv.as_tuple() == (t_plus, t_minus, a, delta):
                found.append(L)
            return
        _, _, (p, m, aa, _) = blocks[i]
        limit = t_plus + t_minus
        top = limit
        if p:
            top = min(top, t_plus // p)
        if m:
            top = min(top, t_minus // m)
        if aa:
            top = min(top, a // aa)
        for c in range(top + 1):
            counts[i] = c
            if total(0) <= t_plus and total(1) <= t_minus and total(2) <= a:
                search(i + 1)
            counts[i] = 0

    search(0)
    return found[0] if found else None


# ---------------------------------------------------------------------------
# the fixture catalog

def _m10_glued():
    M10 = m_lattice(10)
    v = [Fraction(3, 2)] + [-_HALF] * 9
    return overlattice(M10, GlueSpec([v]))


def _u2_glued():
    base = parse_lattice("U(2) + <-2>^8")
    f1 = [Fraction(3, 2), Fraction(1)] + [-_HALF] * 8
    f2 = [_HALF, Fraction(1)] + [-_HALF] * 8
    return overlattice(base, GlueSpec([f1, f2]))


def _m12_glued():
    M12 = m_lattice(12)
    glue = []
    for i in (1, 2):
        v = [Fraction(3, 2)] + [Fraction(0)] * 11
        v[i] = Fraction(-1)
        for j in range(3, 12):
            v[j] = -_HALF
        glue.append(v)
    return overlattice(M12, GlueSpec(glue))


def _m13_glued():
    M13 = m_lattice(13)
    f1 = [_HALF] + [Fraction(0)] * 12
    for j in (2, 3, 4, 11, 12):
        f1[j] = -_HALF
    f2 = [Fraction(1)] + [Fraction(0)] * 12
    for j in (2, 5, 6, 7, 8, 9, 10, 12):
        f2[j] = -_HALF
    f3 = [Fraction(3, 2), Fraction(-1)] + [Fraction(0)] * 11
    for j in range(3, 12):
        f3[j] = -_HALF
    return overlattice(M13, GlueSpec([f1, f2, f3]))


class Fixture:
    def __init__(self, name, lattice, expected, index=None, expected_index=None):
        self.name = name
        self.lattice = lattice
        self.expected = expected  # (r_plus, r_minus, a, delta)
        self.index = index
        self.expected_index = expected_index

    def __repr__(self):
        return f"Fixture({self.name!r}, expected={self.expected})"


def fixture_catalog():
    """Every named lattice construction with its expected main invariant."""
    out = []
    out.append(Fixture("U", hyperbolic_plane(), (1, 1, 0, 0)))
    out.append(Fixture("U(2)", rescale(hyperbolic_plane(), 2), (1, 1, 2, 0)))
    out.append(Fixture("E8", e8_lattice(), (0, 8, 0, 0)))
    out.append(Fixture("E8(2)", rescale(e8_lattice(), 2), (0, 8, 8, 0)))
    out.append(Fixture("D4", d4_lattice(), (0, 4, 2, 0)))
    out.append(Fixture("LambdaK3", k3_lattice(), (3, 19, 0, 0)))
    for n in range(1, 11):
        out.append(Fixture(f"M{n}", m_lattice(n), (1, n - 1, n, 1)))
    for n in range(1, 9):
        out.append(Fixture(f"L{n}", parse_lattice(f"<2>^2 + <-2>^{n}"),
                           (2, n, n + 2, 1)))
    M, idx = _m10_glued()
    out.append(Fixture("<M10,v>", M, (1, 9, 8, 0), idx, 2))
    M, idx = _u2_glued()
    out.append(Fixture("<U(2)+<-2>^8,f1,f2>", M, (1, 9, 8, 1), idx, 2))
    M, idx = _m12_glued()
    out.append(Fixture("<M12,f1,f2>", M, (1, 11, 10, 1), idx, 2))
    out.append(Fixture("<M12,f1,f2> complement", parse_lattice("<2>^2 + <-2>^8"),
                       (2, 8, 10, 1)))
    M, idx = _m13_glued()
    out.append(Fixture("<M13,f1,f2,f3>", M, (1, 12, 9, 1), idx, 4))
    out.append(Fixture("<M13,f1,f2,f3> complement", parse_lattice("<2>^2 + <-2>^7"),
                       (2, 7, 9, 1)))
    out.append(Fixture("U(2) + M7", parse_lattice("U(2) + M7"), (2, 7, 9, 1)))
    out.append(Fixture("U(2)^2+E8", parse_lattice("U(2)^2 + E8"), (2, 10, 4, 0)))
    return out


_FIXTURE_BY_TRIPLET = {
    (10, 8, 0): "<M10,v>",
    (10, 8, 1): "<U(2)+<-2>^8,f1,f2>",
    (12, 10, 1): "<M12,f1,f2>",
    (13, 9, 1): "<M13,f1,f2,f3>",
    (10, 2, 0): "U(2)",
}


def duality_chain_check():
    """The rank/signature/|D|/parity match of the two descriptions of the
    odd lattice in the degree-4 duality: (U + <2> + <-2> + E8(2)) dual
    rescaled, against U(2) + <1> + <-1> + E8, and against the overlattice
    of U(2)^2 + E8 by (u+v)/2.
    """
    L = parse_lattice("U + <2> + <-2> + E8(2)")
    D = dual_rescaled(L)
    target = direct_sum(rescale(hyperbolic_plane(), 2), span_lattice(1),
                        span_lattice(-1), e8_lattice())
    L3 = parse_lattice("U(2)^2 + E8")
    glue = [Fraction(0), Fraction(0), _HALF, _HALF] + [Fraction(0)] * 8
    M, _ = overlattice(L3, GlueSpec([glue]))

    def key(X):
        return (X.rank, X.signature(), abs(X.det()), X.is_even())

    return key(D), key(target), key(M)
