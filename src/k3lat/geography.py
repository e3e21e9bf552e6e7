"""The main-invariant geography of 2-elementary K3 surfaces.

Existence of even 2-elementary lattices with prescribed signature and
discriminant form, the 75-entry triplet table, the isotropic-subgroup
isogeny finder, the (g, k) fixed-locus formulas, and a catalog of every
named lattice construction used elsewhere in the package.
"""

import functools
from fractions import Fraction

from .errors import NotRealizable
from .finiteform import form_invariants, iter_isotropic_subgroups
from .lattice import (
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


def _lattice_exists(t_plus, t_minus, a, delta, sigma):
    """Whether an even 2-elementary lattice of signature (t_plus, t_minus)
    with form invariants (a, delta, sigma mod 8) exists.

    Nikulin's existence theorem ("Integral symmetric bilinear forms and some
    of their applications", 1979, Thm 3.6.2), with r = t_plus + t_minus and
    s = t_plus - t_minus mod 8; Milgram's formula asks for s = sigma.
    """
    if t_plus < 0 or t_minus < 0:
        return False
    r = t_plus + t_minus
    s = (t_plus - t_minus) % 8
    if s != sigma % 8 or not 0 <= a <= r or (r - a) % 2:
        return False
    if delta == 0 and s % 4:
        return False
    if a == 0:
        return delta == 0 and s == 0
    if a == 1:
        return s in (1, 7)
    if a == 2 and s == 4:
        return delta == 0
    # rank = a: the gram matrix is twice an even unimodular one when delta = 0
    return not (delta == 0 and a == r and s)


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
        # the fixed locus is a genus-g curve and k rational curves
        self.g = 11 - (r + a) // 2
        self.k = (r - a) // 2
        self.named = (r, a, delta) in NAMED_TRIPLETS

    def __repr__(self):
        return f"GeographyEntry{self.triplet}"


def geography_table():
    """All realizable triplets, ordered by (r, a, delta); 75 entries."""
    return list(_geography_entries())


@functools.cache
def _geography_entries():
    """The table's entries, computed once per process."""
    return tuple(GeographyEntry(r, a, delta) for r in range(1, 21) for a in range(23)
                 for delta in (0, 1) if k3_triplet_realizable(r, a, delta))


_FIXED_LOCUS_KIND = {(10, 10, 0): "empty", (10, 8, 0): "two-elliptic-curves"}


def geometric_invariants(r, a, delta):
    """(g, k, fixed_locus_kind) of the involution fixed locus."""
    if not k3_triplet_realizable(r, a, delta):
        raise NotRealizable(f"({r},{a},{delta}) is not a K3 main invariant")
    entry = GeographyEntry(r, a, delta)
    kind = _FIXED_LOCUS_KIND.get(entry.triplet, "curves")
    return entry.g, entry.k, kind


# ---------------------------------------------------------------------------
# isogenies from isotropic subgroups

def find_isogeny_glue(L, a_target, delta_target):
    """An isotropic subgroup G of D_L whose quotient form has invariants
    (a_target, delta_target), together with the overlattice realizing it.
    Returns (G, M) or None.

    The overlattice M of G has D_M = Gperp/G (Nikulin, "Integral symmetric
    bilinear forms and some of their applications", 1979, Prop. 1.4.1), so
    a rank-k G gives a = a_L - 2k.  Its delta is 0 exactly when the
    characteristic element gamma of D_L (b(gamma, y) = q(y) mod 1 for all y)
    lies in G: q is integral on Gperp iff gamma is in Gperp-perp = G.
    """
    form = discriminant_form(L)
    drop = form.a - a_target
    gamma, _ = form.characteristic_solve()
    # M is even 2-elementary with L's signature, so Milgram's sigma of q_M is
    # t_plus - t_minus mod 8; this also rules out an odd drop
    t_plus, t_minus = L.signature()
    if (drop < 0 or (gamma == 0 and delta_target == 1) or not _lattice_exists(
            t_plus, t_minus, a_target, delta_target, (t_plus - t_minus) % 8)):
        return None
    rank_needed = drop // 2
    for G in iter_isotropic_subgroups(form, 2 ** rank_needed):
        if G.rank != rank_needed or int(not G._has(gamma)) != delta_target:
            continue
        M, _index = overlattice(L, [L.lift_over_two(gen) for gen in G.generators])
        inv = main_invariant(M)
        if (inv.a, inv.delta) == (a_target, delta_target):
            return G, M
    return None


# ---------------------------------------------------------------------------
# constructive witnesses by block sums

@functools.cache
def _witness_blocks():
    """The standard blocks with their main invariants (r_plus, r_minus, a,
    delta), in search order."""
    blocks = (hyperbolic_plane(), rescale(hyperbolic_plane(), 2), span_lattice(2),
              span_lattice(-2), d4_lattice(), e7_lattice(), e8_lattice(),
              rescale(e8_lattice(), 2))
    return tuple((L, main_invariant(L).as_tuple()) for L in blocks)


def _block_counts(invariants, rest):
    """Multiplicities of the blocks, in lexicographic order, whose
    (r_plus, r_minus, a) add up to rest."""
    if not invariants:
        if not any(rest):
            yield ()
        return
    head = invariants[0][:3]
    top = min(x // h for x, h in zip(rest, head) if h)
    for c in range(top + 1):
        left = tuple(x - c * h for x, h in zip(rest, head))
        for tail in _block_counts(invariants[1:], left):
            yield (c,) + tail


def block_sum_witness(t_plus, t_minus, a, delta):
    """An explicit even 2-elementary lattice with the given invariants,
    assembled from standard blocks; None if the search space is exhausted.

    Main invariants add over direct sums (delta is the largest of the
    summands'), so the first multiplicities that add up to the target and
    contain an odd block exactly when delta = 1 give the witness.
    """
    blocks = _witness_blocks()
    for counts in _block_counts([inv for _, inv in blocks], (t_plus, t_minus, a)):
        has_odd = any(c and inv[3] for c, (_, inv) in zip(counts, blocks))
        if any(counts) and has_odd == (delta == 1):
            return direct_sum(*(L for c, (L, _) in zip(counts, blocks) for _ in range(c)))
    return None


# ---------------------------------------------------------------------------
# the fixture catalog

_HALF = Fraction(1, 2)


def _m10_glued():
    M10 = m_lattice(10)
    v = [Fraction(3, 2)] + [-_HALF] * 9
    return overlattice(M10, [v])


def _u2_glued():
    base = parse_lattice("U(2) + <-2>^8")
    f1 = [Fraction(3, 2), Fraction(1)] + [-_HALF] * 8
    f2 = [_HALF, Fraction(1)] + [-_HALF] * 8
    return overlattice(base, [f1, f2])


def _m12_glued():
    f1 = [Fraction(3, 2), -1, 0] + [-_HALF] * 9
    f2 = [Fraction(3, 2), 0, -1] + [-_HALF] * 9
    return overlattice(m_lattice(12), [f1, f2])


def _m13_glued():
    f1 = [_HALF, 0, -_HALF, -_HALF, -_HALF] + [0] * 6 + [-_HALF, -_HALF]
    f2 = [1, 0, -_HALF, 0, 0] + [-_HALF] * 6 + [0, -_HALF]
    f3 = [Fraction(3, 2), -1, 0] + [-_HALF] * 9 + [0]
    return overlattice(m_lattice(13), [f1, f2, f3])


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
    M, _ = overlattice(L3, [glue])

    def key(X):
        return (X.rank, X.signature(), abs(X.det()), X.is_even())

    return key(D), key(target), key(M)
