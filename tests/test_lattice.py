"""Lattice core: parsing, invariants, discriminant groups, overlattices,
and glue maps."""

import random
from fractions import Fraction

import pytest

from k3lat.errors import (
    BoundExceeded,
    ParseError,
    OddLattice,
    NotIntegral,
    NotInDual,
    NotTwoElementary,
    NotUnimodular,
    NotGraph,
    NotIsometry,
)
from k3lat.exactalg import mat_mul
from k3lat.finiteform import _decode, iter_isotropic_subgroups
from k3lat.geography import block_sum_witness, fixture_catalog, geography_table
from k3lat.lattice import (
    Lattice,
    parse_lattice,
    serialize_lattice,
    lattice_to_json,
    lattice_from_json,
    direct_sum,
    rescale,
    overlattice,
    discriminant_group,
    discriminant_form,
    main_invariant,
    is_two_elementary,
    dual_rescaled,
    hyperbolic_plane,
    e8_lattice,
    e7_lattice,
    d4_lattice,
    m_lattice,
    span_lattice,
    k3_lattice,
    glue_map_from_embedding,
    induced_disc_matrix,
    glues_to_isometry,
    MAX_RANK,
)


EXPRS = [
    "U",
    "U(2)",
    "E8",
    "E8(2)",
    "<2>^2 + <-2>^8",
    "U + U(2) + E8",
    "M10",
    "LambdaK3",
    "A1",
    "<1> + <-1>",
]


def test_parse_round_trip():
    for expr in EXPRS:
        L = parse_lattice(expr)
        again = parse_lattice(serialize_lattice(L))
        assert again.gram == L.gram


def test_parse_errors_carry_position():
    """The position is that of the offending character, past the blanks."""
    with pytest.raises(ParseError) as exc:
        parse_lattice("U + ??")
    assert exc.value.position == 4
    assert str(exc.value) == "unexpected character '?' (at position 4)"


@pytest.mark.parametrize("expr, message, position", [
    ("", "empty expression", 0),
    ("   ", "empty expression", 0),
    ("U +", "dangling '+'", 2),
    ("+ U", "expected a lattice atom, got '+'", 0),
    ("U^", "dangling '^'", 1),
    ("U^0", "power must be >= 1", 2),
    ("U^-1", "power must be >= 1", 2),
    ("U^U", "power must be an integer, got 'U'", 2),
    ("U E8", "expected '+', got 'E8'", 2),
    ("5", "unknown atom '5'", 0),
    ("U(0)", "scale factor must be nonzero", 0),
    ("E8(0)", "scale factor must be nonzero", 0),
    ("<0>", "rank-1 lattice <0> is degenerate", 0),
    ("M0", "M_n needs n >= 1", 0),
])
def test_parse_error_messages(expr, message, position):
    """Each ParseError raise of the parser, with its message and position."""
    with pytest.raises(ParseError) as exc:
        parse_lattice(expr)
    assert exc.value.position == position
    assert str(exc.value) == f"{message} (at position {position})"


def test_parse_error_through_the_cli(capsys):
    """`k3lat lat info` on a bad expression exits 2 with one error line."""
    from k3lat.cli import main

    assert main(["lat", "info", "U^U"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: power must be an integer, got 'U' (at position 2)\n"


def test_rank_bound():
    """parse_lattice builds ranks up to MAX_RANK and refuses larger sums, and
    M_n past it, before it builds a Gram matrix."""
    assert parse_lattice(f"U + <-2>^{MAX_RANK - 2}").rank == MAX_RANK
    for expr in (f"U + <-2>^{MAX_RANK - 1}", f"M{MAX_RANK + 1}", "<2>^100000",
                 "M100000", "LambdaK3^5"):
        with pytest.raises(BoundExceeded):
            parse_lattice(expr)


def test_json_round_trip():
    L = parse_lattice("U(2) + <2>")
    again = lattice_from_json(lattice_to_json(L))
    assert again.gram == L.gram


def test_basic_invariants():
    U = hyperbolic_plane()
    assert U.signature() == (1, 1)
    assert U.det() == -1
    assert U.is_even()

    E8 = e8_lattice()
    assert E8.signature() == (0, 8)
    assert E8.det() == 1
    assert E8.is_even()

    E7 = e7_lattice()
    assert E7.signature() == (0, 7)
    assert E7.det() == -2

    D4 = d4_lattice()
    assert D4.signature() == (0, 4)
    assert D4.det() == 4

    K3 = k3_lattice()
    assert K3.signature() == (3, 19)
    assert abs(K3.det()) == 1


def test_discriminant_group_orders():
    orders, lifts = discriminant_group(parse_lattice("U(2)"))
    assert orders == [2, 2]
    L = parse_lattice("E8(2)")
    assert L.disc_orders() == [2] * 8
    # |D_L| = |det|
    for expr in EXPRS:
        L = parse_lattice(expr)
        prod = 1
        for d in L.disc_orders():
            prod *= d
        assert prod == abs(L.det())


def test_disc_generator_lifts_live_in_dual():
    for expr in ["U(2)", "E8(2)", "<2>^2 + <-2>^4", "M10"]:
        L = parse_lattice(expr)
        for lift in L.disc_generator_lifts():
            assert L.in_dual(lift)
            assert L.disc_class(lift) != tuple([0] * len(L.disc_orders()))


def test_main_invariant_examples():
    assert main_invariant(parse_lattice("U(2)")).as_tuple() == (1, 1, 2, 0)
    assert main_invariant(parse_lattice("E8(2)")).as_tuple() == (0, 8, 8, 0)
    assert main_invariant(parse_lattice("<2>^2 + <-2>^8")).as_tuple() == (2, 8, 10, 1)
    assert main_invariant(parse_lattice("LambdaK3")).as_tuple() == (3, 19, 0, 0)


def test_main_invariant_rejects_odd_and_non_elementary():
    with pytest.raises(OddLattice):
        main_invariant(parse_lattice("<1>"))
    with pytest.raises(NotTwoElementary):
        main_invariant(Lattice([[6]]))


def test_discriminant_form_additivity():
    L1 = parse_lattice("U(2)")
    L2 = parse_lattice("<2> + <-2>")
    q12 = discriminant_form(direct_sum(L1, L2))
    q1 = discriminant_form(L1)
    q2 = discriminant_form(L2)
    assert q12.a == q1.a + q2.a
    from k3lat.finiteform import form_invariants

    a, d, s = form_invariants(q12)
    a1, d1, s1 = form_invariants(q1)
    a2, d2, s2 = form_invariants(q2)
    assert (a, d, s) == (a1 + a2, max(d1, d2), (s1 + s2) % 8)


def test_overlattice_index_law():
    """|D_M| * index^2 = |D_L| for every glue."""
    E8 = e8_lattice()
    L = rescale(E8, 2)
    # glue by half of a norm -4 vector times 2: any root r of E8(2) has
    # r/|..| .. use generator lifts instead
    for lift in L.disc_generator_lifts()[:3]:
        try:
            M, index = overlattice(L, [lift])
        except NotIntegral:
            continue
        dl = abs(L.det())
        dm = abs(M.det())
        assert dm * index * index == dl


def test_overlattice_trivial_glue():
    L = parse_lattice("U + E8")
    M, index = overlattice(L, [[0] * 10])
    assert index == 1
    assert M.gram == L.gram


def test_basis_in_ambient_is_made_on_read():
    """An overlattice's basis_in_ambient is made on each read, as columns of
    Fractions over one denominator that map M's basis into L's rational
    span with M's gram; a lattice that is not an overlattice has none."""
    L = m_lattice(10)
    M, index = overlattice(L, [[Fraction(3, 2)] + [Fraction(-1, 2)] * 9])
    first = M.basis_in_ambient
    assert first == M.basis_in_ambient and first is not M.basis_in_ambient
    assert all(type(x) is Fraction for row in first for x in row)
    cols = [[row[j] for row in first] for j in range(L.rank)]
    assert [[fraction_pair(L, x, y) for y in cols] for x in cols] == M.gram
    first[0][0] += 1  # a caller's edit does not reach the next read
    assert M.basis_in_ambient != first
    for plain in (L, parse_lattice("U + E8"), Lattice(M.gram)):
        assert not hasattr(plain, "basis_in_ambient")
        with pytest.raises(AttributeError):
            plain.basis_in_ambient


def test_lift_over_two_against_generator_lifts():
    """On every block-sum witness, the lift over 2 of a D_L element is the sum
    of its generators' lifts, and lies in that element's class."""
    rng = random.Random(31)
    for e in geography_table():
        r, a, delta = e.triplet
        for sig in ((1, r - 1), (2, 20 - r)):
            L = block_sum_witness(*sig, a, delta)
            lifts = L.disc_generator_lifts()
            for bits in [[1] * a] + [[rng.randrange(2) for _ in range(a)] for _ in range(3)]:
                lift = L.lift_over_two(bits)
                picked = [x for x, bit in zip(lifts, bits) if bit]
                assert lift == [sum((x[r] for x in picked), Fraction(0)) for r in range(L.rank)]
                assert L.disc_class(lift) == tuple(bits), (sig, a, delta, bits)


def test_overlattice_rejects_bad_glue():
    L = parse_lattice("U(2)")
    with pytest.raises(ValueError, match="wrong length"):
        overlattice(L, [[Fraction(1, 2)]])
    with pytest.raises(NotInDual):
        overlattice(L, [[Fraction(1, 4), 0]])


def test_dual_rescaled_involution():
    for expr in ["U(2)", "E8(2)", "<2> + <-2>^3"]:
        L = parse_lattice(expr)
        D = dual_rescaled(L)
        assert D.rank == L.rank
        # L-dual(2) of the dual comes back to the original invariants
        DD = dual_rescaled(D)
        assert sorted(DD.disc_orders()) == sorted(L.disc_orders())
        assert DD.signature() == L.signature()


def test_glue_map_anti_isometry():
    """U(2) + U(2) glued to a unimodular lattice: the glue map is the graph
    of an anti-isometry D_L -> D_M."""
    L = parse_lattice("U(2)")
    M = parse_lattice("U(2)")
    # diagonal glue: (x + x)/1 classes; generators of the glue group are
    # (e_i + f_i)/2 summed pairs: here the standard U+U split works with
    # glue vectors (u1+u2)/... build directly:
    glue = [
        [Fraction(1, 2), 0, Fraction(1, 2), 0],
        [0, Fraction(1, 2), 0, Fraction(1, 2)],
    ]
    lam = glue_map_from_embedding(L, M, glue)
    assert lam == [[1, 0], [0, 1]]


def test_glue_map_rejects_non_graphs():
    """Even unimodular gluings whose glue group is not the graph of a map
    D_L -> D_M raise NotGraph, each with its own message."""
    h = Fraction(1, 2)
    L = parse_lattice("U(2)")
    # e/2 in each factor: (e, 0) and (0, e') span a group of order 2^a_L
    # whose projection to D_L sends (0, e') to 0
    with pytest.raises(NotGraph, match="projects non-injectively to D_L"):
        glue_map_from_embedding(L, parse_lattice("U(2)"),
                                [[h, 0, 0, 0], [0, 0, h, 0]])
    # e/2 in each of the three U(2): a glue group of order 8 != 2^a_L
    M = parse_lattice("U(2) + U(2)")
    glue = [[h, 0, 0, 0, 0, 0], [0, 0, h, 0, 0, 0], [0, 0, 0, 0, h, 0]]
    with pytest.raises(NotGraph, match="not the graph of a bijection D_L -> D_M"):
        glue_map_from_embedding(L, M, glue)


def test_glue_map_rejects_glued_lattices_it_cannot_read():
    """The glued lattice must be unimodular and even, and both factors
    2-elementary."""
    with pytest.raises(NotUnimodular, match="glued lattice has det 16"):
        glue_map_from_embedding(parse_lattice("U(2)"), parse_lattice("U(2)"), [])
    with pytest.raises(NotUnimodular, match="glued lattice is not even"):
        glue_map_from_embedding(parse_lattice("<1>"), parse_lattice("<-1>"), [])
    # (1/4, 1/4) has norm 0, so <4> + <-4> glues to an even unimodular lattice
    with pytest.raises(NotTwoElementary):
        glue_map_from_embedding(parse_lattice("<4>"), parse_lattice("<-4>"),
                                [[Fraction(1, 4), Fraction(1, 4)]])


def test_glue_map_of_unimodular_factors_is_empty():
    """U with U and no glue: a_L = a_M = 0 and the map has no columns."""
    lam = glue_map_from_embedding(parse_lattice("U"), parse_lattice("U"), [])
    assert lam == []


def test_glues_to_isometry():
    L = parse_lattice("U(2)")
    M = parse_lattice("U(2)")
    glue = [
        [Fraction(1, 2), 0, Fraction(1, 2), 0],
        [0, Fraction(1, 2), 0, Fraction(1, 2)],
    ]
    lam = glue_map_from_embedding(L, M, glue)
    ident = [[1, 0], [0, 1]]
    swap = [[0, 1], [1, 0]]
    assert glues_to_isometry(L, M, lam, ident, ident)
    assert not glues_to_isometry(L, M, lam, swap, ident)
    assert glues_to_isometry(L, M, lam, swap, swap)


def test_induced_disc_matrix_requires_isometry():
    L = parse_lattice("U(2)")
    with pytest.raises(NotIsometry):
        induced_disc_matrix(L, [[1, 1], [0, 1]])
    swap = induced_disc_matrix(L, [[0, 1], [1, 0]])
    assert swap == [[0, 1], [1, 0]]


def test_induced_disc_matrix_checks_q_and_b(monkeypatch):
    """Generator images that break q or b raise NotIsometry.  The gram check
    cannot fail this way, so disc_class is patched to hand out the images;
    on U(2) both generators have q = 0 and b(e_1, e_2) = 1/2."""
    L = parse_lattice("U(2)")
    assert discriminant_form(L).qh_gen == [0, 0]
    ident = [[1, 0], [0, 1]]
    for images, message in [(((1, 1), (0, 1)), "fails to preserve q"),
                            (((1, 0), (1, 0)), "fails to preserve b")]:
        calls = iter(images)
        monkeypatch.setattr(Lattice, "disc_class", lambda self, x: next(calls))
        with pytest.raises(NotIsometry, match=message):
            induced_disc_matrix(L, ident)
    calls = iter(((1, 0), (0, 1)))
    assert induced_disc_matrix(L, ident) == ident


def test_m_lattice_gram():
    M10 = m_lattice(10)
    assert M10.rank == 10
    assert M10.gram[0][0] == 2
    assert all(M10.gram[i][i] == -2 for i in range(1, 10))
    assert M10.signature() == (1, 9)


def test_parse_runs_no_elimination(monkeypatch):
    """A parsed lattice takes det and signature from its blocks and runs no
    `_symmetric_bareiss` pass, whatever the expression; `Lattice(gram)`
    validates and runs exactly one, and both agree."""
    import k3lat.exactalg as exactalg_module

    passes = []
    real_pass = exactalg_module._symmetric_bareiss

    def counting_pass(m):
        passes.append(len(m))
        return real_pass(m)

    monkeypatch.setattr(exactalg_module, "_symmetric_bareiss", counting_pass)
    for expr in EXPRS + ATOM_EXPRS + ["E8(2)^12", "U(2)^48", "U(-2)^3 + E8(-1) + M7"]:
        parse_lattice(expr)
    L = parse_lattice("U(2) + E8(2)")
    assert passes == []
    M = Lattice(L.gram)
    assert passes == [10]
    for lat in (L, M):
        assert lat.det() == -1024 and lat.signature() == (1, 9)
    assert passes == [10]


def test_singular_gram_rejected_at_construction():
    """Singular grams (one past the hyperbolic pivot, one with no pivot at
    all, one of rank 1) raise at construction, so signature() never sees a
    zero part."""
    for gram in ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], [[0, 0], [0, 0]], [[1, 2], [2, 4]]):
        with pytest.raises(ValueError, match="nonsingular"):
            Lattice(gram)


def test_gram_entries_must_be_integral():
    """Non-integral entries raise instead of being truncated; integral
    values of any numeric type are accepted."""
    with pytest.raises(ValueError, match="must be integers"):
        Lattice([[2.7, 1], [1, -2]])
    with pytest.raises(ValueError, match="must be integers"):
        lattice_from_json('{"gram":[[2.5,0],[0,-2]]}')
    with pytest.raises(ValueError, match="must be integers"):
        Lattice([[Fraction(1, 2), 0], [0, 2]])
    for two in (2, 2.0, Fraction(4, 2)):
        L = Lattice([[two, 1], [1, -2]])
        assert L.gram == [[2, 1], [1, -2]] and L.det() == -5
        assert all(type(x) is int for row in L.gram for x in row)
    assert lattice_from_json('{"gram":[[2.0,0],[0,-2]]}').det() == -4


def test_dual_rescaled_is_twice_the_inverse():
    """G times the dual(2) gram is 2 I on every fixture, however the dual
    is computed; a lattice that is not 2-elementary has no dual(2)."""
    for fix in fixture_catalog():
        L = fix.lattice
        n = L.rank
        prod = mat_mul(L.gram, dual_rescaled(L).gram)
        assert prod == [[2 * (i == j) for j in range(n)] for i in range(n)], fix.name
    with pytest.raises(NotTwoElementary):
        dual_rescaled(parse_lattice("U(3)"))


def test_rescale_det():
    L = parse_lattice("U")
    assert rescale(L, 2).det() == -4
    assert rescale(L, -1).det() == -1


# ---------------------------------------------------------------------------
# oracles: the defining sums x^T G y over the rationals, term by term

def fraction_pair(L, x, y):
    return sum(Fraction(x[i]) * L.gram[i][j] * Fraction(y[j])
               for i in range(L.rank) if x[i]
               for j in range(L.rank) if y[j] and L.gram[i][j])


def lift_of(lifts, bits):
    """The sum of the D_L generator lifts picked out by an F2 vector."""
    out = [Fraction(0)] * len(lifts[0])
    for bit, lift in zip(bits, lifts):
        if bit:
            out = [x + y for x, y in zip(out, lift)]
    return out


DISC_EXPRS = (
    ["U(2) + M7", "U(2)^2 + E8", "U(2)^2 + E8(2)", "U(2)^2 + <-2>^8",
     "U(2) + E8(2) + <-2>^2"]
    + [f"M{n}" for n in range(1, 13)]
    + [f"<2>^2 + <-2>^{n}" for n in range(1, 11)]
)


def test_discriminant_form_against_defining_sums():
    """q_gen and b_mat of every even 2-elementary fixture and expression up
    to a = 12 equal L.pair and the rational sums on the generator lifts."""
    lattices = [f.lattice for f in fixture_catalog()]
    lattices += [d4_lattice()] + [parse_lattice(e) for e in DISC_EXPRS]
    seen_a = set()
    for L in lattices:
        if not (L.is_even() and is_two_elementary(L)):
            continue
        form = discriminant_form(L)
        lifts = L.disc_generator_lifts()
        assert form.a == len(lifts) <= 12
        seen_a.add(form.a)
        for i, x in enumerate(lifts):
            assert L.norm(x) == fraction_pair(L, x, x)
            assert form.q_gen[i] == fraction_pair(L, x, x) % 2
            for j, y in enumerate(lifts):
                assert L.pair(x, y) == fraction_pair(L, x, y)
                assert form.b_mat[i][j] == fraction_pair(L, x, y) % 1
    assert seen_a >= set(range(13))


def test_discriminant_form_integer_path_against_fraction_constructor():
    """The form read off W = V^T G V with one parity check equals the one the
    validating Fraction constructor builds from q = W_ii / 4, b = W_ij / 4,
    on every fixture and expression up to a = 12; an odd entry of W is
    refused by both."""
    from k3lat.finiteform import FiniteQuadraticForm

    lattices = [f.lattice for f in fixture_catalog()]
    lattices += [d4_lattice()] + [parse_lattice(e) for e in DISC_EXPRS]
    seen_a = set()
    for L in lattices:
        if not (L.is_even() and is_two_elementary(L)):
            continue
        d, u, v, nontrivial = L._snf_data()
        cols = [[row[i] for row in v] for i in nontrivial]
        w = [[sum(x * g * y for x, row in zip(c, L.gram) for g, y in zip(row, e))
              for e in cols] for c in cols]
        ref = FiniteQuadraticForm(len(w), [Fraction(w[i][i], 4) for i in range(len(w))],
                                  [[Fraction(x, 4) for x in row] for row in w])
        form = discriminant_form(L)
        assert form.qh_gen == ref.qh_gen and form.rows == ref.rows, L
        assert form.q_gen == ref.q_gen and form.b_mat == ref.b_mat, L
        assert form == ref and form.a <= 12, L
        seen_a.add(form.a)
    assert seen_a >= set(range(13))
    for w in ([[1]], [[2, 1], [1, 2]], [[4, 2, 0], [2, 2, 3], [0, 3, 0]]):
        with pytest.raises(ValueError):
            FiniteQuadraticForm.from_lift_gram(w)
        with pytest.raises(ValueError):
            FiniteQuadraticForm(len(w), [Fraction(w[i][i], 4) for i in range(len(w))],
                                [[Fraction(x, 4) for x in row] for row in w])


OVERLATTICE_CASES = ["U(2)", "<2> + <-2>^3", "U(2) + <-2>^4", "E8(2)", "M10",
                     "<2>^2 + <-2>^8", "U(2)^2 + E8(2)"]


def _check_overlattice(L, glue):
    """overlattice(L, glue) against the defining sums: NotIntegral exactly
    when two glue vectors pair non-integrally, else a Gram matrix equal to
    the pairings of basis_in_ambient and |det L| = index^2 |det M|."""
    integral = all(fraction_pair(L, g, h).denominator == 1
                   for g in glue for h in glue)
    if not integral:
        with pytest.raises(NotIntegral, match="glue vectors pair non-integrally"):
            overlattice(L, glue)
        return False
    M, index = overlattice(L, glue)
    cols = [[row[j] for row in M.basis_in_ambient] for j in range(L.rank)]
    for i, x in enumerate(cols):
        for j, y in enumerate(cols):
            assert M.gram[i][j] == fraction_pair(L, x, y)
    assert abs(L.det()) == index * index * abs(M.det())
    return True


def test_overlattice_gram_against_pairwise_sums():
    built = 0
    for expr in OVERLATTICE_CASES:
        L = parse_lattice(expr)
        form = discriminant_form(L)
        lifts = L.disc_generator_lifts()
        if form.a <= 6:
            # every single glue vector, isotropic or not
            for x in range(1, 2 ** form.a):
                built += _check_overlattice(L, [lift_of(lifts, _decode(x, form.a))])
        for order in (2, 4, 8):
            for k, G in enumerate(iter_isotropic_subgroups(form, order)):
                if k == 6:
                    break
                built += _check_overlattice(L, [lift_of(lifts, g) for g in G.generators])
    # glue vectors that are not the reduced lifts, as in the catalog
    M10 = m_lattice(10)
    built += _check_overlattice(M10, [[Fraction(3, 2)] + [Fraction(-1, 2)] * 9])
    M13 = m_lattice(13)
    f1 = [Fraction(1, 2)] + [0] * 12
    for j in (2, 3, 4, 11, 12):
        f1[j] = Fraction(-1, 2)
    f2 = [1] + [0] * 12
    for j in (2, 5, 6, 7, 8, 9, 10, 12):
        f2[j] = Fraction(-1, 2)
    built += _check_overlattice(M13, [f1, f2, [2 * c for c in f1]])
    assert built >= 40


# ---------------------------------------------------------------------------
# det and signature assembled from the blocks, against a fresh elimination

ATOM_EXPRS = (["U", "U(2)", "U(-2)", "U(3)", "E8", "E8(2)", "E8(-1)", "E8(-2)", "A1",
               "<1>", "<-1>", "<2>", "<-2>", "<-6>", "<7>"]
              + [f"M{n}" for n in range(1, 13)])


def random_block_sum(rng):
    """A seeded sum of rescaled atoms (E7 and D4 included) of rank at most
    MAX_RANK; the sum itself is rescaled one time in four."""
    blocks = [parse_lattice(e) for e in ATOM_EXPRS + ["LambdaK3"]]
    blocks += [e7_lattice(), d4_lattice()]
    pieces, rank = [], 0
    for _ in range(rng.randint(1, 12)):
        L = rescale(rng.choice(blocks), rng.choice([1, 1, -1, 2, -2, 3, -5]))
        if rank + L.rank > MAX_RANK:
            break
        pieces.append(L)
        rank += L.rank
    out = direct_sum(*pieces)
    return rescale(out, rng.choice([-2, -1, 3])) if rng.random() < 0.25 else out


def assembled_cases():
    """(name, lattice) for lattices whose det and signature come from their
    blocks: every parser atom, LambdaK3, the rank-96 sums, case1_report's
    U(2) + M7(-1) partner, the 150 block_sum_witness lattices and 60 seeded
    random block sums."""
    for expr in ATOM_EXPRS + ["LambdaK3", "E8(2)^12", "U(2)^48"]:
        yield expr, parse_lattice(expr)
    yield "U(2) + M7(-1)", direct_sum(rescale(hyperbolic_plane(), 2), rescale(m_lattice(7), -1))
    for e in geography_table():
        r, a, delta = e.triplet
        yield f"L+ {e.triplet}", block_sum_witness(1, r - 1, a, delta)
        yield f"L- {e.triplet}", block_sum_witness(2, 20 - r, a, delta)
    rng = random.Random(24)
    for k in range(60):
        yield f"random {k}", random_block_sum(rng)


def test_assembled_det_and_signature_against_elimination():
    """Every assembled lattice has the det and signature that `Lattice` reads
    off one elimination of its gram, which it also validates (square,
    symmetric, integral, nonsingular), and one label per basis vector."""
    checked = 0
    for name, L in assembled_cases():
        fresh = Lattice(L.gram)
        assert (L.det(), L.signature()) == (fresh.det(), fresh.signature()), name
        assert len(L.labels) == L.rank, name
        checked += 1
    assert checked == len(ATOM_EXPRS) + 3 + 1 + 2 * 75 + 60


def test_literal_atoms_match_elimination():
    """U, E8, E7 and D4 carry literal det and signature; <0> still raises."""
    for L in (hyperbolic_plane(), e8_lattice(), e7_lattice(), d4_lattice()):
        fresh = Lattice(L.gram)
        assert (L.det(), L.signature()) == (fresh.det(), fresh.signature()), L.expr
    with pytest.raises(ValueError, match="nonsingular"):
        span_lattice(0)


def test_each_call_builds_its_own_rows():
    """Atoms, rescales and sums are fresh objects: changing one result's gram
    or labels leaves every later call's unchanged."""
    makers = (hyperbolic_plane, e8_lattice, e7_lattice, d4_lattice, k3_lattice,
              lambda: m_lattice(3), lambda: span_lattice(-2),
              lambda: rescale(e8_lattice(), 2), lambda: parse_lattice("E8(2)^2"),
              lambda: parse_lattice("A1"))
    for make in makers:
        a, b = make(), make()
        a.gram[0][0] += 1
        a.labels[0] = "changed"
        assert make().gram == b.gram != a.gram
        assert make().labels == b.labels != a.labels


def test_integral_scale_factors():
    """Scale factors and <k> entries are integers of any numeric type, as
    gram entries are; a non-integral one raises."""
    U = hyperbolic_plane()
    for two in (2, 2.0, Fraction(4, 2)):
        L = rescale(U, two)
        assert L.gram == [[0, 2], [2, 0]] and L.det() == -4 and L.expr == "U(2)"
        assert all(type(x) is int for row in L.gram for x in row)
        assert span_lattice(two).gram == [[2]] and span_lattice(two).expr == "<2>"
    for bad in (Fraction(1, 2), 2.5):
        with pytest.raises(ValueError, match="must be integers"):
            rescale(parse_lattice("U(2)"), bad)
        with pytest.raises(ValueError, match="must be integers"):
            span_lattice(bad)


# ---------------------------------------------------------------------------
# (a, delta) carried by the blocks, against the Smith form of a fresh gram

def invariant_or_error(L):
    """main_invariant as a tuple, or the class and message it raises."""
    try:
        return main_invariant(L).as_tuple()
    except (OddLattice, NotTwoElementary) as exc:
        return type(exc), str(exc)


def test_block_invariants_against_smith_form():
    """main_invariant and is_two_elementary of every assembled lattice, E7,
    D4 and the empty sum, each rescaled by 1, -1, 2, -2, 3 and -5 (the
    random sums only by 1: their blocks already are), equal those of
    `Lattice(L.gram)`, which derives them from the Smith form: the same
    tuple, or the same exception class and message.  Where main_invariant
    raises, the lattice carries no (a, delta) (it would have returned it),
    so is_two_elementary runs the fresh lattice's Smith form and is not
    compared."""
    outcomes = set()
    cases = [*assembled_cases(), ("E7", e7_lattice()), ("D4", d4_lattice()),
             ("empty sum", direct_sum())]
    for name, L in cases:
        for n in (1,) if name.startswith("random") else (1, -1, 2, -2, 3, -5):
            M = rescale(L, n)
            fresh = Lattice(M.gram)
            got = invariant_or_error(M)
            assert got == invariant_or_error(fresh), (name, n)
            if isinstance(got[0], type):
                outcomes.add(got[0])
            else:
                assert is_two_elementary(M) and is_two_elementary(fresh), (name, n)
                outcomes.add("ok")
    assert outcomes == {"ok", OddLattice, NotTwoElementary}
    assert main_invariant(direct_sum()).as_tuple() == (0, 0, 0, 0)


def test_main_invariant_runs_no_smith_form(monkeypatch, capsys):
    """main_invariant and is_two_elementary read (a, delta) off a parsed even
    2-elementary lattice with no Smith form, even at rank 96; `Lattice(gram)`
    runs exactly one; and `lat info` prints the same bytes, text and --json,
    as on a fresh gram of the same lattice, "n/a" cases included."""
    import k3lat.lattice as lattice_module
    from k3lat import cli

    exprs = []
    for expr in EXPRS + ATOM_EXPRS + ["E8(2)^12", "U(2)^48"]:
        fresh = Lattice(parse_lattice(expr).gram)
        if fresh.is_even() and is_two_elementary(fresh):
            exprs.append(expr)
    assert len(exprs) == 33 and "LambdaK3" in exprs

    calls = []
    real_snf = lattice_module.smith_normal_form

    def counting_snf(m):
        calls.append(len(m))
        return real_snf(m)

    monkeypatch.setattr(lattice_module, "smith_normal_form", counting_snf)
    for expr in exprs:
        L = parse_lattice(expr)
        assert is_two_elementary(L) and main_invariant(L).triplet[0] == L.rank
    assert calls == []
    M = Lattice(parse_lattice("U(2) + E8(2)").gram)
    assert is_two_elementary(M) and main_invariant(M).as_tuple() == (1, 9, 10, 0)
    assert calls == [10]

    def lat_info(*argv):
        assert cli.main(["lat", "info", *argv]) == 0
        return capsys.readouterr().out

    real_parse = cli.parse_lattice
    for expr in ATOM_EXPRS + ["E8(2)^12", "U(2)^48", "<1> + U", "E8(4)"]:
        for flags in ([], ["--json"]):
            blocks = lat_info(expr, *flags)
            with monkeypatch.context() as m:
                m.setattr(cli, "parse_lattice", lambda e: Lattice(real_parse(e).gram))
                assert lat_info(expr, *flags) == blocks, (expr, flags)
    for expr in ("U(3)", "<1> + U", "E8(4)"):
        assert "n/a" in lat_info(expr), expr
