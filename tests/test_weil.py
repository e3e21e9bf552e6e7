"""The Weil representation: exact metaplectic relations over the catalog,
unitarity and its Gauss-sum guard, the coset formula, lift component
shapes, and equivariance."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from k3lat.errors import DegenerateForm, UnsupportedInvariant
from k3lat.exactalg import CycEight
from k3lat.finiteform import (
    FiniteQuadraticForm,
    _encode,
    milgram_signature,
)
from k3lat.geography import fixture_catalog
from k3lat.lattice import parse_lattice, discriminant_form, induced_disc_matrix
from k3lat.qseries import N, psi_m, split_congruence
from k3lat import weil as weil_module
from k3lat.weil import (
    CHECK_COLUMNS,
    MAX_DENSE_A,
    CycMatrix,
    WeilAction,
    _s_eighth_is_identity,
    relation_checks,
    weil_T,
    weil_S,
    weil_word,
    weil_V,
    vk_vectors,
    one_element,
    coset_formula_check,
    lift_B,
    principal_part,
    psi_m_slash_V,
    weil_scalar,
)


def catalog_forms(max_a=8):
    seen = set()
    for fix in fixture_catalog():
        L = fix.lattice
        if not L.is_even():
            continue
        q = discriminant_form(L)
        if q.a > max_a:
            continue
        if fix.name in seen:
            continue
        seen.add(fix.name)
        yield fix.name, q


def test_s_symmetric_and_unitary():
    for name, q in catalog_forms(max_a=6):
        S = weil_S(q)
        assert S.comps.transpose(0, 2, 1).tolist() == S.comps.tolist(), name
        assert S * S.conjugate_transpose() == CycMatrix.identity(1 << q.a), name


def test_weil_s_golden_two():
    """<2>: S = (zeta^-1 / sqrt 2) [[1, 1], [1, -1]]."""
    q = discriminant_form(parse_lattice("<2>"))
    S = weil_S(q)
    scalar = CycEight.zeta_power(-1) * CycEight.sqrt2() * CycEight.half_power(1)
    assert S.entry(0, 0) == scalar
    assert S.entry(0, 1) == scalar
    assert S.entry(1, 0) == scalar
    assert S.entry(1, 1) == scalar * CycEight.integer(-1)


def test_cyc_matrix_product_past_int64():
    """A product whose entries leave int64 raises instead of wrapping; one
    whose terms do but whose entries fit is exact."""
    big = CycMatrix([[[1 << 32]], [[0]], [[0]], [[0]]], 0)
    with pytest.raises(OverflowError):
        big * big
    zero = [[0, 0], [0, 0]]
    a = CycMatrix([[[1 << 40, 1 << 40], [0, 0]], zero, zero, zero], 0)
    b = CycMatrix([[[(1 << 23) + 1, 0], [-(1 << 23), 0]], zero, zero, zero], 0)
    assert (a * b).comps[0].tolist() == [[1 << 40, 0], [0, 0]]


def test_cyc_matrix_equality_with_other_types():
    """== against an operand that is not a CycMatrix is False, not an error."""
    m = CycMatrix.identity(2)
    assert m == CycMatrix.identity(2)
    for other in (1, None, "I", [[1, 0], [0, 1]]):
        assert not m == other and m != other, other


def test_s_action_past_int64():
    """Entries at the 2^45 guard: where the transform could leave int64 it
    runs on Python ints, so the result is exact or raises OverflowError."""
    import numpy as np

    half = Fraction(1, 2)

    def diagonal_form(a):  # <2>^a: B = I
        return FiniteQuadraticForm(a, [half] * a,
                                   [[half * (i == j) for j in range(a)] for i in range(a)])

    # a = 3: exact against Python-int sums of the defining formula, and a
    # result past the guard raises
    q = diagonal_form(3)
    sigma = milgram_signature(q)
    act = WeilAction(q)
    scalar = CycEight.zeta_power(-sigma) * CycEight.sqrt2() * CycEight.half_power(2)
    comps = np.zeros((4, 8, 1), dtype=np.int64)
    x = [1 << 45, -(1 << 45), 0, 0, 0, 0, 0, 0]
    comps[0, :, 0] = x
    got = act.apply(["S"], CycMatrix(comps, 0))
    for i in range(8):
        expect = scalar * sum((-1) ** (i & j).bit_count() * x[j] for j in range(8))
        assert got.entry(i, 0) == expect
    comps[0] = 1 << 45  # sum_y X[y] = 2^48: 2^46 over the final denominator
    with pytest.raises(OverflowError):
        act.apply(["S"], CycMatrix(comps, 0))
    # a = 19: sum_y X[y] = 2^64, which int64 would wrap to 0
    q = diagonal_form(19)
    comps = np.zeros((4, 1 << 19, 1), dtype=np.int64)
    comps[0] = 1 << 45
    with pytest.raises(OverflowError):
        WeilAction(q).apply(["S"], CycMatrix(comps, 0))


def test_vk_vectors_u2():
    q = discriminant_form(parse_lattice("U(2)"))
    v = vk_vectors(q)
    assert int(v[0].sum()) == 3
    assert int(v[2].sum()) == 1
    assert int(v[1].sum()) == 0 and int(v[3].sum()) == 0
    assert int((v[0] + v[1] + v[2] + v[3]).min()) == 1


def test_one_element():
    q = discriminant_form(parse_lattice("<2>"))
    assert one_element(q) == (1,)
    q5 = discriminant_form(parse_lattice("<2>^2 + <-2>^3"))
    one = one_element(q5)
    for y in q5.elements():
        assert q5.b(one, y) == q5.q(y) % 1


def test_v_inverse_e0():
    for name, q in catalog_forms(max_a=6):
        V = weil_V(q)
        col = V.inverse().column(0)
        one = one_element(q)
        elems = q.elements()
        for idx, x in enumerate(elems):
            expect = CycEight.integer(1 if x == one else 0)
            assert col[idx] == expect, name


def test_coset_formula():
    for name, q in catalog_forms(max_a=6):
        for l in range(4):
            assert coset_formula_check(q, l), (name, l)


def test_equivariance_u2_swap():
    """Conjugating rho(S), rho(T) by the permutation induced from a lattice
    isometry fixes them."""
    import numpy as np

    L = parse_lattice("U(2)")
    q = discriminant_form(L)
    act = induced_disc_matrix(L, [[0, 1], [1, 0]])
    elems = q.elements()
    # the permutation of D_L induced by the F2 matrix
    perm = {}
    for i, x in enumerate(elems):
        y = tuple(sum(act[r][c] * x[c] for c in range(q.a)) % 2
                  for r in range(q.a))
        perm[i] = elems.index(y)
    n = len(elems)
    p = np.zeros((4, n, n), dtype=np.int64)
    for i, j in perm.items():
        p[0][j][i] = 1
    P = CycMatrix(p, 0)
    for M in (weil_S(q), weil_T(q)):
        assert P * M == M * P


def test_lift_component_shapes():
    q = discriminant_form(parse_lattice("<2>^2 + <-2>^3"))
    B = lift_B(q, 5, 8)
    assert B.weight == Fraction(-1, 2)
    zero = (0,) * 5
    e0 = B.components[zero]
    assert e0.coefficient(-2) == 1
    assert e0.coefficient(-1) == 0
    # v1/v3 classes vanish below 1/4 and 3/4
    for x in q.elements():
        k = int(2 * q.q(x)) % 4
        lead = B.components[x].leading_exponent()
        if k == 1:
            assert lead >= Fraction(1, 4)
        if k == 3 and x != one_element(q):
            assert lead >= Fraction(3, 4)


def _fields(f):
    return (f.lead, f.step, f.coeffs, f.den, f.prec_units)


def test_lift_shares_class_series():
    """One series per class k, shared by the class's other elements; e_0
    and e_{1_L} get their own sums.  Every component equals the
    per-element formula, and the lift keeps the psi_m it was built from."""
    for r, prec in [(5, 8), (8, 6), (11, 4)]:
        q = discriminant_form(parse_lattice(f"<2>^2 + <-2>^{r - 2}"))
        B = lift_B(q, r, prec)
        m = 12 - r
        big = psi_m(m, 4 * prec + 4)
        assert _fields(B.psi) == _fields(big)
        zero, one = (0,) * q.a, one_element(q)
        shared = {}
        for x, k in zip(q.elements(), q.qh_table()):
            expect = split_congruence(big, k).truncate(prec)
            if x == zero:
                expect = expect + big.truncate(prec)
            if x == one:
                expect = expect + psi_m_slash_V(m, prec)
            comp = B.components[x]
            assert _fields(comp) == _fields(expect), (r, x)
            if x not in (zero, one):
                assert shared.setdefault(k, comp) is comp


def test_lift_e1l_vanishing_order():
    for m, r_minus in [(7, 5), (5, 7)]:
        f = psi_m_slash_V(m, 4)
        assert f.leading_exponent() >= Fraction(m, 4)


def test_lift_rejects_high_rank():
    q = discriminant_form(parse_lattice("<2>^2 + <-2>^10"))
    with pytest.raises(UnsupportedInvariant, match="assumes r_- < 12"):
        lift_B(q, 12, 4)


def test_lift_rejects_sigma_and_m():
    """sigma must be 4 - r_- mod 8, and m = 12 - r_- must lie in 1..7."""
    q = discriminant_form(parse_lattice("<2>^2 + <-2>^3"))  # sigma = 7
    with pytest.raises(UnsupportedInvariant, match="sigma must equal 4 - r_- mod 8"):
        lift_B(q, 4, 4)
    q = discriminant_form(parse_lattice("<2>^2"))  # sigma = 2 = 4 - 2
    with pytest.raises(UnsupportedInvariant, match="m = 10 outside the supported range"):
        lift_B(q, 2, 4)


def test_principal_part_trivial_cases():
    from k3lat.weil import VectorValuedForm
    from k3lat.qseries import FracSeries

    q = discriminant_form(parse_lattice("<2>"))
    zeroF = VectorValuedForm(q, {(0,): FracSeries.zero(4),
                                 (1,): FracSeries.zero(4)}, 0)
    assert principal_part(zeroF) == []
    constF = VectorValuedForm(q, {(0,): FracSeries.one(4),
                                  (1,): FracSeries.zero(4)}, 0)
    assert principal_part(constF) == [((0,), 0, 1)]


def comprehension_principal_part(F):
    """The former principal_part: each component's Fraction terms made
    anew, shared series or not.  Kept as the oracle."""
    return [(x, Fraction(f.lead + i * f.step, N), Fraction(c, f.den))
            for x, f in sorted(F.components.items())
            for i, c in enumerate(f.coeffs[:max(0, -f.lead // f.step + 1)]) if c]


@pytest.mark.parametrize("r_minus", range(5, 12))
def test_principal_part_against_the_comprehension(r_minus):
    """The lift family's principal parts, terms made once per shared series,
    equal the per-component comprehension, in the same order."""
    q = discriminant_form(parse_lattice(f"<2>^2 + <-2>^{r_minus - 2}"))
    B = lift_B(q, r_minus, 8)
    assert len({id(f) for f in B.components.values()}) < len(B.components)
    want = comprehension_principal_part(B)
    assert want and principal_part(B) == want


# ---------------------------------------------------------------------------
# oracles from the defining sums over the generator data q_gen, b_mat

def oracle_q(q, x):
    ones = [i for i in range(q.a) if x[i]]
    total = sum((q.q_gen[i] for i in ones), Fraction(0))
    total += sum((2 * q.b_mat[i][j] for i in ones for j in ones if i < j), Fraction(0))
    return total % 2


def oracle_b(q, x, y):
    return sum((q.b_mat[i][j] for i in range(q.a) if x[i]
                for j in range(q.a) if y[j]), Fraction(0)) % 1


def test_one_element_against_all_pairs_scan():
    # the catalog forms up to a = 6 all have a constant diagonal; these do not
    mixed = [(e, discriminant_form(parse_lattice(e)))
             for e in ("U(2) + <2>", "<2> + U(2) + <-2>^2", "U(2) + <-2>^3")]
    checked = 0
    for name, q in list(catalog_forms(max_a=6)) + mixed:
        elems = q.elements()
        hits = [x for x in elems
                if all(oracle_b(q, x, y) == oracle_q(q, y) % 1 for y in elems)]
        assert [one_element(q)] == hits, name
        checked += 1
    assert checked >= 13
    with pytest.raises(DegenerateForm):
        one_element(FiniteQuadraticForm(2, [0, 0], [[0, 0], [0, 0]]))


def test_weil_s_entries_against_formula():
    """rho(S)[x, y] = i^(-sigma/2) 2^(-a/2) (-1)^(2b(x, y)), numerically."""
    import cmath

    checked = 0
    for name, q in catalog_forms(max_a=5):
        sigma = milgram_signature(q)
        S = weil_S(q)
        scalar = cmath.exp(-1j * cmath.pi * sigma / 4) * 2 ** (-q.a / 2)
        elems = q.elements()
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                expect = scalar * (-1 if oracle_b(q, x, y) else 1)
                assert abs(complex(S.entry(i, j)) - expect) < 1e-12, (name, x, y)
        checked += 1
    assert checked >= 8


# ---------------------------------------------------------------------------
# the matrix-free action against dense generators and dense products

def dense_S(q, sigma):
    """rho(S) from its sign matrix (E B E^T) & 1, E the element coordinates."""
    import numpy as np

    a = q.a
    scalar = CycEight.zeta_power(-sigma) * CycEight.half_power((a + 1) // 2)
    if a % 2:
        scalar = scalar * CycEight.sqrt2()
    bits = np.arange(a - 1, -1, -1)
    E = (np.arange(1 << a)[:, None] >> bits) & 1
    B = (np.array(q.rows, dtype=np.int64)[:, None] >> bits) & 1
    signs = 1 - 2 * ((E @ B @ E.T) & 1)
    return CycMatrix(np.array(scalar.coeffs)[:, None, None] * signs, scalar.denom_exp)


def dense_T(q):
    """rho(T): the diagonal of zeta^(4 q(x))."""
    import numpy as np

    k = 2 * np.array(q.qh_table(), dtype=np.int64)
    n = len(k)
    idx = np.arange(n)
    comps = np.zeros((4, n, n), dtype=np.int64)
    comps[k % 4, idx, idx] = np.where(k < 4, 1, -1)
    return CycMatrix(comps, 0)


MIXED_WORDS = (["S", "T"], ["T^-1", "S"], ["S^-1", "T", "S"],
               ["S", "T", "S^-1", "T^-1"], ["T", "T", "S^-1", "S^-1", "T^-1"])


def test_actions_against_dense_generators():
    checked = 0
    for name, q in catalog_forms(max_a=8):
        sigma = milgram_signature(q)
        S, T = dense_S(q, sigma), dense_T(q)
        act = WeilAction(q)
        ident = CycMatrix.identity(1 << q.a)
        assert act.apply(["S"], ident) == S == weil_S(q), name
        assert act.apply(["S^-1"], ident) == S.conjugate_transpose(), name
        assert act.apply(["T"], ident) == T == weil_T(q), name
        assert act.apply(["T^-1"], ident) == T.conjugate_transpose(), name
        checked += 1
    assert checked >= 8


def test_words_and_coset_formula_against_dense_products():
    checked = 0
    for name, q in catalog_forms(max_a=6):
        sigma = milgram_signature(q)
        S, T = dense_S(q, sigma), dense_T(q)
        gens = {"S": S, "S^-1": S.inverse(), "T": T, "T^-1": T.conjugate_transpose()}
        for word in MIXED_WORDS:
            expect = gens[word[0]]
            for tok in word[1:]:
                expect = expect * gens[tok]
            assert weil_word(q, word) == expect, (name, word)
        assert weil_V(q) == gens["S^-1"] * T * T * S, name
        # (S T^l)^-1 e_0 from dense products against the closed form
        a = q.a
        scalar = CycEight.zeta_power(sigma) * CycEight.half_power((a + 1) // 2)
        if a % 2:
            scalar = scalar * CycEight.sqrt2()
        for l in range(4):
            col = (S * T ** l).inverse().column(0)
            dense = all(col[x] == scalar * CycEight.zeta_power(-2 * l * k)
                        for x, k in enumerate(q.qh_table()))
            assert coset_formula_check(q, l) == dense, (name, l)
        assert all(relation_checks(q).values()), name
        checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# rho(S)^-1 = rho(S)* rests on the Gauss-sum guard alone

def all_forms(a):
    """Every FiniteQuadraticForm on (Z/2)^a: q(e_i) in (1/2)Z mod 2, and
    b(e_i, e_j) in {0, 1/2} above the diagonal."""
    half = Fraction(1, 2)
    pairs = [(i, j) for i in range(a) for j in range(i + 1, a)]
    for q_gen in product(range(4), repeat=a):
        for off in product((0, 1), repeat=len(pairs)):
            b = [[half * (q_gen[i] % 2) * (i == j) for j in range(a)] for i in range(a)]
            for (i, j), bit in zip(pairs, off):
                b[i][j] = b[j][i] = half * bit
            yield FiniteQuadraticForm(a, [half * h for h in q_gen], b)


def test_degenerate_forms_have_no_weil_scalar():
    """Every degenerate form with a <= 3 fails the Gauss sum, so rho(S)^-1
    never acts for a form where S S* != I."""
    reasons = []
    for a in range(1, 4):
        for q in all_forms(a):
            if q.is_nondegenerate():
                continue
            S = dense_S(q, 0)
            assert S * S.conjugate_transpose() != CycMatrix.identity(1 << a)
            with pytest.raises(DegenerateForm) as exc:
                weil_scalar(q)
            reasons.append(str(exc.value))
            with pytest.raises(DegenerateForm):
                WeilAction(q).apply(["S^-1"], CycMatrix.identity(1 << a, 0, 1))
    assert len(reasons) == 306
    assert reasons.count("Gauss sum vanishes") == 171
    assert reasons.count("Gauss sum has the wrong magnitude") == 135


@pytest.mark.parametrize("expr", ["<2>^2 + <-2>^9", "U(2)^2 + E8(2)"])
def test_column_checks_past_the_dense_bound(expr):
    """V^-1 e_0 and the coset formula act on one column, so they run at
    a > MAX_DENSE_A, where a full matrix is refused."""
    q = discriminant_form(parse_lattice(expr))
    act = WeilAction(q)
    assert q.a > MAX_DENSE_A
    e0 = CycMatrix.identity(act.n, 0, 1)
    j = _encode(one_element(q))
    e_one = CycMatrix.identity(act.n, j, j + 1)
    assert act.apply(["S^-1", "T^-1", "T^-1", "S"], e0) == e_one
    for l in range(4):
        assert coset_formula_check(q, l), l


# ---------------------------------------------------------------------------
# the fixed-cost shortcuts against their plain forms

def test_chained_coset_columns_against_independent_words():
    """relation_checks takes T^-l S^-1 e_0 one T^-1 at a time from its shared
    S^-1 step; its coset verdict agrees with the four coset_formula_check
    calls, each the word T^-l S^-1 on e_0 alone against the closed form
    (a <= 6; coset_formula_check alone to a = 10)."""
    checked = 0
    for name, q in catalog_forms(max_a=10):
        independent = [coset_formula_check(q, l) for l in range(4)]
        assert all(independent), name
        if q.a <= 6:  # the rest of relation_checks works on the identity block
            assert relation_checks(q)["coset_formula"], name
        checked += 1
    assert checked >= 10


def test_zero_block_maps_to_zero():
    """Every generator sends the zero block, a valid column block such as
    a difference of v_k vectors, to the zero block."""
    import numpy as np

    q = discriminant_form(parse_lattice("U(2) + A1"))
    act = WeilAction(q)
    zero = CycMatrix(np.zeros((4, act.n, 2), np.int64), 0)
    for tok in ("S", "S^-1", "T", "T^-1"):
        out = act.apply([tok], zero)
        assert out == zero and out.denom_exp == 0 and out.max_abs == 0, tok


def test_distinct_entries_both_key_paths(monkeypatch):
    """An entry's code spans the product R of its varying layers' ranges.
    R <= max(n m, 3^4) is counted (np.bincount), as for every word's
    entries; a wider R goes through np.unique on the rows of layers, also
    past int64; on each path names[index[i][j]] renders entry (i, j)."""
    import numpy as np

    paths = []
    for name in ("bincount", "unique"):
        def spy(a, *args, _f=getattr(np, name), _name=name, **kwargs):
            paths.append((_name, np.asarray(a).dtype.kind))
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np, name, spy)

    def layers(shape=(4, 3), **given):  # a matrix over 2^1 from the given layers' entries
        comps = np.zeros((4,) + shape, np.int64)
        for k, entries in given.items():
            comps[int(k[1])] = np.reshape(entries, shape)
        return CycMatrix(comps, 1)

    q = discriminant_form(parse_lattice("M5"))
    small = weil_word(q, ["S", "T", "S^-1"])
    assert small.max_abs < 1 << 15
    # an odd scale keeps the denominator, and pushes the entries past 2^15
    big = CycMatrix(small.comps * 3 ** 10, small.denom_exp)
    assert big.max_abs >= 1 << 15
    # four layers over -1..1 make R = 3^4 > n m = 12, the limit; one range of 82 is past it
    cube = [-1, 0, 1, 1, 0, -1, 0, 1, -1, 1, 1, 0]
    limit = layers(l0=cube, l1=cube[::-1], l2=cube[1:] + cube[:1], l3=cube[2:] + cube[:2])
    past = layers(l1=[-41, -3, 0, 1, 2, 3, 4, 5, 40, 3, 2, -5])
    # R = n m = 100 is counted, R = 101 is past it
    wide = layers((10, 10), l1=np.arange(100) - 50)
    wider = layers((10, 10), l1=np.arange(100) - 50 + (np.arange(100) == 99))
    # +-(2^15 - 1) in every layer, R = (2^16 - 1)^4 > 2^63
    top = (1 << 15) - 1
    edge = CycMatrix(np.array([[[top, -top, 0]], [[-top, top, 1]], [[0, top, -top]],
                               [[top, top, -top]]], dtype=np.int64), 3)
    cases = [(small, ("bincount", "i")), (limit, ("bincount", "i")),
             (past, ("unique", "i")), (wide, ("bincount", "i")), (wider, ("unique", "i")),
             (big, ("unique", "i")), (edge, ("unique", "i"))]
    for k, (mat, path) in enumerate(cases):
        del paths[:]
        names, index = mat.distinct_entries()
        assert paths == [path], (k, paths)
        assert index.shape == (mat.n, mat.comps.shape[2]) and index.dtype == np.intp
        assert len(names) == len(set(names))
        seen = set()
        for i in range(mat.n):
            for j in range(mat.comps.shape[2]):
                assert names[index[i][j]] == str(mat.entry(i, j)), (k, i, j)
                seen.add(index[i][j])
        assert seen == set(range(len(names))), k
    assert len(small.distinct_entries()[0]) == len(big.distinct_entries()[0])
    # every word's entries are counted, "<2>" --word S (R = 9 > n m = 4) among them
    for expr, word in [("<2>", ["S"]), ("U(2) + <2>", ["S", "T", "S"]),
                       ("<2>^2 + <-2>^3", ["T^-1", "S", "T", "T", "S^-1"]), ("M5", ["S", "S"])]:
        del paths[:]
        weil_word(discriminant_form(parse_lattice(expr)), word).distinct_entries()
        assert paths == [("bincount", "i")], (expr, word)


# ---------------------------------------------------------------------------
# the S step, gathered and placed by the scalar's signed terms, against the
# defining character sum

def dense_hadamard(n):
    """The n x n matrix (-1)^popcount(x & y), entry by entry."""
    import numpy as np

    i = np.arange(n)
    return np.where(np.bitwise_count(i[:, None] & i) % 2, -1, 1)


def test_walsh_hadamard_against_the_dense_matrix():
    """_walsh_hadamard on (k, n, m) stacks, k = 1..3, n = 2^a for a = 0..10,
    m = 1, 3 and n, given as strided layer slices with steps 1 and 2 (the
    slices an S step passes) of a larger array, against the dense +-1
    matrix: the slice's layers become H X, every other layer is untouched.
    The stacks lie on both sides of WHT_PRODUCT_MAX, the cut between the
    radix-8 products and the butterflies."""
    import numpy as np

    rng = np.random.default_rng(2000)
    sides = set()
    for a in range(11):
        n = 1 << a
        # exact in float64: every product and partial sum is an integer below 2^53
        h = dense_hadamard(n).astype(float)
        for k, m, step in product((1, 2, 3), sorted({1, 3, n}), (1, 2)):
            base = rng.integers(-100, 100, size=(step * (k - 1) + 3, n, m))
            layers = slice(1, 2 + step * (k - 1), step)
            out = base.copy()
            x = out[layers]
            assert x.shape == (k, n, m)
            weil_module._walsh_hadamard(x)
            assert np.array_equal(x, np.matmul(h, base[layers])), (k, n, m, step)
            rest = np.ones(len(base), bool)
            rest[layers] = False
            assert np.array_equal(out[rest], base[rest]), (k, n, m, step)
            sides.add(x.size <= weil_module.WHT_PRODUCT_MAX)
    assert sides == {True, False}


def test_walsh_hadamard_on_python_ints_past_int64():
    """An object stack with entries past 2^63, strided, on both sides of
    WHT_PRODUCT_MAX, against the dense matrix summed over Python ints."""
    import numpy as np

    rng = np.random.default_rng(2001)
    for k, a, m in ((2, 3, 2), (1, 5, 3), (2, 7, 20)):
        n = 1 << a
        base = np.empty((2 * k + 1, n, m), dtype=object)
        base[...] = [[[int(v) << 70 | int(w) for v, w in zip(rv, rw)]
                      for rv, rw in zip(lv, lw)]
                     for lv, lw in zip(rng.integers(-50, 50, size=base.shape),
                                       rng.integers(0, 1 << 30, size=base.shape))]
        out = base.copy()
        x = out[1:2 * k:2]
        weil_module._walsh_hadamard(x)
        h = dense_hadamard(n).astype(object)
        want = base.copy()
        want[1:2 * k:2] = np.matmul(h, base[1:2 * k:2])
        assert out.dtype == object and (out == want).all(), (k, a, m)
        assert max(abs(v) for v in want.flat) >> 63
        assert (x.size <= weil_module.WHT_PRODUCT_MAX) == (a < 7)


def character_signs(q):
    """The n x n array (-1)^(2b(x, y)), from oracle_b."""
    import numpy as np

    elems = q.elements()
    return np.array([[-1 if oracle_b(q, x, y) else 1 for y in elems] for x in elems])


def s_by_definition(q, sigma, block, conj, signs=None):
    """scalar * sum_y (-1)^(2b(x, y)) X[y] in CycEight arithmetic, the scalar
    i^(-sigma/2) 2^(-a/2) from its factors (conjugated for rho(S)^-1), each
    sum a dense product of the character signs, exact: on int64 where every
    sum fits, else on Python ints; a list of columns of CycEight entries."""
    import numpy as np

    scalar = CycEight.zeta_power(-sigma) * CycEight.half_power((q.a + 1) // 2)
    if q.a % 2:
        scalar = scalar * CycEight.sqrt2()
    if conj:
        scalar = scalar.conjugate()
    signs = character_signs(q) if signs is None else signs
    dtype = np.int64 if block.n * block.max_abs < 1 << 62 else object
    sums = np.matmul(signs.astype(dtype), block.comps.astype(dtype)).tolist()
    return [[scalar * CycEight([layer[x][j] for layer in sums], block.denom_exp)
             for x in range(block.n)] for j in range(block.comps.shape[2])]


S_EXACT_FORMS = ("<2>", "<-2>", "U(2)", "<2> + <-2>", "U(2) + <2>", "<-2>^3",
                 "U(2)^2", "M4", "U(2)^2 + <-2>", "M5", "U(2)^2 + <2> + <-2>",
                 "U(2)^3 + <2>")


@pytest.mark.parametrize("expr", S_EXACT_FORMS)
def test_s_steps_against_the_character_sum(expr):
    """S and S^-1 on seeded random blocks with all four layers nonzero, at
    a = 1..7 (B = I and B a swap of coordinates): for odd a the scalar has
    two terms, so two input layers land on each output layer.  Blocks of 3
    columns, one column and the full n columns: a stack of four layers runs
    the radix-8 products up to WHT_PRODUCT_MAX entries (every column block
    here, and the full block to a = 5) and the butterflies past it (the full
    block at a = 6 and 7)."""
    import numpy as np

    q = discriminant_form(parse_lattice(expr))
    sigma = milgram_signature(q)
    act = WeilAction(q)
    assert abs(act._s_tables[False][1]) == q.a % 2  # r: the scalar's second term
    signs = character_signs(q)
    rng = np.random.default_rng(1800 + q.a)
    for m, denom_exp in ((3, 0), (3, 3), (1, 3), (act.n, 1)):
        block = CycMatrix(rng.integers(-10 ** 6, 10 ** 6, size=(4, act.n, m)), denom_exp)
        assert block.comps.reshape(4, -1).any(axis=1).all()
        for tok, conj in (("S", False), ("S^-1", True)):
            got = act.apply([tok], block)
            want = s_by_definition(q, sigma, block, conj, signs)
            assert [[got.entry(i, j) for i in range(act.n)] for j in range(m)] == want, (tok, m)


def test_s_step_on_python_ints_whose_result_fits_int64():
    """A block past the int64 guard runs on Python ints, and a result that
    fits int64 comes back as int64 layers, exact.  Its layers are multiples
    of 2^40 over 2^44, so not canonical: the constructor caps canonical
    entries at 2^45, and at a = 3 only larger ones reach the guard."""
    import numpy as np

    q = discriminant_form(parse_lattice("U(2) + <2>"))
    sigma = milgram_signature(q)
    act = WeilAction(q)
    rng = np.random.default_rng(1803)
    comps = rng.integers(-(1 << 10), 1 << 10, size=(4, act.n, 2))
    comps[:, 0] = [[1 << 21, -(1 << 21)]] * 4  # one entry of 2^61 per column of each layer
    comps <<= 40
    block = CycMatrix._of(comps, 44, 1 << 61)
    _, r = act._s_tables[False]
    assert act.n * block.max_abs * (1 + abs(r)) >> 63
    for tok, conj in (("S", False), ("S^-1", True)):
        got = act.apply([tok], block)
        assert got.comps.dtype == np.int64 and got.max_abs < 1 << 45
        want = s_by_definition(q, sigma, block, conj)
        assert [[got.entry(i, j) for i in range(act.n)] for j in range(2)] == want, tok


@pytest.mark.parametrize("coeffs", [(1, 1, 0, 0), (1, 0, 0, 1), (3, 0, 0, 0),
                                    (1, 0, 2, 0), (1, 1, 1, 0), (0, 0, 0, 0)])
def test_s_tables_refuse_what_is_not_a_weil_scalar(monkeypatch, coeffs):
    """The S step places layers by the shape +-zeta^k (1 +- zeta^2); any
    other scalar raises rather than being applied wrongly."""
    monkeypatch.setattr(weil_module, "weil_scalar", lambda q, sigma=None: CycEight(coeffs, 1))
    q = discriminant_form(parse_lattice("U(2)"))
    act = WeilAction(q)
    with pytest.raises(ValueError, match="not a Weil scalar"):
        act.apply(["S"], act.identity())


def test_s_step_holds_only_its_input_and_output():
    """One S step on a full odd-a block with two nonzero layers allocates its
    result and next to nothing else: the layers are gathered into the result
    and transformed and combined there."""
    import tracemalloc

    import numpy as np

    q = discriminant_form(parse_lattice("<2>^2 + <-2>^7"))
    act = WeilAction(q)
    assert q.a == 9
    block = act.apply(["S"], act.identity())
    assert np.flatnonzero(block.comps.reshape(4, -1).any(axis=1)).tolist() == [0, 2]
    act.apply(["S"], act.apply(["S"], CycMatrix.identity(act.n, 0, 1)))  # build the tables
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = act.apply(["S"], block)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out == act.apply(["S", "S"], act.identity())
    # the result is as large as the input (8 MiB); one more layer would be 2 MiB
    assert peak < block.comps.nbytes + (1 << 18), peak


# ---------------------------------------------------------------------------
# relation_checks against the literal words, also under wrong generators

def zeta_diagonal_times(block, k):
    """Row x of block times zeta^k[x], by the rule zeta^4 = -1 alone."""
    import numpy as np

    out = np.zeros_like(block.comps)
    for j in range(4):  # zeta^k zeta^j = (-1)^(e // 4) zeta^(e % 4), e = j + (k mod 8)
        e = j + k % 8
        rows = block.comps[j] * np.where(e // 4 % 2, -1, 1)[:, None]
        for t in range(4):
            out[t][e % 4 == t] += rows[e % 4 == t]
    return CycMatrix(out, block.denom_exp)


def generic_t(exponent):
    """A WeilAction._t that multiplies row x by zeta^exponent(act, sign)[x]."""
    import numpy as np

    def _t(self, block, sign):
        return zeta_diagonal_times(block, exponent(self, sign, np.array(self.q.qh_table())))
    return _t


WRONG_GENERATORS = ("T sign flipped at odd a", "T uses zeta^qh", "scalar times zeta^2",
                    "Bx is the identity")


def install_wrong_generator(monkeypatch, wrong):
    import numpy as np

    if wrong == "T sign flipped at odd a":
        monkeypatch.setattr(WeilAction, "_t", generic_t(
            lambda act, sign, qh: 2 * sign * qh * (-1 if act.q.a % 2 else 1)))
    elif wrong == "T uses zeta^qh":
        monkeypatch.setattr(WeilAction, "_t", generic_t(lambda act, sign, qh: sign * qh))
    elif wrong == "scalar times zeta^2":
        scalar = weil_module.weil_scalar
        monkeypatch.setattr(weil_module, "weil_scalar",
                            lambda q, sigma=None: scalar(q, sigma) * CycEight.zeta_power(2))
    else:
        monkeypatch.setattr(WeilAction, "_bx", property(lambda self: np.arange(self.n)))


def literal_verdicts(q):
    """(ST)^3 = S^2 and S^8 = I as the literal words on the identity block."""
    act = WeilAction(q)
    ident = act.identity()
    return (act.apply(["S", "T"] * 3, ident) == act.apply(["S", "S"], ident),
            act.apply(["S"] * 8, ident) == ident)


def test_generic_t_is_rho_t():
    """The reference diagonal in the wrong-generator test is rho(T) itself
    when its exponent is 2 sign qh."""
    t = generic_t(lambda act, sign, qh: 2 * sign * qh)
    for name, q in catalog_forms(max_a=6):
        act = WeilAction(q)
        block = act.apply(["S", "T", "S"], act.identity())
        for sign, tok in ((1, "T"), (-1, "T^-1")):
            assert t(act, block, sign) == act.apply([tok], block), (name, tok)


def assert_relation_checks_are_literal_words(forms, wrong):
    """Every verdict of relation_checks on forms is that of its independent
    word; all hold under the true generators, and a wrong one fails some
    verdict, and some block verdict, somewhere."""
    verdicts = []
    for name, q in forms:
        got = relation_checks(q)
        act = WeilAction(q)
        e0 = CycMatrix.identity(act.n, 0, 1)
        j = _encode(one_element(q))
        e_one = CycMatrix.identity(act.n, j, j + 1)
        expect = literal_verdicts(q) + (
            act.apply(["S^-1", "T^-1", "T^-1", "S"], e0) == e_one,
            all(coset_formula_check(q, l) for l in range(4)))
        assert tuple(got.values()) == expect, name
        verdicts.append(expect)
    assert all(map(all, verdicts)) == (wrong is None)
    assert all(all(v[:2]) for v in verdicts) == (wrong is None)
    return verdicts


# a = 9: four chunks of CHECK_COLUMNS columns (E8(2) in the catalog, a = 8, makes two)
A9 = "<2>^2 + <-2>^7"


@pytest.mark.parametrize("wrong", (None,) + WRONG_GENERATORS)
def test_relation_checks_against_literal_words(monkeypatch, wrong):
    """Every verdict is that of its independent word, form by form, with
    the true generators (all True) and with each wrong one (some False):
    S T S = T^-1 S T^-1 and the scalar S^2 against the literal (ST)^3 = S^2
    and S^8 = I; V^-1 e_0 from column 0 of S I and the shared S^-1 step
    against S^-1 T^-1 T^-1 S on e_0 alone; the stacked coset columns against
    the four coset_formula_check chains.  The catalog to a = 8 and one form
    at a = 9 run the identity block in one, two and four chunks."""
    if wrong is not None:
        install_wrong_generator(monkeypatch, wrong)
    forms = list(catalog_forms(max_a=8)) + [(A9, discriminant_form(parse_lattice(A9)))]
    assert {q.a for _, q in forms} >= {8, 9} and CHECK_COLUMNS == 128
    assert len(assert_relation_checks_are_literal_words(forms, wrong)) >= 17


@pytest.mark.parametrize("wrong", (None,) + WRONG_GENERATORS)
def test_relation_checks_in_chunks_of_four(monkeypatch, wrong):
    """The same verdicts with chunks of 4 columns, over the catalog to
    a = 6: up to 16 chunks, so every chunk boundary is crossed."""
    monkeypatch.setattr(weil_module, "CHECK_COLUMNS", 4)
    if wrong is not None:
        install_wrong_generator(monkeypatch, wrong)
    forms = list(catalog_forms(max_a=6))
    assert max(q.a for _, q in forms) == 6
    assert len(assert_relation_checks_are_literal_words(forms, wrong)) >= 12


def test_relation_checks_makes_four_s_steps(monkeypatch):
    """relation_checks makes 3 S steps per chunk of the identity block (S I,
    S S and S T S, four at once with CHECK_COLUMNS = 128 up to a = 7) and one
    S^-1 step on two columns.  A count, so it repeats exactly on any host."""
    steps = []
    s_step = WeilAction._s

    def counted(self, block, conj):
        steps.append((conj, block.comps.shape[2]))
        return s_step(self, block, conj)

    monkeypatch.setattr(WeilAction, "_s", counted)
    checked = 0
    for name, q in catalog_forms(max_a=8):
        del steps[:]
        assert all(relation_checks(q).values()), name
        n = 1 << q.a
        widths = [min(CHECK_COLUMNS, n - lo) for lo in range(0, n, CHECK_COLUMNS)]
        assert sorted(steps) == sorted([(False, w) for w in widths] * 3) + [(True, 2)], name
        assert len(widths) == (2 if q.a == 8 else 1), name
        checked += 1
    assert checked >= 16


def test_relation_checks_peak_in_chunks():
    """At a = 10 (U(2)^5) relation_checks holds a few chunks of 128 columns
    (4 MiB each), not full blocks (32 MiB each, three alive at once before
    the chunks: a traced peak of 96 MiB)."""
    import tracemalloc

    q = discriminant_form(parse_lattice("U(2)^5"))
    relation_checks(discriminant_form(parse_lattice("U(2)^4")))  # numpy's first calls
    tracemalloc.start()
    try:
        checks = relation_checks(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(checks.values())
    assert peak <= 32 << 20, peak / (1 << 20)


def test_weil_check_takes_one_gauss_sum(monkeypatch):
    """`weil check` reads sigma from the action that relation_checks uses,
    so Milgram's Gauss sum runs once per call, and prints the same sigma."""
    import contextlib
    import io
    import json

    from k3lat import cli, finiteform

    calls = []

    def counted(q):
        calls.append(q)
        return milgram_signature(q)

    for module in (finiteform, weil_module, cli):
        if hasattr(module, "milgram_signature"):
            monkeypatch.setattr(module, "milgram_signature", counted)
    for expr in ("M5", "U(2)^2 + <2>", "<2>^2 + <-2>^3"):
        for fmt in ([], ["--json"]):
            del calls[:]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["weil", "check", expr] + fmt) == 0
            assert len(calls) == 1, (expr, fmt)
            sigma = milgram_signature(calls[0])
            if fmt:
                assert json.loads(out.getvalue())["sigma"] == sigma
            else:
                assert f", {sigma})" in out.getvalue().splitlines()[0]


def test_weil_check_builds_one_action_and_one_characteristic_solve(monkeypatch):
    """`weil check` solves for 1_L once, and relation_checks and the weil_S
    it calls share one action, so B x, its argsort and the scalar are built
    once; the action dies with the call, so the next check builds its own."""
    import contextlib
    import io
    import weakref

    from k3lat import cli

    built, solves = [], []
    init, solve = WeilAction.__init__, FiniteQuadraticForm.characteristic_solve

    def counted_init(self, q):
        built.append(weakref.ref(self))
        init(self, q)

    def counted_solve(self):
        solves.append(self)
        return solve(self)

    monkeypatch.setattr(WeilAction, "__init__", counted_init)
    monkeypatch.setattr(FiniteQuadraticForm, "characteristic_solve", counted_solve)
    for expr in ("M5", "U(2)^2 + <2>"):
        del built[:], solves[:]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["weil", "check", expr]) == 0
        assert len(built) == 1 and len(solves) == 1, expr
        assert built[0]() is None and not weil_module._LIVE_ACTIONS, expr


def is_scalar_block(block, lo=0):
    """Whether block is c I[:, lo:lo + m] for one c."""
    import numpy as np

    d = np.diagonal(block.comps[:, lo:lo + block.comps.shape[2]], axis1=1, axis2=2)
    return bool((d == d[:, :1]).all() and np.count_nonzero(block.comps) == np.count_nonzero(d))


def test_s_eighth_fallback_against_literal_product():
    """A block S^2 that is not scalar takes the literal S^6 S^2 = I; a
    scalar block c I is decided by c^4 = 1, which zeta S^2 and zeta^3 S^2
    miss.  Either way the verdict is the literal one, on true and
    scrambled S."""
    import numpy as np

    seen = set()
    for name, q in catalog_forms(max_a=6):
        act = WeilAction(q)
        ident = act.identity()
        s2 = act.apply(["S", "S"], ident)
        off = s2.comps.copy()
        off[:, 0, -1] = off[:, 0, 0]  # a constant diagonal, one entry off it
        blocks = [s2, CycMatrix(2 * s2.comps, s2.denom_exp), CycMatrix(off, s2.denom_exp),
                  act.apply(["S"], ident), act.apply(["T"], s2)]
        blocks += [zeta_diagonal_times(s2, np.full(act.n, k)) for k in (1, 3)]
        for k, block in enumerate(blocks):
            literal = act.apply(["S"] * 6, block) == ident
            assert _s_eighth_is_identity(act, block) is literal, (name, k)
            seen.add((is_scalar_block(block), literal))
    # U(2) with Bx read through a permutation that is not 2b: S^2 is not
    # scalar, yet S^8 = I
    q = discriminant_form(parse_lattice("U(2)"))
    act = WeilAction(q)
    act._bx = np.array([1, 0, 3, 2])
    s2 = act.apply(["S", "S"], act.identity())
    assert not is_scalar_block(s2) and _s_eighth_is_identity(act, s2)
    assert act.apply(["S"] * 8, act.identity()) == act.identity()
    seen.add((False, True))
    assert seen == {(True, True), (True, False), (False, False), (False, True)}


def test_s_eighth_per_chunk_against_literal_product():
    """Each chunk X = I[:, lo:hi] is decided from its own S^2 X alone, with
    the verdict of the literal S^6 S^2 X = X: with the true S, with Bx
    scrambled (S^2 X scalar on some chunks and not on others) and with the
    scalar halved (S^2 X = c X with c^4 != 1), in halves and quarters of
    the block."""
    import numpy as np

    rng = np.random.default_rng(30)
    seen = set()
    for name, q in catalog_forms(max_a=5):
        if q.a < 2:
            continue
        n = 1 << q.a
        for scramble in ("true", "Bx permuted", "scalar halved"):
            act = WeilAction(q)
            if scramble == "Bx permuted":
                act._bx = rng.permutation(n)
            elif scramble == "scalar halved":
                act.scalar = CycEight(act.scalar.coeffs, act.scalar.denom_exp + 1)
            for width in (n // 4, n // 2):
                for lo in range(0, n, width):
                    s2 = act.apply(["S", "S"], act.identity(lo, lo + width))
                    literal = act.apply(["S"] * 6, s2) == act.identity(lo, lo + width)
                    assert _s_eighth_is_identity(act, s2, lo) is literal, (name, scramble, lo)
                    assert literal or scramble != "true", (name, lo)
                    seen.add((scramble, is_scalar_block(s2, lo), literal))
    assert {("Bx permuted", True, True), ("Bx permuted", False, True),
            ("Bx permuted", False, False), ("scalar halved", True, False)} <= seen


def schoolbook(a, b):
    """a b in Z[z]/(z^4 + 1), term by term with z^4 = -1."""
    c = [0] * 4
    for i in range(4):
        for j in range(4):
            sign = -1 if i + j >= 4 else 1
            c[(i + j) % 4] += sign * a[i] * b[j]
    return tuple(c)


COEFFS = st.tuples(*[st.integers(-(1 << 70), 1 << 70)] * 4)


@given(COEFFS, st.integers(0, 80), COEFFS, st.integers(0, 80))
@example((1 << 64, -1, 0, 3), 0, (-(1 << 65), 0, 1, -1), 0)
@example((0, 1, 0, -1), 3, (0, 1, 0, -1), 3)
@example((0, 0, 0, 0), 5, (4, -8, 12, 0), 5)
def test_cyc_eight_product_against_schoolbook(a, ea, b, eb):
    """The closed-form negacyclic product, and the canonical denominator of
    the constructor, against the schoolbook product over 2^(ea + eb)."""
    got = CycEight(a, ea) * CycEight(b, eb)
    coeffs = schoolbook(a, b)
    shift = ea + eb - got.denom_exp
    assert shift >= 0
    assert tuple(x << shift for x in got.coeffs) == coeffs
    assert got.denom_exp == 0 or any(x % 2 for x in got.coeffs)
    assert got == CycEight(b, eb) * CycEight(a, ea)


def test_zeta_rows_against_products():
    """c zeta^j by rotation, for every j and the Weil scalars of a = 1..8
    and their conjugates, against the schoolbook product with zeta^4 = -1;
    weil_scalar, the tables zeta^k (1 + r zeta^2) of rho(S) and rho(S)^-1
    and the coset right-hand sides of every WeilAction at a <= 6 give the
    same products."""
    import numpy as np

    def zeta_coeffs(j):
        c = [0] * 4
        c[j % 4] = -1 if j % 8 >= 4 else 1
        return c

    scalars = []
    for a in range(1, 9):
        for sigma in range(8):
            s = CycEight(zeta_coeffs(-sigma)) * CycEight.half_power((a + 1) // 2)
            if a % 2:
                s = s * CycEight.sqrt2()
            scalars += [s, s.conjugate()]
    for s in scalars:
        rows = s.zeta_rows()
        assert len(rows) == 8
        for j in range(8):
            assert rows[j] == schoolbook(s.coeffs, zeta_coeffs(j)), (s, j)
            assert CycEight.zeta_power(j).coeffs == tuple(zeta_coeffs(j))
            assert (s * CycEight.zeta_power(j)).coeffs == schoolbook(s.coeffs, zeta_coeffs(j))
    def dense(table, j):
        """The coefficients of zeta^(j + k) (1 + r zeta^2), term by term."""
        k, r = table
        return [x + r * y for x, y in zip(zeta_coeffs(j + k), zeta_coeffs(j + k + 2))]

    for name, q in catalog_forms(max_a=6):
        act = WeilAction(q)
        sigma = milgram_signature(q)
        product = CycEight(zeta_coeffs(-sigma)) * CycEight.half_power((q.a + 1) // 2)
        assert act.scalar == (product * CycEight.sqrt2() if q.a % 2 else product), name
        for conj, table in act._s_tables.items():
            scalar = act.scalar.conjugate() if conj else act.scalar
            assert act.scalar.denom_exp == scalar.denom_exp
            assert 1 + abs(table[1]) == sum(map(abs, scalar.coeffs))
            assert [dense(table, j) for j in range(4)] == [
                list(schoolbook(scalar.coeffs, zeta_coeffs(j))) for j in range(4)], name
        scalar = act.scalar.conjugate()
        for l in range(4):
            col = act._coset_rhs.columns(l, l + 1)
            for x, k in enumerate(q.qh_table()):
                expect = CycEight(schoolbook(scalar.coeffs, zeta_coeffs(-2 * l * k)),
                                  scalar.denom_exp)
                assert col.entry(x, 0) == expect, (name, l, x)
        assert np.array_equal(dense(act._s_tables[False], 0), act.scalar.coeffs)
