"""The Weil representation: exact metaplectic relations over the catalog,
unitarity, the coset formula, lift component shapes, and equivariance."""

from fractions import Fraction
from itertools import product

import pytest

from k3lat.errors import DegenerateForm, SignatureMismatch, UnsupportedInvariant
from k3lat.exactalg import CycEight
from k3lat.finiteform import (
    FiniteQuadraticForm,
    milgram_signature,
    induced_disc_action,
)
from k3lat.geography import fixture_catalog
from k3lat.lattice import parse_lattice, discriminant_form
from k3lat.weil import (
    CycMatrix,
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


def test_relations_over_catalog():
    checked = 0
    for name, q in catalog_forms():
        sigma = milgram_signature(q)
        S = weil_S(q, sigma)
        T = weil_T(q)
        st3 = (S * T) ** 3
        assert st3 == S * S, name
        assert S ** 8 == CycMatrix.identity(1 << q.a), name
        checked += 1
    assert checked >= 8


def test_s_symmetric_and_unitary():
    for name, q in catalog_forms(max_a=6):
        sigma = milgram_signature(q)
        S = weil_S(q, sigma)
        assert S.comps.transpose(0, 2, 1).tolist() == S.comps.tolist(), name
        assert S * S.conjugate_transpose() == CycMatrix.identity(1 << q.a), name


def test_weil_s_golden_two():
    """<2>: S = (zeta^-1 / sqrt 2) [[1, 1], [1, -1]]."""
    q = discriminant_form(parse_lattice("<2>"))
    S = weil_S(q, 1)
    scalar = CycEight.zeta_power(-1) * CycEight.sqrt2() * CycEight.half_power(1)
    assert S.entry(0, 0) == scalar
    assert S.entry(0, 1) == scalar
    assert S.entry(1, 0) == scalar
    assert S.entry(1, 1) == scalar * CycEight.integer(-1)


def test_weil_s_sigma_mismatch():
    q = discriminant_form(parse_lattice("<2>"))
    with pytest.raises(SignatureMismatch):
        weil_S(q, 3)


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
        sigma = milgram_signature(q)
        V = weil_V(q, sigma)
        col = V.inverse().column(0)
        one = one_element(q)
        elems = q.elements()
        for idx, x in enumerate(elems):
            expect = CycEight.integer(1 if x == one else 0)
            assert col[idx] == expect, name


def test_coset_formula():
    for name, q in catalog_forms(max_a=6):
        sigma = milgram_signature(q)
        for l in range(4):
            assert coset_formula_check(q, sigma, l), (name, l)


def test_equivariance_u2_swap():
    """Conjugating rho(S), rho(T) by the permutation induced from a lattice
    isometry fixes them."""
    import numpy as np

    L = parse_lattice("U(2)")
    q = discriminant_form(L)
    sigma = milgram_signature(q)
    act = induced_disc_action(L, [[0, 1], [1, 0]])
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
    for M in (weil_S(q, sigma), weil_T(q)):
        assert P * M == M * P


def test_lift_component_shapes():
    q = discriminant_form(parse_lattice("<2>^2 + <-2>^3"))
    sigma = milgram_signature(q)
    B = lift_B(q, sigma, 5, 5, 8)
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


def test_lift_e1l_vanishing_order():
    for m, r_minus in [(7, 5), (5, 7)]:
        f = psi_m_slash_V(m, 4)
        assert f.leading_exponent() >= Fraction(m, 4)


def test_lift_rejects_high_rank():
    q = discriminant_form(parse_lattice("<2>^2 + <-2>^10"))
    sigma = milgram_signature(q)
    with pytest.raises(UnsupportedInvariant):
        lift_B(q, sigma, 12, 12, 4)


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
        S = weil_S(q, sigma)
        scalar = cmath.exp(-1j * cmath.pi * sigma / 4) * 2 ** (-q.a / 2)
        elems = q.elements()
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                expect = scalar * (-1 if oracle_b(q, x, y) else 1)
                assert abs(complex(S.entry(i, j)) - expect) < 1e-12, (name, x, y)
        checked += 1
    assert checked >= 8
