"""Finite quadratic forms on F2 vector spaces: Milgram signatures, isotropy,
quotients, isometries, and induced actions."""

from fractions import Fraction

import pytest

from k3lat.errors import NotIsotropic
from k3lat.finiteform import (
    FiniteQuadraticForm,
    milgram_signature,
    parity_delta,
    form_invariants,
    forms_isometric,
    isotropic_subgroups,
    quotient_form,
    orthogonal_group_order,
    isometry_witness,
    induced_disc_action,
    matrix_group_order,
    SubgroupSpec,
)
from k3lat.lattice import (
    parse_lattice,
    discriminant_form,
    direct_sum,
    induced_disc_matrix,
)
from k3lat.geography import fixture_catalog


def form_of(expr):
    return discriminant_form(parse_lattice(expr))


def test_milgram_over_catalog():
    """Gauss sum signature = r+ - r- mod 8 for every catalog lattice."""
    count = 0
    for fix in fixture_catalog():
        L = fix.lattice
        if not L.is_even():
            continue
        q = discriminant_form(L)
        r_plus, r_minus = L.signature()
        assert milgram_signature(q) == (r_plus - r_minus) % 8, fix.name
        count += 1
    assert count >= 20


def test_form_invariants_examples():
    assert form_invariants(form_of("U(2)")) == (2, 0, 0)
    assert form_invariants(form_of("E8(2)")) == (8, 0, 0)
    assert form_invariants(form_of("<2>")) == (1, 1, 1)
    assert form_invariants(form_of("<-2>")) == (1, 1, 7)
    assert form_invariants(form_of("<2>^2 + <-2>^8")) == (10, 1, 2)


def test_milgram_additivity():
    q1 = form_of("U(2)")
    q2 = form_of("<2> + <-2>^3")
    s = q1.direct_sum(q2)
    assert milgram_signature(s) == (milgram_signature(q1)
                                    + milgram_signature(q2)) % 8


def test_parity_delta():
    assert parity_delta(form_of("U(2)")) == 0
    assert parity_delta(form_of("<2>")) == 1
    assert parity_delta(form_of("E8(2)")) == 0


def test_isotropic_subgroups_quotient_invariant():
    """Quotient by an isotropic F2^k drops a by 2k and keeps sigma."""
    q = form_of("U(2) + U(2)")
    subs = isotropic_subgroups(q, max_order=2)
    nontrivial = [G for G in subs if len(G.generators) == 1]
    assert nontrivial
    for G in nontrivial[:4]:
        qq = quotient_form(q, G)
        a, d, s = form_invariants(qq)
        a0, d0, s0 = form_invariants(q)
        assert a == a0 - 2
        assert s == s0


def test_quotient_rejects_non_isotropic():
    q = form_of("<2>")
    g = SubgroupSpec([(1,)], 1)
    with pytest.raises(NotIsotropic):
        quotient_form(q, g)


def test_forms_isometric_by_invariants():
    assert forms_isometric(form_of("U(2) + U(2)"),
                           form_of("U(2) + U(2)"))
    assert not forms_isometric(form_of("U(2)"), form_of("<2> + <-2>"))
    # delta-1 forms of equal (a, sigma) are isometric
    assert forms_isometric(form_of("<2> + <-2>"), form_of("<-2> + <2>"))


def test_isometry_witness_agrees_with_invariants():
    """Brute-force witness search agrees with the invariant classification
    for all small-a pairs."""
    from k3lat.lattice import d4_lattice

    exprs = ["U(2)", "<2> + <-2>", "<2>^2", "<-2>^2", "<2>^3 + <-2>"]
    forms = [form_of(e) for e in exprs]
    forms.append(discriminant_form(d4_lattice()))
    for i, q1 in enumerate(forms):
        for q2 in forms[i:]:
            if q1.a != q2.a:
                continue
            w = isometry_witness(q1, q2)
            assert (w is not None) == forms_isometric(q1, q2)


def test_orthogonal_group_orders():
    # O(q_U(2)) = S2 x 1: classes u*, v* swap; (u*+v*) has q = 1, fixed
    assert orthogonal_group_order(form_of("U(2)")) == 2
    assert orthogonal_group_order(form_of("<2>")) == 1
    # q of <2>+<-2>: the q values 0, 1/2, 3/2, 0 pin both generators
    assert orthogonal_group_order(form_of("<2> + <-2>")) == 1


def test_induced_action_homomorphism():
    """Lattice isometries map to form isometries compatibly."""
    L = parse_lattice("U(2)")
    swap = [[0, 1], [1, 0]]
    mat = induced_disc_matrix(L, swap)
    act = induced_disc_action(L, swap)
    assert mat == act
    assert matrix_group_order([act]) == 2


def test_matrix_group_order_s3():
    """Two transpositions on F2^3 generate S3."""
    t1 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    t2 = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert matrix_group_order([t1, t2]) == 6


def test_degenerate_b_detected():
    q = FiniteQuadraticForm(2, [0, 0], [[0, 0], [0, 0]])
    assert not q.is_nondegenerate()
    assert form_of("U(2)").is_nondegenerate()


# ---------------------------------------------------------------------------
# oracles from the defining sums over the generator data q_gen, b_mat

def oracle_q(q, x):
    """q(x) = sum_i x_i q(e_i) + sum_{i<j} x_i x_j 2b(e_i, e_j) mod 2."""
    ones = [i for i in range(q.a) if x[i]]
    total = sum((q.q_gen[i] for i in ones), Fraction(0))
    total += sum((2 * q.b_mat[i][j] for i in ones for j in ones if i < j), Fraction(0))
    return total % 2


def oracle_b(q, x, y):
    """b(x, y) = sum_{i,j} x_i y_j b(e_i, e_j) mod 1."""
    return sum((q.b_mat[i][j] for i in range(q.a) if x[i]
                for j in range(q.a) if y[j]), Fraction(0)) % 1


def catalog_forms(max_a):
    for fix in fixture_catalog():
        if fix.lattice.is_even():
            q = discriminant_form(fix.lattice)
            if q.a <= max_a:
                yield fix.name, q


def test_q_b_q_values_against_defining_sums():
    import random

    rng = random.Random(5)
    checked = 0
    for name, q in catalog_forms(8):
        elems = q.elements()
        qv = q.q_values()
        assert list(qv) == elems, name
        for x in elems:
            assert q.q(x) == oracle_q(q, x) == qv[x], (name, x)
        # every pair for small a; every x against a seeded sample beyond
        ys = elems if q.a <= 4 else rng.sample(elems, 8)
        for x in elems:
            for y in ys:
                assert q.b(x, y) == oracle_b(q, x, y), (name, x, y)
        checked += 1
    assert checked >= 20


def brute_isotropic_subgroups(q):
    """Every subgroup on which q vanishes, as a frozenset of tuples."""
    zero = tuple([0] * q.a)
    iso = [x for x in q.elements() if any(x) and oracle_q(q, x) == 0]
    found = {frozenset([zero])}
    frontier = list(found)
    while frontier:
        new = []
        for H in frontier:
            for c in iso:
                if c in H:
                    continue
                K = H | {tuple((u + v) % 2 for u, v in zip(c, h)) for h in H}
                if K not in found and all(oracle_q(q, k) == 0 for k in K):
                    found.add(K)
                    new.append(K)
        frontier = new
    return found


def test_isotropic_subgroups_against_brute_force():
    exprs = ["U(2)", "U(2) + U(2)", "U(2) + <2> + <-2>", "<2>^2 + <-2>^4",
             "U(2)^3", "<2>^3 + <-2>^3"]
    for expr in exprs:
        q = form_of(expr)
        assert q.a <= 6
        got = [frozenset(G.elements()) for G in isotropic_subgroups(q, 1 << q.a)]
        assert len(got) == len(set(got)), expr
        assert set(got) == brute_isotropic_subgroups(q), expr
    # the order bound cuts the list to the subgroups of order <= 2
    q = form_of("U(2) + U(2)")
    small = [G for G in isotropic_subgroups(q, 2)]
    assert {frozenset(G.elements()) for G in small} == {
        H for H in brute_isotropic_subgroups(q) if len(H) <= 2}


def test_isometry_witness_table_preserves_q_and_b():
    from k3lat.lattice import d4_lattice

    pairs = [
        (form_of("<2> + <-2>"), form_of("<-2> + <2>")),
        (form_of("<2>^2 + <-2>"), form_of("U(2) + <2>")),
        (form_of("U(2) + <2> + <-2>"), form_of("<2>^2 + <-2>^2")),
        (form_of("U(2) + U(2)"),
         discriminant_form(direct_sum(d4_lattice(), d4_lattice()))),
    ]
    for q1, q2 in pairs:
        table = isometry_witness(q1, q2)
        assert table is not None
        a = q1.a

        def image(x):
            return tuple(sum(x[i] * table[i][k] for i in range(a)) % 2
                         for k in range(a))

        elems = q1.elements()
        assert len({image(x) for x in elems}) == len(elems)
        for x in elems:
            assert oracle_q(q2, image(x)) == oracle_q(q1, x)
            for y in elems:
                assert oracle_b(q2, image(x), image(y)) == oracle_b(q1, x, y)
