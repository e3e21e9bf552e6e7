"""Acceptance gate: the twelve headline checks, one per test, each ending
in a single pass line (failures raise before the line prints)."""

import cmath
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np

from k3lat.audit import case1_report, case2_report, theorem1_coverage
from k3lat.exactalg import CycEight, rational_inverse, mat_mul
from k3lat.finiteform import (
    milgram_signature,
    form_invariants,
    forms_isometric,
    matrix_group_order,
)
from k3lat.geography import (
    geography_table,
    k3_triplet_realizable,
    NAMED_TRIPLETS,
    fixture_catalog,
    find_isogeny_glue,
    duality_chain_check,
)
from k3lat.lattice import (
    Lattice,
    parse_lattice,
    discriminant_form,
    main_invariant,
    e8_lattice,
    induced_disc_matrix,
)
from k3lat.qseries import (
    eta_quotient,
    theta_series,
    psi_m,
    split_congruence,
    eval_numeric,
)
from k3lat.vectors import short_vectors
from k3lat.weil import (
    CycMatrix,
    weil_S,
    weil_T,
    weil_V,
    one_element,
    coset_formula_check,
    lift_B,
)


def report(line):
    print(line)


def fixtures():
    return {f.name: f for f in fixture_catalog()}


def test_01_geography_count():
    start = time.time()
    table = geography_table()
    elapsed = time.time() - start
    assert len(table) == 75
    assert elapsed < 10
    report("acceptance 01 geography-count-75: PASS")


def test_02_named_triplets():
    assert len(NAMED_TRIPLETS) == 21
    for r, a, d in NAMED_TRIPLETS:
        assert k3_triplet_realizable(r, a, d), (r, a, d)
    report("acceptance 02 named-triplets-realizable: PASS")


def test_03_fixture_invariants():
    fix = fixtures()
    fx_m10 = fix["<M10,v>"]
    assert main_invariant(fx_m10.lattice).triplet == (10, 8, 0)
    fx_u2 = fix["<U(2)+<-2>^8,f1,f2>"]
    assert main_invariant(fx_u2.lattice).triplet == (10, 8, 1)
    fx_m12 = fix["<M12,f1,f2>"]
    assert main_invariant(fx_m12.lattice).triplet == (12, 10, 1)
    assert fx_m12.index == 2
    fx_m13 = fix["<M13,f1,f2,f3>"]
    assert main_invariant(fx_m13.lattice).triplet == (13, 9, 1)
    assert fx_m13.index == 4  # the glue group has order 4
    # complements: the Smith form of a fresh gram against the blocks' (a, delta)
    l61 = parse_lattice("<2>^2 + <-2>^8")
    c12 = Lattice(fix["<M12,f1,f2> complement"].lattice.gram)
    assert main_invariant(c12) == main_invariant(l61)
    l71 = parse_lattice("<2>^2 + <-2>^7")
    c13 = Lattice(fix["<M13,f1,f2,f3> complement"].lattice.gram)
    assert main_invariant(c13) == main_invariant(l71)
    assert forms_isometric(discriminant_form(fix["<M13,f1,f2,f3> complement"].lattice),
                           discriminant_form(l71))
    report("acceptance 03 fixture-invariants-exact: PASS")


def test_04_duality_chain():
    keys = duality_chain_check()
    assert len(set(keys)) == 1
    rank, sig, disc, even = keys[0]
    assert rank == 12
    assert sig == (2, 10)
    assert disc == 4
    assert even is False  # the lattice in the middle of the chain is odd
    report("acceptance 04 duality-chain: PASS")


def _overlattice_action(M, perm):
    bq = M.basis_in_ambient
    frac = [[Fraction(x) for x in row] for row in bq]
    inv = rational_inverse(frac)
    t = mat_mul(inv, mat_mul([[Fraction(x) for x in row] for row in perm],
                             frac))
    assert all(x.denominator == 1 for row in t for x in row)
    return [[int(x) for x in row] for row in t]


def _perm_matrix(n, swap):
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    i, j = swap
    p[i][i] = p[j][j] = 0
    p[i][j] = p[j][i] = 1
    return p


def test_05_symmetric_group_actions():
    fix = fixtures()
    L61 = fix["<M12,f1,f2>"].lattice
    gens = []
    for swap in [(9, 10), (10, 11)]:  # basis h, e1..e11
        t = _overlattice_action(L61, _perm_matrix(12, swap))
        gens.append(induced_disc_matrix(L61, t))
    assert matrix_group_order(gens) == 6
    L71 = fix["<M13,f1,f2,f3>"].lattice
    t = _overlattice_action(L71, _perm_matrix(13, (9, 10)))
    assert matrix_group_order([induced_disc_matrix(L71, t)]) == 2
    report("acceptance 05 symmetric-group-orders-6-and-2: PASS")


def test_06_milgram_suite():
    count = 0
    for f in fixture_catalog():
        if not f.lattice.is_even():
            continue
        q = discriminant_form(f.lattice)
        r_plus, r_minus = f.lattice.signature()
        assert milgram_signature(q) == (r_plus - r_minus) % 8, f.name
        count += 1
    assert count >= 20
    report(f"acceptance 06 milgram-signature-suite ({count} lattices): PASS")


def test_07_qseries_goldens():
    start = time.time()
    eq = eta_quotient([(1, -8), (2, 8), (4, -8)], 32)
    assert eq.coefficient(-1) == 1
    assert eq.coefficient(0) == 8
    assert eq.coefficient(1) == 36
    th = theta_series("integral", 4)
    assert th.coefficient(0) == 1 and th.coefficient(1) == 2
    assert th.coefficient(2) == 0 and th.coefficient(3) == 0
    sh = theta_series("shifted", Fraction(5, 4))
    assert sh.coefficient(Fraction(1, 4)) == 2
    for m in range(1, 8):
        f = psi_m(m, 32)
        assert f.coefficient(0) == 2 * (-m * m - 9 * m + 124)
        assert f.coefficient(-1) == 0
        total = None
        for i in range(4):
            h = split_congruence(psi_m(m, 80), i)
            total = h if total is None else total + h
        assert total == psi_m(m, 80).scale_exponents(Fraction(1, 4)).truncate(20)
    elapsed = time.time() - start
    assert elapsed < 5
    report("acceptance 07 qseries-goldens: PASS")


def test_08_weil_exact_suite():
    checked = 0
    for f in fixture_catalog():
        if not f.lattice.is_even():
            continue
        q = discriminant_form(f.lattice)
        if q.a > 8:
            continue
        S = weil_S(q)
        T = weil_T(q)
        assert (S * T) ** 3 == S * S, f.name
        assert S ** 8 == CycMatrix.identity(1 << q.a), f.name
        one = one_element(q)
        col = weil_V(q).inverse().column(0)
        elems = q.elements()
        for idx, x in enumerate(elems):
            assert col[idx] == CycEight.integer(1 if x == one else 0), f.name
        for l in range(4):
            assert coset_formula_check(q, l), (f.name, l)
        checked += 1
    assert checked >= 8
    report(f"acceptance 08 weil-exact-suite ({checked} forms): PASS")


def test_09_numeric_modularity():
    tau = 0.1 + 0.8j
    # theta inversion
    th = theta_series("integral", 80)
    lhs = eval_numeric(th, -1 / (4 * tau))
    rhs = cmath.sqrt(-2j * tau) * eval_numeric(th, tau)
    assert abs(lhs - rhs) < 1e-6
    # S-transformation of the r_minus = 5 lift, weight -1/2
    L5 = parse_lattice("<2>^2 + <-2>^3")
    q5 = discriminant_form(L5)
    B = lift_B(q5, 5, 60)
    S = weil_S(q5)
    elems = q5.elements()
    vals = [eval_numeric(B.components[x], tau) for x in elems]
    taup = -1 / tau
    n = len(elems)
    Sc = [[complex(S.entry(i, j)) for j in range(n)] for i in range(n)]
    factor = tau ** (-0.5)  # principal branch
    for i, x in enumerate(elems):
        lhs = eval_numeric(B.components[x], taup)
        rhs = factor * sum(Sc[i][j] * vals[j] for j in range(n))
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs)), x
    report("acceptance 09 numeric-modularity-1e-6: PASS")


def test_10_kodaira_report():
    cov = theorem1_coverage()
    neg = {row["triplet"] for row in cov if row["verdict"] == "-infinity"}
    expected = {e.triplet for e in geography_table()
                if 13 <= e.triplet[0] <= 17
                or (e.triplet[0] + e.triplet[1] == 22 and e.triplet[0] <= 17)}
    assert neg == expected
    r = case1_report(14, 8, 1)
    assert (r["nu"], r["k"], r["n"]) == (2, 16, 6)
    r = case2_report(17, 5, 1)
    assert (r["m"], r["k"], r["n"], r["xi_weight"]) == (7, 12, 3, 24)
    for e in geography_table():
        rr, a, d = e.triplet
        if 13 <= rr <= 17:
            rep = case1_report(rr, a, d)
            assert rep["margin"] == 2 * rep["nu"] * (rr - 13)
    report("acceptance 10 kodaira-theorem-A1: PASS")


def _brute_force_box(L, bound):
    g = np.array(L.gram, dtype=float)
    lam_min = min(abs(v) for v in np.linalg.eigvalsh(g))
    box = int(np.floor(np.sqrt(bound / lam_min) + 1e-9)) + 1
    n = L.rank
    out = set()
    for coords in product(range(-box, box + 1), repeat=n):
        if not any(coords):
            continue
        nv = L.norm(coords)
        if 0 < abs(nv) <= bound:
            neg = tuple(-c for c in coords)
            out.add((max(coords, neg), nv))
    return sorted(out)


def test_11_enumeration_oracle():
    rng = random.Random(20240823)
    for trial in range(50):
        n = rng.randint(1, 5)
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
        L = Lattice(g)
        bound = rng.randint(1, 8)
        assert sorted(short_vectors(L, bound)) == _brute_force_box(L, bound), \
            (g, bound)
    roots = short_vectors(e8_lattice(), 2)
    assert 2 * len(roots) == 240
    report("acceptance 11 enumeration-oracle-50-lattices: PASS")


def test_12_isogeny_round_trips():
    cases = [
        ("U(2) + U(2)", 2, 0),
        ("U(2) + U(2)", 0, 0),
        ("<2>^2 + <-2>^8", 8, 1),
        ("<2>^2 + <-2>^6", 6, 1),
        ("U(2) + E8(2)", 8, 0),
        ("U(2) + E8(2)", 6, 0),
        ("E8(2)", 6, 0),
        ("E8(2)", 4, 0),
        ("U(2)^2 + E8(2)", 10, 0),
        ("U(2) + <2> + <-2>", 2, 1),
    ]
    assert len(cases) == 10
    for expr, a_t, d_t in cases:
        L = parse_lattice(expr)
        hit = find_isogeny_glue(L, a_t, d_t)
        assert hit is not None, (expr, a_t, d_t)
        G, M = hit
        a, d, s = form_invariants(discriminant_form(M))
        assert (a, d) == (a_t, d_t), (expr, a_t, d_t)
        assert M.signature() == L.signature()
        assert M.is_even()
    report("acceptance 12 isogeny-round-trips-10: PASS")
