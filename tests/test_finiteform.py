"""Finite quadratic forms on F2 vector spaces: Milgram signatures, isotropy,
quotients, isometries, induced actions, and the reduced-echelon F2 kernel
against set spans and 2^a scans."""

from fractions import Fraction
from functools import cache
from itertools import combinations, islice, product

import pytest
from hypothesis import given, strategies as st

from k3lat.errors import DegenerateForm, NotIsotropic
from k3lat.exactalg import CycEight
from k3lat.finiteform import (
    FiniteQuadraticForm,
    milgram_signature,
    form_invariants,
    forms_isometric,
    iter_isotropic_subgroups,
    quotient_form,
    orthogonal_group_order,
    isometry_witness,
    matrix_group_order,
    SubgroupSpec,
    _apply,
    _decode,
    _eliminate,
    _encode,
    _insert,
    _isotropic_elements,
    _reduce,
)
from k3lat.lattice import (
    parse_lattice,
    discriminant_form,
    direct_sum,
    induced_disc_matrix,
)
from k3lat.geography import block_sum_witness, fixture_catalog, geography_table


def form_of(expr):
    return discriminant_form(parse_lattice(expr))


@cache
def cyc_eight_signature(a, counts):
    """The eight-way search over sqrt(2^a) zeta^sigma in Z[zeta_8], from the
    counts of q = 0, 1/2, 1, 3/2: sigma, or the DegenerateForm message."""
    c0, c1, c2, c3 = counts
    total = CycEight((c0 - c2, 0, c1 - c3, 0))
    if total == 0:
        return "Gauss sum vanishes"
    mag = CycEight.integer(1 << (a // 2))
    if a % 2:
        mag = mag * CycEight.sqrt2()
    for sigma in range(8):
        if total == mag * CycEight.zeta_power(sigma):
            return sigma
    return "Gauss sum has the wrong magnitude"


def every_form(a):
    """Every form on (Z/2)^a, degenerate ones included: each q of the
    generators in half-units and each symmetric 2b, as the lift gram w."""
    pairs = [(i, j) for i in range(a) for j in range(i + 1, a)]
    for qh in product(range(4), repeat=a):
        for bits in product((0, 2), repeat=len(pairs)):
            w = [[2 * qh[i] if i == j else 0 for j in range(a)] for i in range(a)]
            for (i, j), x in zip(pairs, bits):
                w[i][j] = w[j][i] = x
            yield FiniteQuadraticForm.from_lift_gram(w)


def test_gauss_sum_against_cyc_eight_search():
    """The Gaussian-integer Gauss sum gives the sigma, or raises the message,
    of the eight-way CycEight search on all 16,933 forms with a <= 4."""
    seen = {"Gauss sum vanishes": 0, "Gauss sum has the wrong magnitude": 0}
    total = 0
    for a in range(5):
        for q in every_form(a):
            table = q.qh_table()
            expect = cyc_eight_signature(a, tuple(table.count(h) for h in range(4)))
            if isinstance(expect, str):
                with pytest.raises(DegenerateForm) as exc:
                    milgram_signature(q)
                assert str(exc.value) == expect
                seen[expect] += 1
            else:
                assert milgram_signature(q) == expect
            total += 1
    assert total == sum(4 ** a * 2 ** (a * (a - 1) // 2) for a in range(5)) == 16933
    assert all(seen.values())


def test_milgram_over_catalog():
    """Gauss sum signature = r+ - r- mod 8 for every catalog lattice, and
    sigma = a mod 2 there and on every block-sum witness of the geography:
    the Gauss sum has norm 2^a in Z[i] (lift_B relies on it)."""
    count = 0
    for fix in fixture_catalog():
        L = fix.lattice
        if not L.is_even():
            continue
        q = discriminant_form(L)
        r_plus, r_minus = L.signature()
        assert milgram_signature(q) == (r_plus - r_minus) % 8, fix.name
        assert milgram_signature(q) % 2 == q.a % 2, fix.name
        count += 1
    assert count >= 20
    witnesses = 0
    for e in geography_table():
        r, a, delta = e.triplet
        for sig in ((1, r - 1), (2, 20 - r)):  # L+ and L-
            q = discriminant_form(block_sum_witness(*sig, a, delta))
            assert milgram_signature(q) % 2 == q.a % 2, (e.triplet, sig)
            witnesses += 1
    assert witnesses == 150


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
    assert form_of("U(2)").delta() == 0
    assert form_of("<2>").delta() == 1
    assert form_of("E8(2)").delta() == 0


def test_isotropic_subgroups_quotient_invariant():
    """Quotient by an isotropic F2^k drops a by 2k and keeps sigma."""
    q = form_of("U(2) + U(2)")
    subs = list(iter_isotropic_subgroups(q, max_order=2))
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
    act = induced_disc_matrix(L, swap)
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
        got = [frozenset(G.elements()) for G in iter_isotropic_subgroups(q, 1 << q.a)]
        assert len(got) == len(set(got)), expr
        assert set(got) == brute_isotropic_subgroups(q), expr
    # the order bound cuts the list to the subgroups of order <= 2
    q = form_of("U(2) + U(2)")
    small = list(iter_isotropic_subgroups(q, 2))
    assert {frozenset(G.elements()) for G in small} == {
        H for H in brute_isotropic_subgroups(q) if len(H) <= 2}


def test_quotient_delta_is_characteristic_membership():
    """Gperp/G for an isotropic G has a = a - 2 rank and delta 0 exactly
    when the characteristic element gamma lies in G, the criterion that
    find_isogeny_glue reads instead of building the quotient."""
    seen = set()
    for name, q in catalog_forms(8):
        gamma, rank = q.characteristic_solve()
        assert rank == q.a, name
        # every order up to a = 6; past it order 4, or 2 when gamma = 0 lies
        # in every G and only a is checked
        for G in iter_isotropic_subgroups(q, 1 << q.a if q.a <= 6 else 4 if gamma else 2):
            quot = quotient_form(q, G)
            delta = int(gamma not in G._span)
            assert (quot.a, quot.delta()) == (q.a - 2 * G.rank, delta), (name, G)
            seen.add((G.rank, delta))
    assert {(1, 0), (1, 1), (2, 0), (2, 1)} <= seen


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


# ---------------------------------------------------------------------------
# the F2 kernel: reduced echelon bases against set spans and 2^a scans

def xor_span(vectors, start=(0,)):
    """Grow the set ``start`` by each vector not yet in its span, in order;
    the vectors added and the final span."""
    added, span = [], set(start)
    for v in vectors:
        if v not in span:
            added.append(v)
            span |= {v ^ s for s in span}
    return added, span


def scan_isotropic_subgroups(q, max_order):
    """The set-span search: yields (generator ints, span) in the order
    iter_isotropic_subgroups must keep.  bg holds Bg of each generator."""
    table = q.qh_table()
    candidates = [x for x in range(1, len(table)) if table[x] == 0]

    def extend(gens, bg, span, start):
        yield gens, span
        if 2 * len(span) > max_order:
            return
        for i in range(start, len(candidates)):
            c = candidates[i]
            if c in span or any((m & c).bit_count() & 1 for m in bg):
                continue
            coset = [c ^ s for s in span]
            if min(coset) != c:
                continue
            yield from extend(gens + [c], bg + [q.bvec(c)], span.union(coset), i + 1)

    yield from extend([], [], frozenset([0]), 0)


def scan_quotient_form(q, gens, span):
    """Gperp by testing all 2^a elements against the generators of G; the
    quotient's generators picked greedily from it in increasing order,
    modulo the span of G."""
    table = q.qh_table()
    bg = [q.bvec(g) for g in gens]
    perp = [x for x in range(len(table)) if not any((m & x).bit_count() & 1 for m in bg)]
    reps, _ = xor_span(perp, span)
    return FiniteQuadraticForm._of(
        len(reps), [table[r] for r in reps],
        [_encode(q.b2(r, s) for s in reps) for r in reps])


def distinct_catalog_forms(max_a):
    seen = {}
    for name, q in catalog_forms(max_a):
        seen.setdefault((tuple(q.qh_gen), tuple(q.rows)), (name, q))
    return list(seen.values())


def test_subgroups_and_quotients_against_span_scans():
    """The same subgroups, in the same order and with the same generators,
    as the set-span search, and the same quotient forms as the 2^a scan:
    every order for a <= 6 and order <= 4 up to a = 10; quotients of every
    subgroup up to a = 6 and of every 100th past it, where the scan is slow."""
    checked = 0
    for name, q in distinct_catalog_forms(10):
        order = 1 << q.a if q.a <= 6 else 4
        got = list(iter_isotropic_subgroups(q, order))
        want = list(scan_isotropic_subgroups(q, order))
        # G.generators decodes G._gens, the generator ints
        assert [G._gens for G in got] == [gens for gens, _ in want], name
        for k, (G, (gens, span)) in enumerate(zip(got, want)):
            if q.a <= 6 or k % 100 == 0:
                assert G.generators == [_decode(g, q.a) for g in gens]
                assert G._span == span
                assert quotient_form(q, G) == scan_quotient_form(q, gens, span), (name, k)
                checked += 1
    assert checked > 300


def lazy_scan_forms():
    """Every distinct catalog form with a <= 12, the a = 12 glue source
    U(2)^2 + E8(2), and the form of every block-sum witness, each as a fresh
    form whose table of q is not built."""
    forms = dict(catalog_forms(12))
    forms["U(2)^2 + E8(2)"] = form_of("U(2)^2 + E8(2)")
    for e in geography_table():
        r, a, delta = e.triplet
        for sig in ((1, r - 1), (2, 20 - r)):
            forms[(sig, a, delta)] = discriminant_form(block_sum_witness(*sig, a, delta))
    seen = {}
    for name, q in forms.items():
        seen.setdefault((tuple(q.qh_gen), tuple(q.rows)), name)
    return [(name, FiniteQuadraticForm._of(len(qh), list(qh), list(rows)))
            for (qh, rows), name in seen.items()]


@pytest.mark.parametrize("max_order", [2, 4])
def test_lazy_scan_prefixes_against_span_scan(max_order):
    """The first k subgroups of the lazy scan, for k up to 64, are the first
    k of the set-span search over the whole table, with the same generators,
    and taking them leaves q's table unbuilt."""
    forms = lazy_scan_forms()
    assert len(forms) > 50 and max(q.a for _, q in forms) == 12
    for name, q in forms:
        got = [G._gens for G in islice(iter_isotropic_subgroups(q, max_order), 64)]
        assert q._qtable is None, name
        want = [gens for gens, _ in islice(scan_isotropic_subgroups(q, max_order), 64)]
        assert got == want, name


def test_isotropic_stream_yields_the_table_zeros():
    """Run to its end, the stream of isotropic elements is the zeros of
    qh_table() past 0, in increasing order, and leaves the table unbuilt."""
    for name, q in lazy_scan_forms():
        doubled = list(_isotropic_elements(q))
        assert q._qtable is None, name
        table = q.qh_table()
        want = [x for x in range(1, 1 << q.a) if table[x] == 0]
        assert doubled == want, name


def test_glue_search_builds_no_table(monkeypatch):
    """find_isogeny_glue on U(2)^2 + E8(2) (a = 12) to a = 10 finds its G
    without qh_table: the form it scans keeps its table unbuilt, and the
    scan doubles q's table once, as the element 1 is isotropic."""
    from k3lat import geography

    calls, scanned, reach = [], [], []
    qh_table = FiniteQuadraticForm.qh_table
    doublings = FiniteQuadraticForm._doublings
    scan = geography.iter_isotropic_subgroups

    def spy_table(self):
        calls.append(self)
        return qh_table(self)

    def spy_doublings(self):
        for table in doublings(self):
            reach.append(len(table))
            yield table

    def spy_scan(q, max_order):
        scanned.append(q)
        return scan(q, max_order)

    monkeypatch.setattr(FiniteQuadraticForm, "qh_table", spy_table)
    monkeypatch.setattr(FiniteQuadraticForm, "_doublings", spy_doublings)
    monkeypatch.setattr(geography, "iter_isotropic_subgroups", spy_scan)
    hit = geography.find_isogeny_glue(parse_lattice("U(2)^2 + E8(2)"), 10, 0)
    assert hit is not None and hit[0]._gens == [1]
    assert calls == [] and reach == [2]
    assert [q.a for q in scanned] == [12] and scanned[0]._qtable is None


@given(st.integers(1, 8).flatmap(lambda a: st.tuples(
    st.just(a), st.lists(st.integers(0, (1 << a) - 1), max_size=10))))
def test_reduce_and_insert_against_set_spans(case):
    a, vectors = case
    basis, span = {}, {0}
    for v in vectors:
        added = _insert(basis, v)
        assert bool(added) == (v not in span)
        span |= {v ^ s for s in span}
    # reduced: each key is the top bit of its vector and set in no other one
    for lead, b in basis.items():
        assert lead == 1 << (b.bit_length() - 1)
        assert all(not c & lead for k, c in basis.items() if k != lead)
    assert len(span) == 1 << len(basis)
    # in increasing order, the first element of each coset is its least
    least = {}
    for x in range(1 << a):
        if x not in least:
            least.update((x ^ s, x) for s in span)
        assert _reduce(basis, x) == least[x]
        assert (_reduce(basis, x) == 0) == (x in span)


@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.integers(0, 255), min_size=n, max_size=n)))
def test_eliminate_against_brute_kernels_and_images(cols):
    n = len(cols)
    basis = _eliminate(cols)
    kernel = [v for v in basis.values() if v < 1 << n]
    image = [v for v in basis.values() if v >= 1 << n]
    apply_all = [_apply(cols, x) for x in range(1 << n)]
    _, kspan = xor_span(kernel)
    assert kspan == {x for x in range(1 << n) if apply_all[x] == 0}
    _, ispan = xor_span(v >> n for v in image)
    assert ispan == set(apply_all)
    assert len(kspan) * len(ispan) == 1 << n
    for v in image:
        assert _apply(cols, v & ((1 << n) - 1)) == v >> n


def test_quotient_form_isotropy_check_against_every_subgroup():
    """Over every subgroup of (Z/2)^4: quotient_form raises NotIsotropic
    exactly when q takes a nonzero value on the subgroup."""
    q = form_of("U(2) + <2> + <-2>")
    subgroups = {}
    for k in range(5):
        for gens in combinations(range(1, 16), k):
            _, span = xor_span(gens)
            subgroups.setdefault(frozenset(span), gens)
    assert len(subgroups) == 67
    isotropic = 0
    for span, gens in subgroups.items():
        G = SubgroupSpec([_decode(g, 4) for g in gens], 4)
        if any(q.qh_table()[x] for x in span):
            with pytest.raises(NotIsotropic):
                quotient_form(q, G)
        else:
            assert quotient_form(q, G) == scan_quotient_form(q, G._gens, span)
            isotropic += 1
    assert isotropic == len(brute_isotropic_subgroups(q))


def test_subgroup_spec_equality_is_equality_of_element_sets():
    specs = [SubgroupSpec([_decode(g, 3) for g in gens], 3)
             for k in range(4) for gens in combinations(range(1, 8), k)]
    for G in specs:
        for H in specs:
            assert (G == H) == (set(G.elements()) == set(H.elements()))
