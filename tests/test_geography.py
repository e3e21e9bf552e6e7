"""The triplet geography: the 75-entry table, existence rules, fixtures,
block-sum witnesses, and isogeny glue."""

import functools
import time

import pytest

from k3lat.errors import NotRealizable
from k3lat.geography import (
    geography_table,
    k3_triplet_realizable,
    lattice_exists,
    NAMED_TRIPLETS,
    GeographyEntry,
    geometric_invariants,
    find_isogeny_glue,
    block_sum_witness,
    fixture_catalog,
    duality_chain_check,
    _lattice_exists,
)
from k3lat.lattice import (
    Lattice,
    parse_lattice,
    main_invariant,
    overlattice,
    discriminant_form,
)
from k3lat.finiteform import form_invariants, iter_isotropic_subgroups, quotient_form


def test_count_is_75():
    assert len(geography_table()) == 75


def test_table_built_once_and_returned_fresh(monkeypatch):
    """The 75 entries are computed once per process; each call returns a new
    list of them, so a caller's edit does not reach the next call."""
    from k3lat import geography

    tests = []
    realizable = geography.k3_triplet_realizable
    monkeypatch.setattr(geography, "k3_triplet_realizable",
                        lambda *t: tests.append(t) or realizable(*t))
    geography._geography_entries.cache_clear()
    try:
        first = geography_table()
        first.clear()
        second, third = geography_table(), geography_table()
    finally:
        geography._geography_entries.cache_clear()
    assert len(tests) == 20 * 23 * 2
    assert len(second) == 75 and second == third and second is not third


def test_table_entries_unique_and_realizable():
    table = geography_table()
    triplets = [e.triplet for e in table]
    assert len(set(triplets)) == 75
    for r, a, d in triplets:
        assert k3_triplet_realizable(r, a, d)


def test_boundary_exclusions():
    assert not k3_triplet_realizable(1, 1, 0)
    assert not k3_triplet_realizable(2, 0, 1)
    assert not k3_triplet_realizable(1, 3, 1)
    assert k3_triplet_realizable(2, 0, 0)
    assert k3_triplet_realizable(10, 10, 0)
    assert k3_triplet_realizable(20, 2, 1)


def test_r_plus_a_22_family():
    for r, a, d in [(11, 11, 1), (12, 10, 1), (13, 9, 1), (14, 8, 1),
                    (15, 7, 1), (16, 6, 1), (17, 5, 1)]:
        assert k3_triplet_realizable(r, a, d)


def test_named_triplets_realizable():
    assert len(NAMED_TRIPLETS) == 21
    for r, a, d in NAMED_TRIPLETS:
        assert k3_triplet_realizable(r, a, d), (r, a, d)


def test_geometric_invariants():
    g, k, kind = geometric_invariants(10, 10, 0)
    assert (g, k) == (1, 0)
    assert kind == "empty"
    g, k, kind = geometric_invariants(10, 8, 0)
    assert kind == "two-elliptic-curves"
    g, k, kind = geometric_invariants(17, 5, 1)
    assert (g, k) == (0, 6)


def test_block_sum_witness_covers_table():
    """Both sides of every triplet admit an explicit block-sum lattice whose
    main invariant is the requested one (independent of the rule deriving
    the table, and of the blocks' own (a, delta): the Smith form of a fresh
    gram gives it)."""
    for e in geography_table():
        r, a, d = e.triplet
        wit = block_sum_witness(1, r - 1, a, d)
        assert wit is not None, (r, a, d)
        assert main_invariant(Lattice(wit.gram)).as_tuple() == (1, r - 1, a, d)
        wit = block_sum_witness(2, 20 - r, a, d)
        assert wit is not None, (r, a, d)
        assert main_invariant(Lattice(wit.gram)).as_tuple() == (2, 20 - r, a, d)


def test_lattice_exists_matches_examples():
    """lattice_exists agrees with explicit constructions."""
    samples = [
        ("<2>^2 + <-2>^8", True),
        ("E8(2)", True),
        ("U(2) + E8(2)", True),
        ("M10", True),
    ]
    for expr, expected in samples:
        L = parse_lattice(expr)
        q = discriminant_form(L)
        assert lattice_exists(L.signature(), q) == expected, expr
    # no even 2-elementary lattice of signature (0, 8) can have a = 7:
    # the parity/boundary rules forbid it
    q = discriminant_form(parse_lattice("<-2>^7"))
    assert not lattice_exists((0, 8), q)


@functools.cache
def _form_exists_by_blocks(a, delta, sigma):
    """Brute force: a 2-elementary form with invariants (a, delta, sigma mod
    8) exists iff it splits into j blocks <1/2> and k blocks <-1/2> (length
    1, sigma +1 and -1, delta 1) and blocks u and v (length 2, sigma 0 and
    4), with j + k > 0 exactly when delta = 1."""
    for j in range(a + 1):
        for k in range(a - j + 1):
            rem = a - j - k
            if rem % 2 or (j + k > 0) != (delta == 1):
                continue
            if any((j - k + 4 * n - sigma) % 8 == 0 for n in range(rem // 2 + 1)):
                return True
    return False


def _lattice_exists_by_blocks(t_plus, t_minus, a, delta, sigma):
    """The form must exist, fit in the rank with the rank's parity, and have
    the signature mod 8 (Milgram); at rank a with delta = 0 the lattice is
    twice an even unimodular one, whose signature is divisible by 8."""
    r = t_plus + t_minus
    if a > r or (r - a) % 2 or (t_plus - t_minus - sigma) % 8:
        return False
    if not _form_exists_by_blocks(a, delta, sigma % 8):
        return False
    return not (r == a and delta == 0 and (t_plus - t_minus) % 8)


def test_existence_rule_against_block_enumeration():
    """Nikulin's closed-form conditions agree with the brute-force block
    decomposition on every small input."""
    realizable = 0
    for t_plus in range(24):
        for t_minus in range(24):
            for a in range(25):
                for delta in (0, 1):
                    for sigma in range(8):
                        expected = _lattice_exists_by_blocks(t_plus, t_minus, a, delta, sigma)
                        assert _lattice_exists(t_plus, t_minus, a, delta, sigma) == expected, \
                            (t_plus, t_minus, a, delta, sigma)
                        realizable += expected
    assert realizable > 1000


# block_sum_witness(...).expr for L+ (signature (1, r-1)) and L- (signature
# (2, 20-r)) of every named triplet, pinned so that the search order, and
# with it the first witness, cannot drift
NAMED_WITNESS_EXPRS = {
    (1, 1, 1): ("<2>", "U + U + <-2> + E8 + E8"),
    (2, 2, 0): ("U(2)", "U + U(2) + E8 + E8"),
    (5, 5, 1): ("<2> + <-2> + <-2> + <-2> + <-2>", "<2> + <2> + <-2> + E7 + E7"),
    (10, 2, 0): ("U(2) + E8", "U + U(2) + E8"),
    (10, 8, 0): ("U + E8(2)", "U(2) + U(2) + D4 + D4"),
    (10, 8, 1): ("<2> + <-2> + <-2> + <-2> + <-2> + <-2> + D4",
                 "<2> + <2> + <-2> + <-2> + D4 + D4"),
    (10, 10, 0): ("U(2) + E8(2)", "U + U(2) + E8(2)"),
    (10, 10, 1): ("<2> + <-2> + E8(2)",
                  "<2> + <2> + <-2> + <-2> + <-2> + <-2> + <-2> + <-2> + D4"),
    (11, 9, 1): ("<2> + <-2> + <-2> + <-2> + <-2> + <-2> + <-2> + D4",
                 "<2> + <2> + <-2> + <-2> + <-2> + <-2> + <-2> + D4"),
    (11, 11, 1): ("<2> + <-2> + <-2> + E8(2)", "<2> + <2> + <-2> + E8(2)"),
    (12, 8, 1): ("<2> + <-2> + <-2> + <-2> + D4 + D4",
                 "<2> + <2> + <-2> + <-2> + <-2> + <-2> + D4"),
    (12, 10, 1): ("<2> + <-2> + <-2> + <-2> + <-2> + <-2> + <-2> + <-2> + D4",
                  "<2> + <2> + E8(2)"),
    (13, 7, 1): ("<2> + D4 + D4 + D4", "<2> + <2> + <-2> + <-2> + <-2> + D4"),
    (13, 9, 1): ("<2> + <-2> + <-2> + <-2> + <-2> + D4 + D4",
                 "<2> + <2> + <-2> + <-2> + <-2> + <-2> + <-2> + <-2> + <-2>"),
    (14, 8, 1): ("<2> + <-2> + D4 + D4 + D4",
                 "<2> + <2> + <-2> + <-2> + <-2> + <-2> + <-2> + <-2>"),
    (15, 7, 1): ("<2> + <-2> + <-2> + <-2> + D4 + E7",
                 "<2> + <2> + <-2> + <-2> + <-2> + <-2> + <-2>"),
    (16, 6, 1): ("<2> + D4 + D4 + E7", "<2> + <2> + <-2> + <-2> + <-2> + <-2>"),
    (17, 5, 1): ("<2> + D4 + D4 + E8", "<2> + <2> + <-2> + <-2> + <-2>"),
    (18, 4, 0): ("U + D4 + D4 + E8", "U(2) + U(2)"),
    (18, 4, 1): ("<2> + <-2> + <-2> + E7 + E8", "<2> + <2> + <-2> + <-2>"),
    (19, 3, 1): ("<2> + <-2> + <-2> + E8 + E8", "<2> + <2> + <-2>"),
}


def test_named_block_sum_witness_exprs():
    assert sorted(NAMED_WITNESS_EXPRS) == sorted(NAMED_TRIPLETS)
    for (r, a, d), (plus, minus) in NAMED_WITNESS_EXPRS.items():
        assert block_sum_witness(1, r - 1, a, d).expr == plus, (r, a, d)
        assert block_sum_witness(2, 20 - r, a, d).expr == minus, (r, a, d)


def test_fixture_catalog_invariants():
    for fix in fixture_catalog():
        if not fix.lattice.is_even():
            continue
        # the Smith form of a fresh gram, not the blocks' (a, delta)
        assert main_invariant(Lattice(fix.lattice.gram)).as_tuple() == fix.expected, fix.name
        if fix.expected_index is not None:
            assert fix.index == fix.expected_index, fix.name


def test_duality_chain():
    keys = duality_chain_check()
    assert len(set(keys)) == 1
    rank, sig, disc, even = keys[0]
    assert (rank, sig, disc, even) == (12, (2, 10), 4, False)


def test_find_isogeny_glue_round_trip():
    """Quotients by isotropic subgroups land on the target invariant; the
    overlattice confirms it."""
    cases = [
        ("U(2) + U(2)", 2, 0),
        ("U(2) + U(2)", 0, 0),
        ("<2>^2 + <-2>^8", 8, 1),
        ("U(2) + E8(2)", 8, 0),
        ("U(2) + E8(2)", 6, 0),
    ]
    for expr, a_t, d_t in cases:
        L = parse_lattice(expr)
        hit = find_isogeny_glue(L, a_t, d_t)
        assert hit is not None, (expr, a_t, d_t)
        G, M = hit
        q = discriminant_form(M)
        a, d, s = form_invariants(q)
        assert (a, d) == (a_t, d_t)
        assert M.signature() == L.signature()


def quotient_glue(L, a_target, delta_target):
    """The former find_isogeny_glue: the invariants of every candidate's
    quotient form Gperp/G, then the overlattice confirmation."""
    form = discriminant_form(L)
    drop = form.a - a_target
    if drop < 0 or drop % 2:
        return None
    lifts = L.disc_generator_lifts()
    for G in iter_isotropic_subgroups(form, 2 ** (drop // 2)):
        if G.rank != drop // 2:
            continue
        if form_invariants(quotient_form(form, G))[:2] != (a_target, delta_target):
            continue
        vectors = [[sum(col) for col in zip(*(lifts[i] for i, bit in enumerate(gen) if bit))]
                   for gen in G.generators]
        M, _index = overlattice(L, vectors)
        if main_invariant(M).as_tuple()[2:] == (a_target, delta_target):
            return G, M
    return None


def test_find_isogeny_glue_against_quotient_invariants():
    """The characteristic-element criterion picks the same first G and M as
    the quotient-form invariants, for every target on the catalog, a <= 6."""

    def key(hit):
        return None if hit is None else (hit[0]._span, hit[1].gram)

    found = []
    for fix in fixture_catalog():
        L = fix.lattice
        if not L.is_even() or discriminant_form(L).a > 6:
            continue
        for a_t in range(discriminant_form(L).a + 1):
            for d_t in (0, 1):
                want = key(quotient_glue(L, a_t, d_t))
                assert key(find_isogeny_glue(L, a_t, d_t)) == want, (fix.name, a_t, d_t)
                found.append(want is not None)
    assert found.count(True) >= 20 and found.count(False) >= 20


def fraction_lift_glue(L, a_target, delta_target):
    """The former find_isogeny_glue: the D_L generator lifts as Fractions,
    added coordinate by coordinate, and the scan reading q's whole table,
    built first.  Kept as the oracle of the glue grid."""
    form = discriminant_form(L)
    form.qh_table()
    drop = form.a - a_target
    gamma, _ = form.characteristic_solve()
    t_plus, t_minus = L.signature()
    if (drop < 0 or (gamma == 0 and delta_target == 1) or not _lattice_exists(
            t_plus, t_minus, a_target, delta_target, (t_plus - t_minus) % 8)):
        return None
    rank_needed = drop // 2
    lifts = L.disc_generator_lifts()
    for G in iter_isotropic_subgroups(form, 2 ** rank_needed):
        if G.rank != rank_needed or int(not G._has(gamma)) != delta_target:
            continue
        vectors = [[sum(col) for col in zip(*(lifts[i] for i, bit in enumerate(gen) if bit))]
                   for gen in G.generators]
        M, _index = overlattice(L, vectors)
        inv = main_invariant(M)
        if (inv.a, inv.delta) == (a_target, delta_target):
            return G, M
    return None


def glue_grid():
    """The overlattice queries of the table: for the L+ and L- block-sum
    witnesses of each triplet (r, a, delta), every a' = a - 2k with k >= 1
    and every delta'."""
    queries = []
    for e in geography_table():
        r, a, delta = e.triplet
        for sig in ((1, r - 1), (2, 20 - r)):
            L = block_sum_witness(*sig, a, delta)
            queries += [(L, a - 2 * k, d_t) for k in range(1, a // 2 + 1) for d_t in (0, 1)]
    return queries


def test_glue_grid_against_fraction_lift_oracle():
    """Over the 604 queries of the grid: the same G generators, M gram and
    basis_in_ambient as the Fraction-lift oracle, 258 hits, and each hit's M
    has the target invariant by the Smith form of its gram."""
    queries = glue_grid()
    assert len(queries) == 604
    hits = 0
    for L, a_t, d_t in queries:
        got, want = find_isogeny_glue(L, a_t, d_t), fraction_lift_glue(L, a_t, d_t)
        assert (got is None) == (want is None), (L, a_t, d_t)
        if got is None:
            continue
        (G, M), (G0, M0) = got, want
        assert G.generators == G0.generators, (L, a_t, d_t)
        assert M.gram == M0.gram and M.basis_in_ambient == M0.basis_in_ambient
        inv = main_invariant(Lattice(M.gram))
        assert inv.as_tuple() == (*L.signature(), a_t, d_t), (L, a_t, d_t)
        hits += 1
    assert hits == 258


def test_find_isogeny_glue_can_fail():
    L = parse_lattice("U(2)")
    assert find_isogeny_glue(L, 2, 1) is None
    # delta(L) = 0 puts gamma = 0 in every G: no quotient has delta 1
    for expr, a_t, d_t in [("U(2) + E8(2)", 6, 1), ("U(2)^2 + E8(2)", 8, 1)]:
        L = parse_lattice(expr)
        start = time.perf_counter()
        assert find_isogeny_glue(L, a_t, d_t) is None, expr
        assert time.perf_counter() - start < 1, expr


def test_impossible_glue_targets_fail_fast():
    """No even 2-elementary lattice of signature (2, n) with delta = 0 exists
    when 2 - n is not 0 mod 4 (Nikulin 1979, Thm 3.6.2), so these return
    None before any subgroup is enumerated."""
    for expr, a_t, d_t in [("<2>^2 + <-2>^8", 0, 0), ("<2>^2 + <-2>^8", 2, 0),
                           ("<2>^2 + <-2>^8", 4, 0), ("<2>^2 + <-2>^12", 4, 0)]:
        L = parse_lattice(expr)
        start = time.perf_counter()
        assert find_isogeny_glue(L, a_t, d_t) is None, (expr, a_t)
        assert time.perf_counter() - start < 1, (expr, a_t)


def test_geography_runtime():
    start = time.time()
    geography_table()
    assert time.time() - start < 10
