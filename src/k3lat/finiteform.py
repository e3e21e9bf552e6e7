"""Finite 2-elementary quadratic forms (D, q, b) on D = (Z/2)^a.

q takes values in (1/2)Z mod 2Z, b in (1/2)Z mod Z.  Inside the package an
element of D is a Python int: coordinate i sits in bit a-1-i, so the int of
an element equals its index in ``elements()`` and int order is the tuple
order.  q is kept in half-units mod 4 and 2b as one bitmask row per
generator; b(x, y) is the parity of popcount(Bx & y).  The public methods
take and return coordinate tuples and Fractions, converting at the edge.
"""

from fractions import Fraction
from itertools import product

from .exactalg import CycEight
from .errors import DegenerateForm, NotIsotropic, BoundExceeded, NotIsometry

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# the F2 kernel on int-encoded elements

def _encode(bits):
    """The int of a coordinate vector (entries taken mod 2)."""
    x = 0
    for c in bits:
        x = (x << 1) | (c & 1)
    return x


def _decode(x, a):
    return tuple((x >> (a - 1 - i)) & 1 for i in range(a))


def _cols(m):
    """The columns of an F2 matrix given by rows, as ints."""
    return [_encode(col) for col in zip(*m)]


def _apply(cols, x):
    """The matrix with columns ``cols`` applied to x: the XOR of the columns
    at the coordinates set in x."""
    out = 0
    width = len(cols)
    while x:
        low = x & -x
        out ^= cols[width - low.bit_length()]
        x ^= low
    return out


def _xor_span(vectors, start=(0,)):
    """Grow the set ``start`` by each vector not yet in its span, in order.

    Returns the vectors that were added and the final span.
    """
    added, span = [], set(start)
    for v in vectors:
        if v not in span:
            added.append(v)
            span |= {v ^ s for s in span}
    return added, span


def _solve(cols, target):
    """(x, rank): some x with _apply(cols, x) == target, or None if there is
    none, and the rank of the columns.  Gaussian elimination on bitmasks."""
    width = len(cols)
    basis = []  # (vector, combination), leading bits distinct, descending

    def reduce(v, x):
        for bv, bx in basis:
            if v ^ bv < v:
                v, x = v ^ bv, x ^ bx
        return v, x

    for i, col in enumerate(cols):
        v, x = reduce(col, 1 << (width - 1 - i))
        if v:
            basis.append((v, x))
            basis.sort(reverse=True)
    rest, x = reduce(target, 0)
    return (None if rest else x), len(basis)


class FiniteQuadraticForm:
    def __init__(self, a, q_gen, b):
        self.a = a
        self.q_gen = [Fraction(x) % 2 for x in q_gen]
        self.b_mat = [[Fraction(x) % 1 for x in row] for row in b]
        if len(self.q_gen) != a or len(self.b_mat) != a:
            raise ValueError("generator data has wrong length")
        for i in range(a):
            if len(self.b_mat[i]) != a:
                raise ValueError("bilinear matrix must be square")
            for j in range(a):
                if self.b_mat[i][j] != self.b_mat[j][i]:
                    raise ValueError("bilinear matrix must be symmetric")
                if self.b_mat[i][j] not in (0, HALF):
                    raise ValueError("b values must be 0 or 1/2 mod 1")
            if self.q_gen[i] % 1 != self.b_mat[i][i]:
                raise ValueError("q(g) mod 1 must equal b(g,g)")
            if self.q_gen[i] not in (0, HALF, 1, Fraction(3, 2)):
                raise ValueError("q values must lie in (1/2)Z mod 2Z")
        # q of each generator in half-units mod 4, and the rows of 2b
        self.qh_gen = [int(2 * x) for x in self.q_gen]
        self.rows = [_encode(int(2 * x) for x in row) for row in self.b_mat]
        self._qtable = None

    # int-encoded elements -----------------------------------------------
    def qh_table(self):
        """q of every element in half-units mod 4, indexed by element int.

        Built once by q(x + e_i) = q(x) + q(e_i) + 2b(x, e_i).
        """
        if self._qtable is None:
            table = [0]
            for i in reversed(range(self.a)):  # low bits first: index == int
                qi, row = self.qh_gen[i], self.rows[i]
                table += [(v + qi + 2 * ((row & x).bit_count() & 1)) % 4
                          for x, v in enumerate(table)]
            self._qtable = table
        return self._qtable

    def bvec(self, x):
        """Bx: the bitmask of the y with 2b(x, y) = 1 among the generators."""
        return _apply(self.rows, x)

    def b2(self, x, y):
        """2b(x, y) in {0, 1}."""
        return (self.bvec(x) & y).bit_count() & 1

    def characteristic_solve(self):
        """(gamma, rank): a solution of B gamma = diag(B), or None, and the
        rank of B.  Such gamma satisfy b(gamma, y) = q(y) mod 1 for all y."""
        diag = _encode(h & 1 for h in self.qh_gen)
        return _solve(self.rows, diag)

    # the tuple and Fraction boundary --------------------------------------
    def elements(self):
        return list(product((0, 1), repeat=self.a))

    def q(self, x):
        return Fraction(self.qh_table()[_encode(x)], 2)

    def b(self, x, y):
        return Fraction(self.b2(_encode(x), _encode(y)), 2)

    def q_values(self):
        return {x: Fraction(h, 2) for x, h in zip(self.elements(), self.qh_table())}

    def delta(self):
        """1 iff q takes a non-integral value, i.e. iff some generator does."""
        return 1 if any(h & 1 for h in self.qh_gen) else 0

    def is_nondegenerate(self):
        """b is nondegenerate iff 2b is nonsingular over F2."""
        return self.characteristic_solve()[1] == self.a

    def direct_sum(self, other):
        a = self.a + other.a
        q_gen = self.q_gen + other.q_gen
        b = [[Fraction(0)] * a for _ in range(a)]
        for i in range(self.a):
            for j in range(self.a):
                b[i][j] = self.b_mat[i][j]
        for i in range(other.a):
            for j in range(other.a):
                b[self.a + i][self.a + j] = other.b_mat[i][j]
        return FiniteQuadraticForm(a, q_gen, b)

    def __eq__(self, other):
        return (isinstance(other, FiniteQuadraticForm)
                and self.q_gen == other.q_gen and self.b_mat == other.b_mat)

    def __repr__(self):
        return f"FiniteQuadraticForm(a={self.a})"


class SubgroupSpec:
    """A subgroup of (Z/2)^a given by generators; the span is stored reduced."""

    def __init__(self, generators, a=None):
        self.a = a if a is not None else (len(generators[0]) if generators else 0)
        gens, span = _xor_span(_encode(g) for g in generators)
        self._gens = gens
        self._span = frozenset(span)

    @classmethod
    def _of(cls, a, gens, span):
        """From independent int generators and their span."""
        G = cls.__new__(cls)
        G.a, G._gens, G._span = a, gens, span
        return G

    @property
    def generators(self):
        return [_decode(g, self.a) for g in self._gens]

    @property
    def rank(self):
        return len(self._gens)

    def elements(self):
        return [_decode(x, self.a) for x in sorted(self._span)]

    def order(self):
        return len(self._span)

    def __contains__(self, x):
        return _encode(x) in self._span

    def __eq__(self, other):
        return isinstance(other, SubgroupSpec) and self._span == other._span

    def __repr__(self):
        return f"SubgroupSpec(rank={self.rank}, a={self.a})"


# ---------------------------------------------------------------------------

def milgram_signature(q):
    """sigma mod 8 from the Gauss sum: sum e^(pi i q(x)) = sqrt|D| e^(2 pi i sigma/8)."""
    table = q.qh_table()
    # e^(pi i h/2) = zeta^(2h): 1, i, -1, -i for h = 0..3
    c0, c1, c2, c3 = (table.count(h) for h in range(4))
    total = CycEight((c0 - c2, 0, c1 - c3, 0))
    if total.is_zero():
        raise DegenerateForm("Gauss sum vanishes")
    a = q.a
    mag = CycEight.integer(2) ** (a // 2)
    if a % 2:
        mag = mag * CycEight.sqrt2()
    for sigma in range(8):
        if total == mag * CycEight.zeta_power(sigma):
            return sigma
    raise DegenerateForm("Gauss sum has the wrong magnitude")


def parity_delta(q):
    return q.delta()


def form_invariants(q):
    if not q.is_nondegenerate():
        raise DegenerateForm("bilinear form is degenerate")
    return (q.a, q.delta(), milgram_signature(q))


def forms_isometric(q1, q2):
    """2-elementary nondegenerate forms are classified by (a, delta, sigma)."""
    return form_invariants(q1) == form_invariants(q2)


def iter_isotropic_subgroups(q, max_order):
    """Subgroups on which q vanishes identically, of order <= max_order,
    in a deterministic order (each subgroup yielded once via its greedy basis).
    """
    table = q.qh_table()
    candidates = [x for x in range(1, len(table)) if table[x] == 0]

    def extend(gens, span, start):
        yield SubgroupSpec._of(q.a, gens, span)
        if 2 * len(span) > max_order:
            return
        for i in range(start, len(candidates)):
            c = candidates[i]
            if c in span or any(q.b2(g, c) for g in gens):
                continue
            coset = [c ^ s for s in span]
            if min(coset) != c:
                continue
            yield from extend(gens + [c], span.union(coset), i + 1)

    yield from extend([], frozenset([0]), 0)


def isotropic_subgroups(q, max_order):
    return list(iter_isotropic_subgroups(q, max_order))


def quotient_form(q, G):
    """The induced form on Gperp/G for an isotropic subgroup G."""
    table = q.qh_table()
    if any(table[g] for g in G._span):
        raise NotIsotropic("q does not vanish on the subgroup")
    perp = [x for x in range(len(table)) if not any(q.b2(g, x) for g in G._gens)]
    reps, _ = _xor_span(perp, G._span)
    # q descends: check independence of coset representative
    for r in reps:
        if any(table[r ^ g] != table[r] for g in G._span):
            raise NotIsotropic("q does not descend to the quotient")
    q_gen = [Fraction(table[r], 2) for r in reps]
    b = [[Fraction(q.b2(r, s), 2) for s in reps] for r in reps]
    return FiniteQuadraticForm(len(reps), q_gen, b)


def _isometries(q1, q2):
    """Every generator-image table (a list of element ints of q2) of an
    isometric embedding q1 -> q2, by backtracking in element order."""
    a = q1.a
    table = q2.qh_table()

    def place(i, images, span):
        if i == a:
            yield images
            return
        row = q1.rows[i]
        for x in range(len(table)):
            if table[x] != q1.qh_gen[i] or x in span:
                continue
            if any(q2.b2(y, x) != (row >> (a - 1 - j)) & 1
                   for j, y in enumerate(images)):
                continue
            yield from place(i + 1, images + [x], span | {x ^ s for s in span})

    return place(0, [], {0})


def orthogonal_group_order(q, bound=8):
    """|O(q)| by backtracking over generator images."""
    if q.a > bound:
        raise BoundExceeded(f"a = {q.a} exceeds the search bound {bound}")
    return sum(1 for _ in _isometries(q, q))


def isometry_witness(q1, q2):
    """An explicit generator-image table carrying q1 to q2, or None.

    Brute-force; intended for cross-checking forms_isometric on small forms.
    """
    if q1.a != q2.a:
        return None
    images = next(_isometries(q1, q2), None)
    if images is None:
        return None
    return [_decode(x, q2.a) for x in images]


# ---------------------------------------------------------------------------
# induced discriminant actions of lattice isometries

def induced_disc_action(L, gamma):
    """The F2 matrix of the action of gamma in O(L) on the D_L generators.

    Raises NotIsometry if gamma does not preserve the gram matrix; the
    result is checked to preserve q_L.
    """
    from .lattice import induced_disc_matrix, discriminant_form

    m = induced_disc_matrix(L, gamma)
    form = discriminant_form(L)
    a = form.a
    cols = _cols(m)
    table = form.qh_table()
    for j in range(a):
        if table[cols[j]] != form.qh_gen[j]:
            raise NotIsometry("induced map fails to preserve q")
        for i in range(a):
            if form.b2(cols[i], cols[j]) != (form.rows[i] >> (a - 1 - j)) & 1:
                raise NotIsometry("induced map fails to preserve b")
    return m


def matrix_group_order(generators):
    """Order of the group of F2 matrices generated by the given list."""
    if not generators:
        return 1
    n = len(generators[0])
    ident = tuple(1 << (n - 1 - j) for j in range(n))
    gens = [_cols(g) for g in generators]
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = tuple(_apply(m, c) for c in g)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return len(seen)
