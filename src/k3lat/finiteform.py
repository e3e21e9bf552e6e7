"""Finite 2-elementary quadratic forms (D, q, b) on D = (Z/2)^a.

q takes values in (1/2)Z mod 2Z, b in (1/2)Z mod Z.  Inside the package an
element of D is a Python int: coordinate i sits in bit a-1-i, so the int of
an element equals its index in ``elements()`` and int order is the tuple
order.  q is kept in half-units mod 4 and 2b as one bitmask row per
generator; b(x, y) is the parity of popcount(Bx & y).  A subspace, such as
a subgroup or a kernel, is kept as its reduced echelon basis.  The public
methods take and return coordinate tuples and Fractions, converting at the
edge.
"""

from fractions import Fraction
from copy import copy
from functools import cached_property
from itertools import product, tee

from .errors import DegenerateForm, NotIsotropic, BoundExceeded

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# the F2 kernel on int-encoded elements.  A subspace is kept as its reduced
# echelon basis, unique to it: a dict {leading bit: vector} whose keys are the
# top bits of their vectors, each set in its own vector only.

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


def _rows(cols, a):
    """The a rows of the F2 matrix whose columns are the ints ``cols``: the
    inverse of `_cols`."""
    return [[(c >> (a - 1 - i)) & 1 for c in cols] for i in range(a)]


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


def _reduce(basis, v):
    """v with every leading bit of the basis cleared: 0 iff v lies in the
    span, and otherwise the least element of the coset v + span."""
    for lead, b in basis.items():
        if v & lead:
            v ^= b
    return v


def _insert(basis, v):
    """Add v to the basis unless it lies in the span; returns v reduced, so
    0 when nothing was added."""
    v = _reduce(basis, v)
    if v:
        lead = 1 << (v.bit_length() - 1)
        for k, b in basis.items():
            if b & lead:
                basis[k] = b ^ v
        basis[lead] = v
    return v


def _eliminate(cols):
    """The reduced basis of the vectors col_i with e_i appended below them
    (n = len(cols) bits, coordinate i in bit n-1-i).  Its rows < 2^n are the
    kernel's reduced basis; for the others, row >> n is the image's reduced
    basis and row & (2^n - 1) a combination of columns giving it."""
    n, basis = len(cols), {}
    for i, col in enumerate(cols):
        _insert(basis, (col << n) | (1 << (n - 1 - i)))
    return basis


class FiniteQuadraticForm:
    """Stored as qh_gen (q per generator in half-units mod 4) and rows (2b as
    bitmasks); q_gen and b_mat are Fraction tuples derived from them."""

    def __init__(self, a, q_gen, b):
        """From Fraction-valued generator data, validated."""
        q_gen = [Fraction(x) % 2 for x in q_gen]
        b = [[Fraction(x) % 1 for x in row] for row in b]
        if len(q_gen) != a or len(b) != a:
            raise ValueError("generator data has wrong length")
        for i in range(a):
            if len(b[i]) != a:
                raise ValueError("bilinear matrix must be square")
            for j in range(a):
                if b[i][j] != b[j][i]:
                    raise ValueError("bilinear matrix must be symmetric")
                if b[i][j] not in (0, HALF):
                    raise ValueError("b values must be 0 or 1/2 mod 1")
            if q_gen[i] % 1 != b[i][i]:
                raise ValueError("q(g) mod 1 must equal b(g,g)")
            if q_gen[i] not in (0, HALF, 1, Fraction(3, 2)):
                raise ValueError("q values must lie in (1/2)Z mod 2Z")
        self.a, self.qh_gen, self._qtable = a, [int(2 * x) for x in q_gen], None
        self.rows = [_encode(int(2 * x) for x in row) for row in b]

    @classmethod
    def _of(cls, a, qh_gen, rows):
        """From qh_gen and rows that agree: bit i of rows[i] is qh_gen[i] & 1,
        and the rows are symmetric."""
        form = cls.__new__(cls)
        form.a, form.qh_gen, form.rows, form._qtable = a, qh_gen, rows, None
        return form

    @classmethod
    def from_lift_gram(cls, w):
        """The form whose generator lifts pair to w[i][j] / 4 (w symmetric and
        integral): q_i = w_ii / 4 mod 2, b_ij = w_ij / 4 mod 1, so w is even."""
        if any(x & 1 for row in w for x in row):
            raise ValueError("b values must be 0 or 1/2 mod 1")
        return cls._of(len(w), [(row[i] >> 1) & 3 for i, row in enumerate(w)],
                       [_encode(x >> 1 for x in row) for row in w])

    @cached_property
    def q_gen(self):
        """q of each generator, a tuple of Fractions mod 2."""
        return tuple(Fraction(h, 2) for h in self.qh_gen)

    @cached_property
    def b_mat(self):
        """b on the generators, a tuple of rows of Fractions mod 1."""
        return tuple(tuple(Fraction((row >> (self.a - 1 - j)) & 1, 2) for j in range(self.a))
                     for row in self.rows)

    # int-encoded elements -----------------------------------------------
    def qh_table(self):
        """q of every element in half-units mod 4, by element int: built once, by `_doublings`."""
        if self._qtable is None:
            self._qtable = [[0], *self._doublings()][-1]
        return self._qtable

    def _doublings(self):
        """q's table on [0, 2^k) for k = 1..a, by q(x + e_i) = q(x) + q(e_i) + 2b(x, e_i)."""
        table = [0]
        for i in reversed(range(self.a)):  # low bits first: index == int
            qi, row = self.qh_gen[i], self.rows[i]
            table += [(v + qi + 2 * ((row & x).bit_count() & 1)) % 4
                      for x, v in enumerate(table)]
            yield table

    def bvec(self, x):
        """Bx: the bitmask of the y with 2b(x, y) = 1 among the generators."""
        return _apply(self.rows, x)

    def b2(self, x, y):
        """2b(x, y) in {0, 1}."""
        return (self.bvec(x) & y).bit_count() & 1

    def characteristic_solve(self):
        """(gamma, rank): a solution of B gamma = diag(B), or None, and the
        rank of B.  Such gamma satisfy b(gamma, y) = q(y) mod 1 for all y;
        there is exactly one when B has full rank."""
        a, basis = self.a, _eliminate(self.rows)  # B is symmetric: rows = columns
        rest = _reduce(basis, _encode(h & 1 for h in self.qh_gen) << a)
        return (None if rest >> a else rest), sum(1 for v in basis.values() if v >> a)

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
        return FiniteQuadraticForm._of(
            self.a + other.a, self.qh_gen + other.qh_gen,
            [row << other.a for row in self.rows] + other.rows)

    def __eq__(self, other):
        return (isinstance(other, FiniteQuadraticForm) and self.a == other.a
                and self.qh_gen == other.qh_gen and self.rows == other.rows)

    def __repr__(self):
        return f"FiniteQuadraticForm(a={self.a})"


class SubgroupSpec:
    """A subgroup of (Z/2)^a.  ``generators`` keeps, in order, each given one
    outside the span of those before it; equality compares the reduced
    bases, so it holds exactly for equal subgroups; ``elements()`` lists the
    subgroup in increasing order."""

    def __init__(self, generators, a=None):
        self.a = a if a is not None else (len(generators[0]) if generators else 0)
        self._basis = {}
        self._gens = [g for g in map(_encode, generators) if _insert(self._basis, g)]

    @classmethod
    def _of(cls, a, gens, basis):
        """From independent int generators and the reduced basis of their span."""
        G = cls.__new__(cls)
        G.a, G._gens, G._basis = a, gens, basis
        return G

    @cached_property
    def _span(self):
        """Every element, as a frozenset of ints."""
        span = [0]
        for v in self._basis.values():
            span += [v ^ s for s in span]
        return frozenset(span)

    def _has(self, x):
        """Whether the element int x lies in the subgroup."""
        return not _reduce(self._basis, x)

    @property
    def generators(self):
        return [_decode(g, self.a) for g in self._gens]

    @property
    def rank(self):
        return len(self._gens)

    def elements(self):
        return [_decode(x, self.a) for x in sorted(self._span)]

    def __eq__(self, other):
        return isinstance(other, SubgroupSpec) and self._basis == other._basis

    def __repr__(self):
        return f"SubgroupSpec(rank={self.rank}, a={self.a})"


# ---------------------------------------------------------------------------

# the direction (sign re, sign im) of sqrt(2^a) zeta^sigma in Z[i], by sigma
_GAUSS_DIRECTIONS = {(1, 0): 0, (1, 1): 1, (0, 1): 2, (-1, 1): 3,
                     (-1, 0): 4, (-1, -1): 5, (0, -1): 6, (1, -1): 7}


def milgram_signature(q):
    """sigma mod 8 from the Gauss sum: sum e^(pi i q(x)) = sqrt|D| e^(2 pi i sigma/8).
    The sum of i^qh(x) is a Gaussian integer re + i im; those of norm 2^a are
    units times (1 + i)^a, so once re^2 + im^2 = 2^a its signs fix sigma."""
    table = q.qh_table()
    c0, c1, c2, c3 = (table.count(h) for h in range(4))
    re, im = c0 - c2, c1 - c3
    if not (re or im):
        raise DegenerateForm("Gauss sum vanishes")
    if re * re + im * im != 1 << q.a:
        raise DegenerateForm("Gauss sum has the wrong magnitude")
    return _GAUSS_DIRECTIONS[(re > 0) - (re < 0), (im > 0) - (im < 0)]


def form_invariants(q):
    if not q.is_nondegenerate():
        raise DegenerateForm("bilinear form is degenerate")
    return (q.a, q.delta(), milgram_signature(q))


def forms_isometric(q1, q2):
    """2-elementary nondegenerate forms are classified by (a, delta, sigma)."""
    return form_invariants(q1) == form_invariants(q2)


def _isotropic_elements(q):
    """The nonzero x with q(x) = 0 in increasing order, read off q's doublings:
    the k-th gives [2^k, 2^(k+1)), made when read."""
    return (x for k, t in enumerate(q._doublings()) for x in range(1 << k, 2 << k) if not t[x])


def iter_isotropic_subgroups(q, max_order):
    """Subgroups on which q vanishes identically, of order <= max_order,
    each yielded once, depth first, with generators taken in increasing
    order from the isotropic elements, as far as read: c extends G when it is
    orthogonal to G and least in its coset c + G, i.e. has none of G's leading bits."""

    def extend(gens, basis, bgens, rest):
        yield SubgroupSpec._of(q.a, gens, basis)
        if 2 << len(gens) > max_order:
            return
        # Bg of each generator, once, and only for a G that is extended
        bgens = bgens + [q.bvec(g) for g in gens[len(bgens):]]
        leads = sum(basis)
        for c in rest:
            if c & leads or any((m & c).bit_count() & 1 for m in bgens):
                continue
            grown = dict(basis)
            _insert(grown, c)
            # a copy of the tee resumes after c, sharing the elements read so far
            yield from extend(gens + [c], grown, bgens, copy(rest))

    yield from extend([], {}, [], tee(_isotropic_elements(q), 1)[0])


def quotient_form(q, G):
    """The induced form on Gperp/G for an isotropic subgroup G.  Its
    generators are the vectors of Gperp's reduced basis, least first, that
    are independent modulo G and those before them: the ones a greedy pass
    over Gperp in increasing order picks."""
    table, gens = q.qh_table(), G._gens
    # column j of the matrix (2b(g_i, e_j))_ij, whose kernel is Gperp
    cols = [_encode((row & g).bit_count() for g in gens) for row in q.rows]
    # q vanishes on G iff it does on each g_i and G lies in Gperp
    if any(table[g] or _apply(cols, g) for g in gens):
        raise NotIsotropic("q does not vanish on the subgroup")
    basis = dict(G._basis)
    reps = [v for v in sorted(_eliminate(cols).values()) if v >> q.a == 0 and _insert(basis, v)]
    return FiniteQuadraticForm._of(
        len(reps), [table[r] for r in reps],
        [_encode(q.b2(r, s) for s in reps) for r in reps])


def _isometries(q1, q2):
    """Every generator-image table (a list of element ints of q2) of an
    isometric embedding q1 -> q2, by backtracking in element order."""
    a = q1.a
    table = q2.qh_table()

    def place(i, images, basis):
        if i == a:
            yield images
            return
        row = q1.rows[i]
        for x in range(len(table)):
            if table[x] != q1.qh_gen[i] or not _reduce(basis, x):
                continue
            if any(q2.b2(y, x) != (row >> (a - 1 - j)) & 1
                   for j, y in enumerate(images)):
                continue
            grown = dict(basis)
            _insert(grown, x)
            yield from place(i + 1, images + [x], grown)

    return place(0, [], {})


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
