"""Integral lattices with labeled bases: duals, rescaling, sums, discriminant
groups and forms, overlattices from glue vectors, main invariants, and the
unimodular gluing check.
"""

import json
import math
import re
from fractions import Fraction

from .exactalg import (
    smith_normal_form,
    hermite_normal_form_columns,
    mat_mul,
    transpose,
    _det_and_inertia,
)
from .finiteform import FiniteQuadraticForm, _apply, _cols, _encode, _insert, _rows
from .errors import (
    NotTwoElementary,
    OddLattice,
    NotIntegral,
    NotInDual,
    NotUnimodular,
    NotGraph,
    NotIsometry,
    ParseError,
    BoundExceeded,
)


class Lattice:
    """A non-degenerate integral symmetric bilinear form on Z^n.

    gram: symmetric matrix of integers (2.0 or Fraction(4, 2) pass), det != 0.
    labels: optional basis names.
    A gram from outside is checked, and one symmetric Bareiss pass gives its
    det and signature; the named atoms, rescale and direct_sum know both and
    build through `_of`, so a parsed lattice runs no elimination.  Where the
    blocks are even 2-elementary they also carry (a, delta), which
    main_invariant reads with no Smith form; `Lattice(L.gram)` derives it
    from the Smith form instead, the independent check (`geo verify` must
    use it).  The Smith form gives D_L, its basis and dual(2), and only a
    dense gram (parsed ones are block sums) can make the entries of its
    transforms grow with the rank.
    """

    def __init__(self, gram, labels=None):
        rows = [list(row) for row in gram]
        gram = [list(map(int, row)) for row in rows]
        if gram != rows:
            raise ValueError("gram entries must be integers")
        n = len(gram)
        for row in gram:
            if len(row) != n:
                raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        det, sig = _det_and_inertia(gram)
        if det == 0:
            raise ValueError("gram matrix must be nonsingular")
        labels = list(labels) if labels else [f"b{i+1}" for i in range(n)]
        if len(labels) != n:
            raise ValueError("label count must match rank")
        self.gram, self.labels, self.expr = gram, labels, None
        self._det, self._sig, self._snf, self._inv = det, sig[:2], None, None

    @classmethod
    def _of(cls, gram, labels, expr, det, sig, inv=None):
        """From a fresh, valid gram whose det and signature the caller
        knows: no checks and no elimination.  inv is (a, delta) when the
        caller knows the lattice is even 2-elementary, else None."""
        out = cls.__new__(cls)
        out.gram, out.labels, out.expr = gram, labels, expr
        out._det, out._sig, out._snf, out._inv = det, sig, None, inv
        return out

    @property
    def rank(self):
        return len(self.gram)

    def det(self):
        return self._det

    def signature(self):
        """(n_plus, n_minus); no zero part since gram is nonsingular."""
        return self._sig

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def pair(self, x, y):
        """Bilinear form on rational vectors in basis coordinates."""
        xs, dx = _over_common_den(x)
        ys, dy = _over_common_den(y)
        return Fraction(_dot(ys, _mat_vec(self.gram, xs)), dx * dy)

    def norm(self, x):
        return self.pair(x, x)

    def in_dual(self, x):
        """Whether a rational vector pairs integrally with the whole lattice."""
        xs, den = _over_common_den(x)
        return all(c % den == 0 for c in _mat_vec(self.gram, xs))

    # discriminant machinery ------------------------------------------
    def _snf_data(self):
        if self._snf is None:
            d, u, v = smith_normal_form(self.gram)
            nontrivial = [i for i in range(self.rank) if d[i][i] > 1]
            self._snf = (d, u, v, nontrivial)
        return self._snf

    def disc_orders(self):
        d, u, v, nontrivial = self._snf_data()
        return [d[i][i] for i in nontrivial]

    @property
    def basis_in_ambient(self):
        """An overlattice's basis in the old rational coordinates, as columns."""
        basis, denom = self._ambient  # only `overlattice` sets it
        return [[Fraction(x, denom) for x in row] for row in basis]

    def disc_generator_lifts(self):
        """Lifts in L-dual (basis coordinates) of the D_L generators."""
        d, u, v, nontrivial = self._snf_data()
        return [[Fraction(v[r][i], d[i][i]) for r in range(self.rank)]
                for i in nontrivial]

    def lift_over_two(self, bits):
        """A lift in L-dual of the D_L element with these bits, L 2-elementary: sum(v_i) / 2."""
        *_, v, nontrivial = self._snf_data()
        pick = [i for i, bit in zip(nontrivial, bits) if bit]
        return [Fraction(sum(row[i] for i in pick), 2) for row in v]

    def disc_class(self, x):
        """Coordinates of x + L in D_L = prod Z/d_i, for x in the dual."""
        xs, den = _over_common_den(x)
        gx = _mat_vec(self.gram, xs)
        if any(c % den for c in gx):
            raise NotInDual(f"vector {x} does not pair integrally with the lattice")
        d, u, v, nontrivial = self._snf_data()
        gx = [c // den for c in gx]
        return tuple(_dot(u[i], gx) % d[i][i] for i in nontrivial)

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.gram == other.gram

    def __repr__(self):
        if self.expr:
            return f"Lattice({self.expr!r})"
        return f"Lattice(rank={self.rank}, det={self.det()})"


def _over_common_den(x):
    """(ints, den) with x = ints / den, den > 0 the lcm of x's denominators."""
    den = math.lcm(*(c.denominator for c in x))
    return [c.numerator * (den // c.denominator) for c in x], den


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y) if a)


def _mat_vec(m, x):
    return [_dot(x, row) for row in m]


class MainInvariant:
    """(r_plus, r_minus, a, delta) of an even 2-elementary lattice."""

    def __init__(self, r_plus, r_minus, a, delta):
        if a > r_plus + r_minus:
            raise ValueError("a cannot exceed the rank")
        if delta not in (0, 1):
            raise ValueError("delta must be 0 or 1")
        self.r_plus = r_plus
        self.r_minus = r_minus
        self.a = a
        self.delta = delta

    @property
    def triplet(self):
        """The (r, a, delta) view used for the K3 geography."""
        return (self.r_plus + self.r_minus, self.a, self.delta)

    def as_tuple(self):
        return (self.r_plus, self.r_minus, self.a, self.delta)

    def __eq__(self, other):
        if isinstance(other, tuple):
            return self.as_tuple() == other
        return isinstance(other, MainInvariant) and self.as_tuple() == other.as_tuple()

    def __repr__(self):
        return f"MainInvariant{self.as_tuple()}"


# ---------------------------------------------------------------------------
# basic constructions

def _integer(x):
    """x as an int, for integral values of any numeric type."""
    n = int(x)
    if n != x:
        raise ValueError("gram entries must be integers")
    return n


def rescale(L, n):
    """L with its form times the integer n: det n^rank det(L), and the
    signature swapped when n < 0.  (a, delta) survives n = -1; an even
    unimodular L times 2 has D = L/2L with q integral, so (rank, 0)."""
    n = _integer(n)
    if n == 0:
        raise ValueError("scale factor must be nonzero")
    name = f"{L.expr}({n})" if L.expr in ("U", "E8") else None
    inv = (L._inv if abs(n) == 1 else
           (L.rank, 0) if abs(n) == 2 and L._inv == (0, 0) else None)
    return Lattice._of([[n * x for x in row] for row in L.gram], list(L.labels), name,
                       n ** L.rank * L.det(), L.signature()[::1 if n > 0 else -1], inv)


def direct_sum(*lattices):
    gram = []
    labels = []
    total = sum(L.rank for L in lattices)
    offset = 0
    for L in lattices:
        for i, row in enumerate(L.gram):
            gram.append([0] * offset + list(row) + [0] * (total - offset - L.rank))
        labels.extend(L.labels)
        offset += L.rank
    parts = [L.expr for L in lattices]
    expr = " + ".join(parts) if all(parts) and parts else None
    # det is multiplicative and inertia additive over an orthogonal sum; so
    # is D_L, whence a adds and delta is the largest (Nikulin 1979, 1.4)
    sig = tuple(map(sum, zip((0, 0), *(L.signature() for L in lattices))))
    invs = [L._inv for L in lattices]
    inv = None if None in invs else (sum(a for a, _ in invs), max((d for _, d in invs), default=0))
    return Lattice._of(gram, labels, expr, math.prod(L.det() for L in lattices), sig, inv)


def discriminant_group(L):
    """(orders, generator_lifts) presenting D_L as a product of cyclic groups."""
    return L.disc_orders(), L.disc_generator_lifts()


def is_two_elementary(L):
    return L._inv is not None or all(d == 2 for d in L.disc_orders())


def discriminant_form(L):
    """The finite quadratic form (D_L, q_L, b_L) of an even 2-elementary L."""
    if not L.is_even():
        raise OddLattice("q_L is only defined for even lattices")
    if not is_two_elementary(L):
        raise NotTwoElementary(f"elementary divisors {L.disc_orders()}")
    # the generator lifts are v_i / 2 for the nontrivial SNF columns v_i, so
    # W = V^T G V holds 4 q on the diagonal and 4 b off it
    d, u, v, nontrivial = L._snf_data()
    cols = [[row[i] for row in v] for i in nontrivial]
    w = mat_mul(cols, mat_mul(L.gram, transpose(cols)))
    return FiniteQuadraticForm.from_lift_gram(w)


def main_invariant(L):
    """(r_plus, r_minus, a, delta): (a, delta) from the blocks when a parsed
    lattice carries it, else from the Smith form, as for `Lattice(L.gram)`."""
    if L._inv is not None:
        return MainInvariant(*L.signature(), *L._inv)
    if not L.is_even():
        raise OddLattice("main invariant is defined for even lattices")
    if not is_two_elementary(L):
        raise NotTwoElementary(f"elementary divisors {L.disc_orders()}")
    r_plus, r_minus = L.signature()
    form = discriminant_form(L)
    return MainInvariant(r_plus, r_minus, form.a, form.delta())


# ---------------------------------------------------------------------------
# overlattices

def overlattice(L, glue):
    """The lattice generated by L and the glue vectors, rational vectors in
    the dual given in the lattice basis.

    Returns (M, index).  Dependent glue vectors are collapsed by the
    Hermite-form basis computation, so the index is always correct.  M may
    be odd; evenness is the caller's question to ask.
    """
    glue = [[Fraction(c) for c in g] for g in glue]
    n = L.rank
    for g in glue:
        if len(g) != n:
            raise ValueError("glue vector has wrong length")
        if not L.in_dual(g):
            raise NotInDual(f"glue vector {g} is not in the dual lattice")
    # everything below is over one common denominator
    over = [_over_common_den(g) for g in glue]
    denom = math.lcm(*(den for _, den in over))
    scaled = [[c * (denom // den) for c in g] for g, den in over]
    denom2 = denom * denom
    for i, g in enumerate(scaled):
        gg = _mat_vec(L.gram, g)
        if any(_dot(h, gg) % denom2 for h in scaled[i:]):
            raise NotIntegral("glue vectors pair non-integrally")
    gen = [[denom * (1 if i == j else 0) for i in range(n)] for j in range(n)]
    gen += scaled
    # columns of the generator matrix, rows indexed by ambient coordinate
    mat = [[gen[k][i] for k in range(len(gen))] for i in range(n)]
    basis = hermite_normal_form_columns(mat)
    index = denom ** n // math.prod(basis[i][i] for i in range(n))
    scaled_gram = mat_mul(transpose(basis), mat_mul(L.gram, basis))
    if any(x % denom2 for row in scaled_gram for x in row):
        raise NotIntegral("generated group is not an integral lattice")
    labels = [f"m{i+1}" for i in range(n)]
    M = Lattice([[x // denom2 for x in row] for row in scaled_gram], labels)
    M._ambient = (basis, denom)
    return M, index


def dual_rescaled(L):
    """L-dual with the form scaled by 2, integral iff L is 2-elementary: from
    the Smith form u G v = d, 2 G^-1 = v diag(2 / d_i) u with every d_i | 2."""
    if not is_two_elementary(L):
        raise NotTwoElementary("dual(2) is integral only for 2-elementary lattices")
    d, u, v, _ = L._snf_data()
    gram = mat_mul(v, [[2 // d[i][i] * x for x in row] for i, row in enumerate(u)])
    return Lattice(gram, [f"{name}*" for name in L.labels])


# ---------------------------------------------------------------------------
# gluing (Nikulin's criterion for extending isometries)

def glue_map_from_embedding(L, M, glue):
    """Recover lambda from a unimodular even gluing of L + M, as the F2
    matrix given by rows whose column j is the image of D_L generator j over
    the D_M generators.

    The glue classes must form the graph of an anti-isometry; otherwise
    NotGraph.  The glued lattice must be even unimodular; otherwise
    NotUnimodular.
    """
    glue = [[Fraction(c) for c in g] for g in glue]
    S = direct_sum(L, M)
    Lam, index = overlattice(S, glue)
    if abs(Lam.det()) != 1:
        raise NotUnimodular(f"glued lattice has det {Lam.det()}")
    if not Lam.is_even():
        raise NotUnimodular("glued lattice is not even")
    if not (is_two_elementary(L) and is_two_elementary(M)):
        raise NotTwoElementary("gluing is implemented for 2-elementary factors")
    a_L = len(L.disc_orders())
    a_M = len(M.disc_orders())
    nL = L.rank
    basis = {}
    for g in glue:
        _insert(basis, _encode(tuple(L.disc_class(g[:nL])) + tuple(M.disc_class(g[nL:]))))
    if len(basis) != a_L or a_L != a_M:
        raise NotGraph("glue group is not the graph of a bijection D_L -> D_M")
    # an element is x_L in the high a_L bits and x_M in the low a_M bits; the
    # projection to D_L is injective iff every leading bit is an x_L bit, and
    # then the basis vector led by the bit of e_j is e_j + lambda(e_j)
    mask = (1 << a_M) - 1
    if any(lead <= mask for lead in basis):
        raise NotGraph("glue group projects non-injectively to D_L")
    cols = [basis[1 << (a_M + a_L - 1 - j)] & mask for j in range(a_L)]
    # defining property: q_M(lambda x) = -q_L(x)
    qL = discriminant_form(L).qh_table()
    qM = discriminant_form(M).qh_table()
    if any(qM[_apply(cols, x)] != -qL[x] % 4 for x in range(1 << a_L)):
        raise NotGraph("glue map fails the anti-isometry relation")
    return _rows(cols, a_M)


def induced_disc_matrix(L, gamma):
    """The F2 matrix of the action of gamma in O(L) on the D_L generators,
    for an even 2-elementary L.

    Raises NotIsometry if gamma does not preserve the gram matrix; the
    result is checked to preserve q_L and b_L.
    """
    gamma = [[int(x) for x in row] for row in gamma]
    if mat_mul(transpose(gamma), mat_mul(L.gram, gamma)) != L.gram:
        raise NotIsometry("matrix does not preserve the gram matrix")
    form = discriminant_form(L)
    cols = [_encode(L.disc_class(_mat_vec(gamma, lift))) for lift in L.disc_generator_lifts()]
    table = form.qh_table()
    if [table[c] for c in cols] != form.qh_gen:
        raise NotIsometry("induced map fails to preserve q")
    if [_encode(form.b2(c, e) for e in cols) for c in cols] != form.rows:
        raise NotIsometry("induced map fails to preserve b")
    return _rows(cols, form.a)


def glues_to_isometry(L, M, lam, gamma_L, gamma_M):
    """Whether (gamma_L, gamma_M) extends to the glued unimodular lattice:
    the induced discriminant actions must match through lambda, the matrix
    `glue_map_from_embedding` returns.
    """
    rL = _cols(induced_disc_matrix(L, gamma_L))
    rM = _cols(induced_disc_matrix(M, gamma_M))
    lam_cols = _cols(lam)
    return ([_apply(lam_cols, c) for c in rL]
            == [_apply(rM, c) for c in lam_cols])


# ---------------------------------------------------------------------------
# named gram matrices

# E8 as the tree with arms of lengths 1, 2 and 4 hanging off node 0
_E8_EDGES = [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7)]
_E7_EDGES = _E8_EDGES[:-1]
_D4_EDGES = [(0, 1), (0, 2), (0, 3)]


def hyperbolic_plane():
    return Lattice._of([[0, 1], [1, 0]], ["u", "v"], "U", -1, (1, 1), (0, 0))


def _root_lattice(n, edges, prefix, expr, det, inv):
    """The negative-definite lattice of a simply-laced Dynkin tree."""
    gram = [[0] * i + [-2] + [0] * (n - 1 - i) for i in range(n)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = 1
    return Lattice._of(gram, [f"{prefix}{i+1}" for i in range(n)], expr, det, (0, n), inv)


def e8_lattice():
    """E8 in the negative-definite convention."""
    return _root_lattice(8, _E8_EDGES, "f", "E8", 1, (0, 0))


def e7_lattice():
    """E7 in the negative-definite convention."""
    return _root_lattice(7, _E7_EDGES, "f", "E7", -2, (1, 1))


def d4_lattice():
    """D4 in the negative-definite convention."""
    return _root_lattice(4, _D4_EDGES, "d", "D4", 4, (2, 0))


def span_lattice(k):
    k = _integer(k)
    if k == 0:
        raise ValueError("gram matrix must be nonsingular")
    return Lattice._of([[k]], ["g"], f"<{k}>", k, (1, 0) if k > 0 else (0, 1),
                       (1, 1) if abs(k) == 2 else None)


def m_lattice(n):
    """M_n = <2> + <-2>^(n-1) on the basis h, e_1, .., e_{n-1}."""
    if n < 1:
        raise ValueError("M_n needs n >= 1")
    gram = [[0] * i + [-2] + [0] * (n - 1 - i) for i in range(n)]
    gram[0][0] = 2
    return Lattice._of(gram, ["h"] + [f"e{i}" for i in range(1, n)], f"M{n}",
                       2 * (-2) ** (n - 1), (1, n - 1), (n, 1))


def k3_lattice():
    U = hyperbolic_plane()
    E8 = e8_lattice()
    L = direct_sum(U, U, U, E8, E8)
    L.expr = "LambdaK3"
    return L


# ---------------------------------------------------------------------------
# parsing / serialization

# The largest rank parse_lattice builds.  Building writes O(rank^2) gram
# entries and runs no elimination, and `lat info` reads (a, delta) off the
# blocks: in process it takes 0.25-0.4 ms on E8(2)^12 or U(2)^48 (rank 96).
# D_L, and the invariant of other grams, run the Smith form at O(rank^3): 6-21
# ms there, under 1 ms on LambdaK3, the largest lattice the package works with.
MAX_RANK = 96


def _check_rank(rank):
    if rank > MAX_RANK:
        raise BoundExceeded(f"rank {rank} is past the lattice bound {MAX_RANK}")


_TOKEN = re.compile(r"\s*(\^|\+|U\(\s*-?\d+\s*\)|U|E8\(\s*-?\d+\s*\)|E8|A1|"
                    r"M\d+|LambdaK3|<\s*-?\d+\s*>|-?\d+)")


def _tokenize(expr):
    pos = 0
    out = []
    while pos < len(expr.rstrip()):  # trailing blanks end the expression
        m = _TOKEN.match(expr, pos)
        if not m:  # no token starts at the first character past the blanks
            bad = len(expr) - len(expr[pos:].lstrip())
            raise ParseError(f"unexpected character {expr[bad]!r}", bad)
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


def _atom_lattice(tok, pos):
    if tok in ("U", "E8"):
        return hyperbolic_plane() if tok == "U" else e8_lattice()
    if tok.startswith(("U(", "E8(")):
        name, n = tok[:-1].split("(")
        if int(n) == 0:
            raise ParseError("scale factor must be nonzero", pos)
        return rescale(_atom_lattice(name, pos), int(n))
    if tok == "A1":
        out = span_lattice(-2)
        out.expr = "A1"
        return out
    if tok.startswith("M"):
        n = int(tok[1:])
        if n < 1:
            raise ParseError("M_n needs n >= 1", pos)
        _check_rank(n)
        return m_lattice(n)
    if tok == "LambdaK3":
        return k3_lattice()
    if tok.startswith("<"):
        k = int(tok[1:-1].strip())
        if k == 0:
            raise ParseError("rank-1 lattice <0> is degenerate", pos)
        return span_lattice(k)
    raise ParseError(f"unknown atom {tok!r}", pos)


def parse_lattice(expr):
    """Parse expressions like "<2>^2 + <-2>^6" or "U + U + U + E8 + E8"."""
    tokens = _tokenize(expr)
    if not tokens:
        raise ParseError("empty expression", 0)
    tokens.append((None, tokens[-1][1]))  # the end, at the last token's position
    parts, pieces, rank, i = [], [], 0, 0
    while True:
        tok, pos = tokens[i]
        if tok in ("+", "^", None):  # an atom is due; None is the end, past a '+'
            due = f"expected a lattice atom, got {tok!r}" if tok else "dangling '+'"
            raise ParseError(due, pos)
        atom, mult = _atom_lattice(tok, pos), 1
        if tokens[i + 1][0] == "^":
            i += 2
            tok, pos = tokens[i]
            if tok is None:
                raise ParseError("dangling '^'", pos)
            try:
                mult = int(tok)
            except ValueError:
                raise ParseError(f"power must be an integer, got {tok!r}", pos)
            if mult < 1:
                raise ParseError("power must be >= 1", pos)
        rank += atom.rank * mult
        parts.append(atom.expr if mult == 1 else f"{atom.expr}^{mult}")
        pieces += [atom] * mult if rank <= MAX_RANK else []  # no huge list: _check_rank refuses
        tok, pos = tokens[i + 1]
        if tok is None:
            break
        if tok != "+":
            raise ParseError(f"expected '+', got {tok!r}", pos)
        i += 2
    _check_rank(rank)
    out = direct_sum(*pieces) if len(pieces) > 1 else pieces[0]
    out.expr = " + ".join(parts)
    return out


def serialize_lattice(L):
    """Canonical expression when one is known, else the JSON form."""
    if L.expr:
        return L.expr
    return lattice_to_json(L)


def lattice_to_json(L):
    return json.dumps({"labels": L.labels, "gram": L.gram}, separators=(",", ":"))


def lattice_from_json(text):
    data = json.loads(text)
    return Lattice(data["gram"], data.get("labels"))
