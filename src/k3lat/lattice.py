"""Integral lattices with labeled bases: duals, rescaling, sums, discriminant
groups and forms, overlattices from glue vectors, main invariants, and the
unimodular gluing check.
"""

import json
import re
from fractions import Fraction

from .exactalg import (
    smith_normal_form,
    hermite_normal_form_columns,
    rational_inertia,
    rational_inverse,
    mat_mul,
    mat_vec,
    transpose,
    det,
)
from .finiteform import FiniteQuadraticForm, _apply, _cols, _encode, _xor_span
from .errors import (
    NotTwoElementary,
    OddLattice,
    NotIntegral,
    NotInDual,
    NotUnimodular,
    NotGraph,
    NotIsometry,
    ParseError,
)


class Lattice:
    """A non-degenerate integral symmetric bilinear form on Z^n.

    gram: symmetric integer matrix with det != 0.
    labels: optional basis names.
    """

    def __init__(self, gram, labels=None, expr=None):
        gram = [[int(x) for x in row] for row in gram]
        n = len(gram)
        for row in gram:
            if len(row) != n:
                raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        if n and det(gram) == 0:
            raise ValueError("gram matrix must be nonsingular")
        self.gram = gram
        self.labels = list(labels) if labels else [f"b{i+1}" for i in range(n)]
        if len(self.labels) != n:
            raise ValueError("label count must match rank")
        self.expr = expr
        self._snf = None
        self._sig = None

    @property
    def rank(self):
        return len(self.gram)

    def det(self):
        return det(self.gram)

    def signature(self):
        """(n_plus, n_minus); no zero part since gram is nonsingular."""
        if self._sig is None:
            np_, nm, nz = rational_inertia(self.gram)
            self._sig = (np_, nm)
        return self._sig

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def pair(self, x, y):
        """Bilinear form on rational vectors in basis coordinates."""
        gx = mat_vec(self.gram, [Fraction(c) for c in x])
        return sum(Fraction(a) * b for a, b in zip(y, gx))

    def norm(self, x):
        return self.pair(x, x)

    def in_dual(self, x):
        """Whether a rational vector pairs integrally with the whole lattice."""
        gx = mat_vec(self.gram, [Fraction(c) for c in x])
        return all(v.denominator == 1 for v in gx)

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

    def disc_generator_lifts(self):
        """Lifts in L-dual (basis coordinates) of the D_L generators."""
        d, u, v, nontrivial = self._snf_data()
        return [[Fraction(v[r][i], d[i][i]) for r in range(self.rank)]
                for i in nontrivial]

    def disc_class(self, x):
        """Coordinates of x + L in D_L = prod Z/d_i, for x in the dual."""
        gx = mat_vec(self.gram, [Fraction(c) for c in x])
        if any(v.denominator != 1 for v in gx):
            raise NotInDual(f"vector {x} does not pair integrally with the lattice")
        d, u, v, nontrivial = self._snf_data()
        z = mat_vec(u, [int(c) for c in gx])
        return tuple(z[i] % d[i][i] for i in nontrivial)

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.gram == other.gram

    def __repr__(self):
        if self.expr:
            return f"Lattice({self.expr!r})"
        return f"Lattice(rank={self.rank}, det={self.det()})"


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


class GlueSpec:
    """Rational vectors in the dual, given in the lattice basis."""

    def __init__(self, vectors):
        self.vectors = [[Fraction(c) for c in v] for v in vectors]

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)


# ---------------------------------------------------------------------------
# basic constructions

def rescale(L, n):
    if n == 0:
        raise ValueError("scale factor must be nonzero")
    name = f"{L.expr}({n})" if L.expr in ("U", "E8") else None
    return Lattice([[n * x for x in row] for row in L.gram], L.labels, name)


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
    return Lattice(gram, labels, expr)


def discriminant_group(L):
    """(orders, generator_lifts) presenting D_L as a product of cyclic groups."""
    return L.disc_orders(), L.disc_generator_lifts()


def is_two_elementary(L):
    return all(d == 2 for d in L.disc_orders())


def discriminant_form(L):
    """The finite quadratic form (D_L, q_L, b_L) of an even 2-elementary L."""
    if not L.is_even():
        raise OddLattice("q_L is only defined for even lattices")
    if not is_two_elementary(L):
        raise NotTwoElementary(f"elementary divisors {L.disc_orders()}")
    lifts = L.disc_generator_lifts()
    a = len(lifts)
    q_gen = [L.norm(x) % 2 for x in lifts]
    b = [[L.pair(x, y) % 1 for y in lifts] for x in lifts]
    return FiniteQuadraticForm(a, q_gen, b)


def main_invariant(L):
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
    """The lattice generated by L and the glue vectors.

    Returns (M, index).  Dependent glue vectors are collapsed by the
    Hermite-form basis computation, so the index is always correct.  M may
    be odd; evenness is the caller's question to ask.
    """
    if not isinstance(glue, GlueSpec):
        glue = GlueSpec(glue)
    n = L.rank
    for g in glue:
        if len(g) != n:
            raise ValueError("glue vector has wrong length")
        if not L.in_dual(g):
            raise NotInDual(f"glue vector {g} is not in the dual lattice")
    for i, g in enumerate(glue):
        for h in list(glue)[i:]:
            if L.pair(g, h).denominator != 1:
                raise NotIntegral("glue vectors pair non-integrally")
    denom = 1
    for g in glue:
        for c in g:
            denom = denom * c.denominator // _gcd(denom, c.denominator)
    gen = [[denom * (1 if i == j else 0) for i in range(n)] for j in range(n)]
    gen += [[int(c * denom) for c in g] for g in glue]
    # columns of the generator matrix, rows indexed by ambient coordinate
    mat = [[gen[k][i] for k in range(len(gen))] for i in range(n)]
    basis = hermite_normal_form_columns(mat)
    index = denom ** n // _diag_product(basis)
    bq = [[Fraction(basis[i][j], denom) for j in range(n)] for i in range(n)]
    new_gram = [[L.pair(_col(bq, i), _col(bq, j)) for j in range(n)] for i in range(n)]
    for row in new_gram:
        for x in row:
            if x.denominator != 1:
                raise NotIntegral("generated group is not an integral lattice")
    labels = [f"m{i+1}" for i in range(n)]
    M = Lattice([[int(x) for x in row] for row in new_gram], labels)
    M.basis_in_ambient = bq  # columns: new basis in the old rational coordinates
    return M, index


def _col(m, j):
    return [m[i][j] for i in range(len(m))]


def _diag_product(m):
    p = 1
    for i in range(len(m)):
        p *= m[i][i]
    return p


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def dual_rescaled(L):
    """L-dual with the form scaled by 2; integral iff L is 2-elementary."""
    if not is_two_elementary(L):
        raise NotTwoElementary("dual(2) is integral only for 2-elementary lattices")
    inv = rational_inverse(L.gram)
    gram = [[2 * x for x in row] for row in inv]
    out = []
    for row in gram:
        out.append([int(x) for x in row])
        for x in row:
            if Fraction(x).denominator != 1:
                raise NotTwoElementary("dual(2) failed to be integral")
    labels = [f"{name}*" for name in L.labels]
    return Lattice(out, labels)


# ---------------------------------------------------------------------------
# gluing (Nikulin's criterion for extending isometries)

class GlueMap:
    """An anti-isometry lambda: D_L -> D_M recorded on generators.

    matrix: columns are images of the D_L generators, as F2 coordinate
    vectors over the D_M generators.
    """

    def __init__(self, matrix, a_L, a_M):
        self.matrix = matrix
        self.a_L = a_L
        self.a_M = a_M


def glue_map_from_embedding(L, M, glue):
    """Recover lambda from a unimodular even gluing of L + M.

    The glue classes must form the graph of an anti-isometry; otherwise
    NotGraph.  The glued lattice must be even unimodular; otherwise
    NotUnimodular.
    """
    if not isinstance(glue, GlueSpec):
        glue = GlueSpec(glue)
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
    gens = [_encode(tuple(L.disc_class(g[:nL])) + tuple(M.disc_class(g[nL:])))
            for g in glue]
    _, span = _xor_span(gens)
    if len(span) != 2 ** a_L or a_L != a_M:
        raise NotGraph("glue group is not the graph of a bijection D_L -> D_M")
    # an element of the span is x_L in the high a_L bits, x_M in the low a_M
    lut = {}
    for v in sorted(span):
        key, image = v >> a_M, v & ((1 << a_M) - 1)
        if lut.setdefault(key, image) != image:
            raise NotGraph("glue group projects non-injectively to D_L")
    cols = [lut[1 << (a_L - 1 - j)] for j in range(a_L)]
    matrix = [[(c >> (a_M - 1 - i)) & 1 for c in cols] for i in range(a_M)]
    lam = GlueMap(matrix, a_L, a_M)
    # defining property: q_M(lambda x) = -q_L(x)
    qL = discriminant_form(L).qh_table()
    qM = discriminant_form(M).qh_table()
    for x, image in lut.items():
        if qM[image] != -qL[x] % 4:
            raise NotGraph("glue map fails the anti-isometry relation")
    return lam


def induced_disc_matrix(L, gamma):
    """Action of an isometry of L on the D_L generators, over F2."""
    gamma = [[int(x) for x in row] for row in gamma]
    gt = transpose(gamma)
    if mat_mul(gt, mat_mul(L.gram, gamma)) != L.gram:
        raise NotIsometry("matrix does not preserve the gram matrix")
    if not is_two_elementary(L):
        raise NotTwoElementary("induced action implemented for 2-elementary lattices")
    lifts = L.disc_generator_lifts()
    a = len(lifts)
    cols = []
    for x in lifts:
        image = mat_vec([[Fraction(e) for e in row] for row in gamma], x)
        cols.append(L.disc_class(image))
    return [[cols[j][i] for j in range(a)] for i in range(a)]


def glues_to_isometry(L, M, lam, gamma_L, gamma_M):
    """Whether (gamma_L, gamma_M) extends to the glued unimodular lattice:
    the induced discriminant actions must match through lambda.
    """
    rL = _cols(induced_disc_matrix(L, gamma_L))
    rM = _cols(induced_disc_matrix(M, gamma_M))
    lam_cols = _cols(lam.matrix)
    return ([_apply(lam_cols, c) for c in rL]
            == [_apply(rM, c) for c in lam_cols])


# ---------------------------------------------------------------------------
# named gram matrices

def _chain_gram(n, edges, diag=2):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = diag
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g

# E8 as the tree with arms of lengths 1, 2 and 4 hanging off node 0
_E8_EDGES = [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7)]
_E8_GRAM_NEG = [[-x for x in row] for row in _chain_gram(8, _E8_EDGES)]
_E7_EDGES = [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)]
_E7_GRAM_NEG = [[-x for x in row] for row in _chain_gram(7, _E7_EDGES)]
_D4_EDGES = [(0, 1), (0, 2), (0, 3)]
_D4_GRAM_NEG = [[-x for x in row] for row in _chain_gram(4, _D4_EDGES)]


def hyperbolic_plane():
    return Lattice([[0, 1], [1, 0]], ["u", "v"], "U")


def e8_lattice():
    """E8 in the negative-definite convention."""
    return Lattice(_E8_GRAM_NEG, [f"f{i+1}" for i in range(8)], "E8")


def e7_lattice():
    """E7 in the negative-definite convention."""
    return Lattice(_E7_GRAM_NEG, [f"f{i+1}" for i in range(7)], "E7")


def d4_lattice():
    """D4 in the negative-definite convention."""
    return Lattice(_D4_GRAM_NEG, [f"d{i+1}" for i in range(4)], "D4")


def span_lattice(k):
    return Lattice([[k]], ["g"], f"<{k}>")


def m_lattice(n):
    """M_n = <2> + <-2>^(n-1) on the basis h, e_1, .., e_{n-1}."""
    if n < 1:
        raise ValueError("M_n needs n >= 1")
    gram = [[0] * n for _ in range(n)]
    gram[0][0] = 2
    for i in range(1, n):
        gram[i][i] = -2
    return Lattice(gram, ["h"] + [f"e{i}" for i in range(1, n)], f"M{n}")


def k3_lattice():
    U = hyperbolic_plane()
    E8 = e8_lattice()
    L = direct_sum(U, U, U, E8, E8)
    L.expr = "LambdaK3"
    return L


# ---------------------------------------------------------------------------
# parsing / serialization

_TOKEN = re.compile(r"\s*(\^|\+|U\(\s*-?\d+\s*\)|U|E8\(\s*-?\d+\s*\)|E8|A1|"
                    r"M\d+|LambdaK3|<\s*-?\d+\s*>|-?\d+)")


def _tokenize(expr):
    pos = 0
    out = []
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if not m:
            if expr[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {expr[pos]!r}", pos)
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


def _atom_lattice(tok, pos):
    if tok == "U":
        return hyperbolic_plane()
    if tok.startswith("U("):
        n = int(tok[2:-1])
        if n == 0:
            raise ParseError("scale factor must be nonzero", pos)
        out = rescale(hyperbolic_plane(), n)
        out.expr = f"U({n})"
        return out
    if tok == "E8":
        return e8_lattice()
    if tok.startswith("E8("):
        n = int(tok[3:-1])
        if n == 0:
            raise ParseError("scale factor must be nonzero", pos)
        out = rescale(e8_lattice(), n)
        out.expr = f"E8({n})"
        return out
    if tok == "A1":
        out = span_lattice(-2)
        out.expr = "A1"
        return out
    if tok.startswith("M"):
        return m_lattice(int(tok[1:]))
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
    terms = []
    i = 0
    expect_atom = True
    while i < len(tokens):
        tok, pos = tokens[i]
        if expect_atom:
            if tok in ("+", "^"):
                raise ParseError(f"expected a lattice atom, got {tok!r}", pos)
            atom = _atom_lattice(tok, pos)
            mult = 1
            if i + 1 < len(tokens) and tokens[i + 1][0] == "^":
                if i + 2 >= len(tokens):
                    raise ParseError("dangling '^'", tokens[i + 1][1])
                ptok, ppos = tokens[i + 2]
                try:
                    mult = int(ptok)
                except ValueError:
                    raise ParseError(f"power must be an integer, got {ptok!r}", ppos)
                if mult < 1:
                    raise ParseError("power must be >= 1", ppos)
                i += 2
            terms.append((atom, mult))
            expect_atom = False
        else:
            if tok != "+":
                raise ParseError(f"expected '+', got {tok!r}", pos)
            expect_atom = True
        i += 1
    if expect_atom:
        raise ParseError("dangling '+'", tokens[-1][1])
    parts = []
    pieces = []
    for atom, mult in terms:
        base = atom.expr
        parts.append(base if mult == 1 else f"{base}^{mult}")
        pieces.extend([atom] * mult)
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
