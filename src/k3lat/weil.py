"""The Weil representation of Mp2(Z) attached to a 2-elementary form, with
exact matrices over the 8th-cyclotomic ring, the v_k indicator vectors, the
characteristic element 1_L, the six-coset lift components, and principal
parts.

Matrices and blocks of columns are stored as four integer numpy layers (the
zeta-components) over a common power-of-two denominator.  Words in S and T
act on such blocks without dense generator matrices: rho(T) is a diagonal of
8th roots of unity, and rho(S) is a character sum, one fast Walsh-Hadamard
transform over the 2^a axis (Scheithauer, IMRN 2009; Stromberg, Math. Z.
2013), so each generator costs O(a 2^a) per column: radix-2 butterflies in
place on a large stack, and up to WHT_PRODUCT_MAX entries one 8 x 8 matmul
per three bits (8 a 2^a / 3 operations in a/3 numpy calls where the
butterflies make a few per bit).  Its scalar places each transformed layer
with a sign, no product mixes them.  rho(S)^-1 is the same transform times
the conjugate scalar; the Gauss sum behind that scalar is what certifies
rho(S) unitary (see weil_scalar), so no dense product checks it.  Only full
matrices are capped in a (MAX_DENSE_A).
"""

import weakref
from fractions import Fraction
from functools import cache, cached_property

from ._lazy import LazyNumpy
from .exactalg import CycEight
from .errors import (
    DegenerateForm,
    UnsupportedInvariant,
    InsufficientPrecision,
    InvalidInput,
    BoundExceeded,
)
from .finiteform import _decode, _encode, milgram_signature
from .qseries import (
    N,
    psi_m,
    split_congruence,
    _psi_combination,
)

np = LazyNumpy(globals())

# Largest a for which a word is built as a full 2^a x 2^a matrix, or the
# identity block is checked in chunks; words on a few columns, such as e_0,
# have no cap.  At a = 10, as fresh processes on a 2-vCPU Xeon VM, `weil
# check` peaks at 42 MiB (three 4 MiB chunks; 126 MiB with full blocks) in
# 0.3-0.5 s, and `weil matrix --word S` at 54 MiB (two 32 MiB blocks).  Each
# step up in a doubles a chunk and quadruples a full block.
MAX_DENSE_A = 10

# Largest stack, in entries k n m, that _walsh_hadamard runs as radix-8
# products; larger ones run the radix-2 butterflies.  timeit on a 2-vCPU
# Xeon VM, butterflies -> products: (1, 16, 1) 22-37 -> 5-8 us, (1, 32, 32)
# 59-69 -> 24-27 us, (1, 64, 64) 65-110 -> 47-94 us; about even at 8,192
# entries ((2, 64, 64) 110-117 -> 94-99 us, (1, 128, 64) 122 -> 120 us), and
# the products lose from 16,384 ((1, 128, 128) 178-194 -> 224-244 us).
WHT_PRODUCT_MAX = 4096

# Columns of the identity block that relation_checks holds at a time.
CHECK_COLUMNS = 128

_TOKENS = ("S", "T", "S^-1", "T^-1")


def _canonical(comps, denom_exp, in_place):
    """(comps, denom_exp, max_abs), denom_exp minimal; in_place: comps is fresh."""
    max_abs = max(int(comps.max(initial=0)), -int(comps.min(initial=0)))
    if denom_exp > 0:
        # the 2-adic valuation of the OR of all entries is the smallest
        # valuation among them (two's complement keeps trailing zeros)
        low = int(np.bitwise_or.reduce(comps, axis=None))
        shift = min(denom_exp, (low & -low).bit_length() - 1) if low else denom_exp
        if shift:
            comps = np.right_shift(comps, shift, out=comps if in_place else None)
            max_abs >>= shift  # exact: every entry is a multiple of 2^shift
            denom_exp -= shift
    if max_abs > 1 << 45:
        raise OverflowError("cyclotomic matrix entries grew too large")
    return comps, denom_exp, max_abs


class CycMatrix:
    """An n x m matrix over Z[zeta_8, 1/2]: comps[k] holds the zeta^k layer,
    all over 2^denom_exp.  Canonical: denom_exp minimal."""

    def __init__(self, comps, denom_exp):
        # an exact (object) result past int64 raises OverflowError here
        comps = np.asarray(comps, dtype=np.int64)
        self.comps, self.denom_exp, self.max_abs = _canonical(comps, denom_exp, False)

    @classmethod
    def _of(cls, comps, denom_exp, max_abs):
        """From int64 layers already canonical, with their max_abs."""
        out = cls.__new__(cls)
        out.comps, out.denom_exp, out.max_abs = comps, denom_exp, max_abs
        return out

    @property
    def n(self):
        return self.comps.shape[1]

    @classmethod
    def identity(cls, n, lo=0, hi=None):
        """Columns lo..hi-1 of the n x n identity, all of them by default."""
        hi = n if hi is None else hi
        comps = np.zeros((4, n, hi - lo), dtype=np.int64)
        comps[0, lo:hi].reshape(-1)[::hi - lo + 1] = 1  # the diagonal of a square view
        return cls._of(comps, 0, 1)

    def __mul__(self, other):
        """The dense product: the matrix-free actions' reference, and a perfbench span."""
        inner = self.comps.shape[2]
        # an entry is a sum of at most 4 * inner products; where int64 could
        # wrap, multiply exactly on Python ints instead
        dtype = object if 4 * inner * self.max_abs * other.max_abs >> 63 else np.int64
        a, b = self.comps.astype(dtype, copy=False), other.comps.astype(dtype, copy=False)
        out = np.zeros((4, self.n, other.comps.shape[2]), dtype=dtype)
        for i in range(4):
            if not a[i].any():
                continue
            for j in range(4):
                if not b[j].any():
                    continue
                prod_ij = a[i] @ b[j]
                k = i + j
                if k >= 4:
                    out[k - 4] -= prod_ij
                else:
                    out[k] += prod_ij
        return CycMatrix(out, self.denom_exp + other.denom_exp)

    def __pow__(self, k):
        out = CycMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate_transpose(self):
        c0, c1, c2, c3 = self.comps.transpose(0, 2, 1)
        return CycMatrix(np.stack([c0, -c3, -c2, -c1]), self.denom_exp)

    def inverse(self):
        """Inverse via unitarity; verified, so misuse raises rather than
        silently returning garbage."""
        cand = self.conjugate_transpose()
        if (self * cand) != CycMatrix.identity(self.n):
            raise ValueError("matrix is not unitary; no inverse available")
        return cand

    def columns(self, lo, hi):  # columns lo..hi-1, made canonical on their own
        return CycMatrix(self.comps[:, :, lo:hi], self.denom_exp)

    @classmethod
    def hstack(cls, blocks):  # side by side over the largest 2^e; canonical if a block with it is
        e = max(b.denom_exp for b in blocks)
        return cls._of(np.concatenate([b.comps << e - b.denom_exp if b.denom_exp < e else b.comps
                                       for b in blocks], axis=2),
                       e, max(b.max_abs << e - b.denom_exp for b in blocks))

    def entry(self, i, j):
        return CycEight([int(self.comps[k][i][j]) for k in range(4)],
                        self.denom_exp)

    def column(self, j):
        return [self.entry(i, j) for i in range(self.n)]

    def distinct_entries(self):
        """(names, index): str of each distinct entry, built once, and the
        n x m intp array of positions in names, so entry (i, j) renders as
        names[index[i, j]].  An entry's code is its layers in mixed radix,
        each varying layer over its own min..max range; codes in a range of
        at most max(n m, 3^4) are counted (np.bincount), with no sort.  A word's
        always are: one rho(g)'s nonzero entries share one absolute value, so
        each layer lies in -1..1.  Wider ranges go through np.unique on layer rows."""
        n, m = self.comps.shape[1:]
        flat = self.comps.reshape(4, n * m)
        lows, highs = flat.min(axis=1).tolist(), flat.max(axis=1).tolist()
        radix = [1]  # radix[k]: layer k's place value, the product of the ranges before it
        for lo, hi in zip(lows, highs):
            radix.append(radix[-1] * (hi - lo + 1))
        if radix[-1] > max(n * m, 3 ** 4):
            rows, index = np.unique(flat.T, axis=0, return_inverse=True)
            coeffs = rows.tolist()
        else:
            varying = [k for k in range(4) if highs[k] > lows[k]]
            code = None if varying else np.zeros(n * m, np.intp)
            for k in varying:
                term = np.subtract(flat[k], lows[k], dtype=np.intp)
                if radix[k] > 1:
                    term *= radix[k]
                code = term if code is None else np.add(code, term, out=code)
            counts = np.bincount(code, minlength=radix[-1])
            codes = np.flatnonzero(counts)
            counts[codes] = np.arange(len(codes))  # now code -> position in codes
            index = counts.take(code)
            coeffs = zip(*[(codes // radix[k] % (highs[k] - lows[k] + 1) + lows[k]).tolist()
                           if k in varying else [lows[k]] * len(codes) for k in range(4)])
        return [str(CycEight(e, self.denom_exp)) for e in coeffs], index.reshape(n, m)

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return (self.denom_exp == other.denom_exp
                and np.array_equal(self.comps, other.comps))

    def __repr__(self):
        return f"CycMatrix(n={self.n}, denom_exp={self.denom_exp})"


# ---------------------------------------------------------------------------
# the matrix-free action

@cache
def _hadamard(s):
    """The s x s Walsh-Hadamard table: (-1)^popcount(x & y) at (y, x).
    Built on first use, so a process that runs no S step never builds it."""
    return np.array([[1 - 2 * ((x & y).bit_count() & 1) for x in range(s)] for y in range(s)],
                    dtype=np.int64)


def _walsh_hadamard(x):
    """In place over axis 1 of a (k, n, m) stack of contiguous layers, such as
    a strided slice: row y of each layer becomes sum_x (-1)^popcount(x & y) row x.

    Up to WHT_PRODUCT_MAX entries, H_n = H_8 (x) ... (x) H_(n/8^j): each
    factor is one matmul of its table on the bits it owns, from x into one
    temporary and back (numpy call overhead, not arithmetic, is the cost of
    a small stack).  Larger stacks run the a radix-2 butterflies in x, with
    no temporary.  Either way every entry met on the way is a signed sum of
    at most n entries of x, so it stays within n max|x|."""
    k, n, m = x.shape
    if x.size <= WHT_PRODUCT_MAX:
        a = n.bit_length() - 1
        src, dst = x, np.empty(x.shape, x.dtype)
        h = n  # each factor acts on the row-index bits from h to h s
        for s in [8] * (a // 3) + [1 << a % 3] * (a % 3 > 0):
            h //= s
            # splits within a layer only: views, as the layers are contiguous
            shape = (k, n // (s * h), s, h * m)
            np.matmul(_hadamard(s), src.reshape(shape), out=dst.reshape(shape))
            src, dst = dst, src
        if src is not x:
            np.copyto(x, src)
        return
    h = 1
    while h < n:
        view = np.reshape(x, (k, n // (2 * h), 2, h, m), copy=False)
        lo, hi = view[:, :, 0], view[:, :, 1]
        # (lo, hi) -> (lo + hi, lo - hi) in place; |2 hi| <= n max|x|, so no int64 wrap
        lo += hi
        hi *= -2
        hi += lo
        h *= 2


def weil_scalar(q, sigma=None):
    """i^(-sigma/2) 2^(-a/2), the scalar of rho(S), with sigma = sig(q) mod 8
    read off q by Milgram's Gauss sum unless the caller has it; rho(S)^-1
    and the coset formula use its conjugate.

    Its Gauss sum is also the guard that rho(S)^-1 = rho(S)*.  The entry
    (S S*)[x, x'] = 2^-a sum_y (-1)^(2b(x + x', y)) is delta_{x, x'} exactly
    when 2b has no radical R.  On R, q is a sign character, so the Gauss sum
    of a degenerate form vanishes if that character is nontrivial and has
    magnitude sqrt(|D| |R|), not sqrt|D|, if it is trivial: either way
    milgram_signature raises DegenerateForm.
    """
    sigma = milgram_signature(q) if sigma is None else sigma
    # i^(-sigma/2) = zeta^(-sigma), times sqrt2 = z - z^3 for odd a; zeta^4 = -1
    coeffs = [0] * 4
    for e, c in [(-sigma, 1)] if q.a % 2 == 0 else [(1 - sigma, 1), (3 - sigma, -1)]:
        coeffs[e % 4] = c if e % 8 < 4 else -c
    return CycEight(coeffs, (q.a + 1) // 2)


@cache
def _rotations():
    """(src, signs), 4 x 8: layer t of zeta^k X is signs[t, k] X[src[t, k]]; zeta^4 = -1."""
    d = np.arange(4)[:, None] - np.arange(8)
    return d % 4, 1 - 2 * (d // 4 % 2)


class WeilAction:
    """rho_L of words in S, T and their inverses, applied to CycMatrix
    blocks of columns indexed by the elements of D_L.

    rho(T) e_x = zeta^(2 qh(x)) e_x with qh = 2q(x) mod 4, and
    (rho(S) X)[x] = scalar * sum_y (-1)^(2b(x, y)) X[y] = scalar * H(X)[Bx],
    with H the Walsh-Hadamard transform over the bits of the element ints
    and B the F2 matrix of 2b, invertible once weil_scalar accepts the form;
    so H(X)[Bx] = H(X')[x] with X'[w] = X[B^-1 w], gathered straight into
    the result.  rho(S)^-1 applies the conjugate scalar: S is symmetric, and
    unitary whenever weil_scalar accepts the form.  Only S reads the scalar,
    so words in T alone act for any form.  Each generator costs O(a 2^a) per
    column; a block of m columns costs O(m a 2^a), and only the full
    identity block is capped at a <= MAX_DENSE_A.
    The tables the generators read are built once per action.
    """

    def __init__(self, q):
        self.q = q
        self.n = 1 << q.a

    @cached_property
    def sigma(self):  # sig(q) mod 8: one Gauss sum per action
        return milgram_signature(self.q)

    @cached_property
    def scalar(self):
        return weil_scalar(self.q, self.sigma)

    @cached_property
    def _qh(self):
        return np.array(self.q.qh_table(), dtype=np.int64)

    @cached_property
    def _bx(self):
        """Bx for every element x, indexed by x."""
        bx = [0]
        for row in reversed(self.q.rows):  # low bits first: index == int
            bx += [x ^ row for x in bx]
        return np.array(bx, dtype=np.int64)

    @cached_property
    def _t_tables(self):
        """sign -> (rows, signs): layer t of row x of rho(T^sign) X is signs[t, x] times
        row rows[t, x] of X's (4 n, m) layers; _rotations at k = 2 sign qh(x) mod 8."""
        src, signs = _rotations()  # at[i, t, x] = 8 t + k(x) for sign (1, -1)[i]
        at = (np.multiply.outer((2, -2), self._qh) % 8)[:, None] + np.arange(0, 32, 8)[:, None]
        rows, signs = src.take(at) * self.n + np.arange(self.n), signs.take(at)[..., None]
        return {1: (rows[0], signs[0]), -1: (rows[1], signs[1])}

    @cached_property
    def _s_tables(self):
        """conj -> (k, r): the scalar of rho(S) is zeta^k (1 + r zeta^2) over
        2^e, read from its coefficients c, with r = 0 for even a and r = +-1
        for odd a, where sqrt2 = z (1 - z^2); its conjugate, the scalar of
        rho(S)^-1, is zeta^-k (1 - r zeta^2)."""
        c = self.scalar.coeffs
        ks = [k for k in range(4) if c[k]]
        if [abs(c[k]) for k in ks] not in ([1], [1, 1]) or ks[-1] - ks[0] not in (0, 2):
            raise ValueError(f"{self.scalar!r} is not a Weil scalar")
        k, r = ks[0] + 4 * (c[ks[0]] < 0), c[ks[0]] * c[ks[-1]] * (len(ks) - 1)
        return {False: (k, r), True: (-k % 8, -r)}

    @cached_property
    def _bx_inverse(self):
        return np.argsort(self._bx)  # B^-1 w at w: Bx is a permutation once S has a scalar

    def _t(self, block, sign):
        """Row x times zeta^(2 sign qh(x)): a signed layer rotation, so comps stay canonical."""
        rows, signs = self._t_tables[sign]
        comps = block.comps.reshape(4 * self.n, -1).take(rows, axis=0)
        comps *= signs
        return CycMatrix._of(comps, block.denom_exp, block.max_abs)

    def _t_columns(self, block, sign, lo):
        """block rho(T^sign) for the columns lo.. of a full block: column j
        times zeta^(2 sign qh(lo + j)), an even power, so layer t reads
        layer t or t + 2 (mod 4) with a sign, as the T tables say at lo + j."""
        rows, signs = self._t_tables[sign]
        shape = block.comps.shape
        hi = lo + shape[2]
        pairs = block.comps.reshape(2, 2, *shape[1:])  # layer t = 2 h + p: t + 2 flips h
        # where layer 0 reads layer 0 (rows[0] < n), every layer reads its own
        comps = np.where(rows[0, lo:hi] < self.n, pairs, pairs[::-1]).reshape(shape)
        comps *= signs[:, lo:hi].transpose(0, 2, 1)
        return CycMatrix._of(comps, block.denom_exp, block.max_abs)

    def _s(self, block, conj):
        k, r = self._s_tables[conj]
        comps = block.comps
        nonzero = [j for j, nz in enumerate(comps.reshape(4, -1).any(axis=1).tolist()) if nz]
        # |entries of scalar H(X)| <= n max_abs (1 + |r|); past int64, use Python ints
        if self.n * block.max_abs * (1 + abs(r)) >> 63:
            comps = comps.astype(object)
        out = np.zeros(comps.shape, comps.dtype)
        # zeta^k X at the rows B^-1 w: layer j lands on (j + k) mod 4, negated where
        # (j + k) mod 8 >= 4 as zeta^4 = -1 ("clip": take fills out unbuffered)
        ts = [(j + k) % 4 for j in nonzero]
        for j, t in zip(nonzero, ts):
            np.take(comps[j], self._bx_inverse, axis=0, out=out[t], mode="clip")
            if (j + k) % 8 >= 4:
                np.negative(out[t], out=out[t])
        lo, hi = min(ts, default=0), max(ts, default=0)
        _walsh_hadamard(out[lo:hi + 1:hi - lo if len(ts) == 2 else 1])
        # times 1 + r zeta^2: (u, v) -> (u - r v, v + r u) on the layers t, t + 2
        for u, v in [(out[t], out[t + 2]) for t in (0, 1) if r and {t, t + 2} & set(ts)]:
            (np.subtract if r > 0 else np.add)(u, v, out=u)
            v *= 2
            (np.add if r > 0 else np.subtract)(v, u, out=v)
        out = np.asarray(out, dtype=np.int64)  # an object result past int64 raises OverflowError
        return CycMatrix._of(*_canonical(out, block.denom_exp + self.scalar.denom_exp, True))

    @cached_property
    def _coset_rhs(self):
        """(S T^l)^-1 e_0 in column l = 0..3: conj(scalar) zeta^(-2 l k) on class k."""
        scalar = self.scalar.conjugate()
        # layer t of row x, column l: entry t of zeta_rows()[-2 l qh(x) mod 8]
        k = np.multiply.outer(self._qh, (0, 6, 4, 2)) % 8
        comps = np.array(scalar.zeta_rows()).T.take(k, axis=1)
        # canonical, as row 0 of column 0 is conj(scalar) itself
        return CycMatrix._of(comps, scalar.denom_exp, max(map(abs, scalar.coeffs)))

    def identity(self, lo=0, hi=None):
        """Columns lo..hi-1 (all by default) of the identity block, a <= MAX_DENSE_A."""
        if self.q.a > MAX_DENSE_A:
            raise BoundExceeded(
                f"a = {self.q.a} exceeds the dense Weil bound a <= {MAX_DENSE_A}")
        return CycMatrix.identity(self.n, lo, hi)

    def apply(self, word, block):
        """rho(word) block, the word's tokens applied right to left."""
        for tok in reversed(_check_word(word)):
            if tok == "T":
                block = self._t(block, 1)
            elif tok == "T^-1":
                block = self._t(block, -1)
            else:
                block = self._s(block, tok == "S^-1")
        return block

    def matrix(self, word):
        """rho(word) as a full matrix."""
        return self.apply(word, self.identity())


def _check_word(word):
    word = list(word)
    if not word:
        raise InvalidInput("empty word")
    for tok in word:
        if tok not in _TOKENS:
            raise InvalidInput(f"unknown token {tok!r}")
    return word


def weil_T(q):
    """rho(T) e_gamma = e^(pi i gamma^2) e_gamma."""
    return WeilAction(q).matrix(["T"])


# id(q) -> a WeilAction that some caller still holds.  The entry dies
# with the action, and the action holds q, so the id stays q's.  It lets
# relation_checks call weil_S(q), which perfbench counts as weil.s_builds, on
# its own action: one built apart would add 16-20 us to a `weil check` at
# a <= 5, about 3% of the job.
_LIVE_ACTIONS = weakref.WeakValueDictionary()


def weil_action(q):
    """The live WeilAction of q, so that a caller holding it and the calls
    inside one relation_checks share its tables; else a new one."""
    act = _LIVE_ACTIONS.get(id(q))
    if act is None:
        act = _LIVE_ACTIONS[id(q)] = WeilAction(q)
    return act


def weil_S(q):
    """rho(S) e_gamma = i^(-sigma/2) |D|^(-1/2) sum_delta e^(-2 pi i <gamma,delta>) e_delta."""
    return weil_action(q).matrix(["S"])


def weil_word(q, word):
    """The matrix of a word over S, T and their inverses, a <= MAX_DENSE_A.

    word: iterable of tokens "S", "T", "S^-1", "T^-1".
    """
    return WeilAction(q).matrix(word)


def weil_V(q):
    """V = S^-1 T^2 S."""
    return weil_word(q, ["S^-1", "T", "T", "S"])


def vk_vectors(q):
    """Indicator vectors of the four q-value classes, k/2 for k = 0..3."""
    table = np.array(q.qh_table(), dtype=np.int64)
    return [(table == k).astype(np.int64) for k in range(4)]


def one_element(q):
    """The unique gamma with <1_L, delta> = delta^2 mod Z for all delta."""
    gamma, rank = q.characteristic_solve()
    if gamma is None:
        raise DegenerateForm("no characteristic element; form data inconsistent")
    if rank < q.a:
        raise DegenerateForm("characteristic element is not unique")
    return _decode(gamma, q.a)


def coset_formula_check(q, l):
    """rho((S T^l)^-1) e_0 = i^(sigma/2) 2^(-a/2) sum_k i^(-l k) v_k, exactly:
    the word T^-l S^-1 on e_0 alone, the oracle of relation_checks' chain."""
    act = WeilAction(q)
    e0 = CycMatrix.identity(act.n, 0, 1)
    return act.apply(["T^-1"] * l + ["S^-1"], e0) == act._coset_rhs.columns(l, l + 1)


def _s_eighth_is_identity(act, s2, lo=0):
    """S^8 X = X for the columns X = I[:, lo:lo + m], from s2 = S^2 X.  S is
    Z[zeta_8]-linear, so where s2 = c X, S^8 X = c^4 X exactly, whatever the
    other columns of I give; c^4 = 1 iff c is +-1 or +-zeta^2, one integer
    +-1 in layer 0 or 2 over 2^0.  Else the literal S^6 s2 = X."""
    m = s2.comps.shape[2]
    diag = np.diagonal(s2.comps[:, lo:lo + m], axis1=1, axis2=2)
    if (diag == diag[:, :1]).all() and np.count_nonzero(s2.comps) == np.count_nonzero(diag):
        c = diag[:, 0].tolist()
        return s2.denom_exp == 0 and abs(c[0]) + abs(c[2]) == 1 and c[1] == c[3] == 0
    return act.apply(["S"] * 6, s2) == act.identity(lo, lo + m)


def relation_checks(q, one=None):
    """The four checks of `k3lat weil check`, in display order: (ST)^3 = S^2
    and S^8 = I on the identity block, V^-1 e_0 = e_{1_L}, and the coset
    formula for l = 0..3; one is 1_L, one_element(q) if not given.
    (ST)^3 = S^2 is checked as S T S = T^-1 S T^-1: times S T on the left
    and T on the right, that gives (ST)^3 = S^2 for any S, so True is a
    proof; the converse holds as S is invertible (weil_scalar).  S^8 = I: as
    -x = x in D_L, S^2 = c I, and S^8 = I iff c^4 = 1; a non-scalar S^2 gets
    the literal S^6 S^2 = I.

    The identity block runs in chunks X = I[:, lo:hi] of CHECK_COLUMNS
    columns, three S steps each: S X (weil_S(q) if X = I), S S X, which
    decides S^8 X = X alone, and S T S X against T^-1 (S X) T^-1, whose
    right T^-1 multiplies column j by the T^-1 entry at lo + j.  One S^-1 step on
    [e_0 | T^-2 S e_0], S e_0 from the first chunk, gives S^-1 e_0 and
    V^-1 e_0: four S steps up to a = 7, where the words make six.  A step
    transforms each column on its own, so these columns and their T^-1
    images are exactly the words' results on e_0 alone (T^-l S^-1 e_0 after
    l steps); compared canonical, each verdict is that of its word."""
    act = weil_action(q)  # weil_S shares it
    s, t, n = act._s, act._t, act.n
    st_cubed, s_eighth = True, True
    for lo in range(0, n, CHECK_COLUMNS):
        hi = min(n, lo + CHECK_COLUMNS)
        s1 = weil_S(q) if hi - lo == n else s(act.identity(lo, hi), False)  # S I[:, lo:hi]
        if lo == 0:
            s_e0 = CycMatrix._of(s1.comps[:, :, :1].copy(), s1.denom_exp, s1.max_abs)
        if s_eighth:
            s_eighth = _s_eighth_is_identity(act, s(s1, False), lo)
        rhs = t(act._t_columns(s1, -1, lo), -1)
        x = t(s1, 1)
        del s1  # s_e0 is a copy, so no view keeps S I alive
        x = s(x, False)  # S T S; rebinding frees T S before the compare
        st_cubed = x == rhs and st_cubed
        del x, rhs  # the next chunk starts with no block alive
    pair = s(CycMatrix.hstack([CycMatrix.identity(n, 0, 1), t(t(s_e0, -1), -1)]), True)
    col = pair.columns(0, 1)  # S^-1 e_0, then T^-l S^-1 e_0 by the action's own T^-1 steps
    cosets = [col] + [col := t(col, -1) for _ in range(3)]
    j = _encode(one_element(q) if one is None else one)  # e_j = e_{1_L}
    return {"st_cubed_is_s_squared": st_cubed, "s_eighth_is_identity": s_eighth,
            "v_inverse_e0_is_e_one": pair.columns(1, 2) == CycMatrix.identity(n, j, j + 1),
            "coset_formula": CycMatrix.hstack(cosets) == act._coset_rhs}


# ---------------------------------------------------------------------------
# the six-coset lift

class VectorValuedForm:
    def __init__(self, form, components, weight, psi=None):
        self.form = form
        self.components = components  # element tuple -> FracSeries
        self.weight = weight
        self.psi = psi  # the input series of a lift, if it is one

    def __repr__(self):
        return f"VectorValuedForm(weight={self.weight}, a={self.form.a})"


def psi_m_slash_V(m, prec):
    """psi_m|_V from the transformed factors:
    eta_{1^-8 2^8 4^-8}|_V = -16 eta(2 tau)^-16 eta(4 tau)^8 and
    theta|_V = theta_shifted.  Starts at q^(m/4)."""
    return _psi_combination(m, prec, [(2, -16), (4, 8)], -16, "shifted")


def lift_B(q, r_minus, prec):
    """Components of the vector-valued lift B[psi_m], m = 8 + sigma, for the
    discriminant form q of L_- (so a_- = q.a): psi_m on e_0,
    2^((r-a)/2) h_m^(k) on the v_k classes, psi_m|_V on e_{1_L}.
    Weight sigma/2.  The form keeps psi_m, at precision 4 prec + 4, as psi.
    """
    if r_minus >= 12:
        raise UnsupportedInvariant("the lift construction assumes r_- < 12")
    if (4 - r_minus - milgram_signature(q)) % 8:
        raise UnsupportedInvariant("sigma must equal 4 - r_- mod 8")
    m = 8 + 4 - r_minus
    if not (1 <= m <= 7):
        raise UnsupportedInvariant(f"m = {m} outside the supported range")
    # the Gauss sum has norm 2^a in Z[i], so sigma = a mod 2; with sigma = 4 - r_-
    # mod 8 that makes r_- = a mod 2, and the scale below an integer power of 2
    scale = 2 ** ((r_minus - q.a) // 2)
    big = psi_m(m, 4 * int(Fraction(prec)) + 4)
    psi = big.truncate(Fraction(prec))
    hs = [split_congruence(big, i).truncate(Fraction(prec)) for i in range(4)]
    psiV = psi_m_slash_V(m, prec)
    if psiV.leading_exponent() is not None and psiV.leading_exponent() < Fraction(m, 4):
        raise InsufficientPrecision("psi_m|_V fails its vanishing order")
    # one series per class k, shared by its elements; FracSeries is immutable
    classes = [h * scale for h in hs]
    components = dict(zip(q.elements(), (classes[k] for k in q.qh_table())))
    zero = tuple([0] * q.a)
    components[zero] = components[zero] + psi
    one = one_element(q)
    components[one] = components[one] + psiV
    weight = Fraction(4 - r_minus, 2)
    return VectorValuedForm(q, components, weight, big)


def principal_part(F):
    """All (element, exponent, coefficient) with exponent <= 0; shared series' terms made once."""
    series = {id(f): f for f in F.components.values()}
    # lead + i*step <= 0 (in 24ths) for the first -lead // step + 1 terms
    terms = {k: [(Fraction(f.lead + i * f.step, N), Fraction(c, f.den))
                 for i, c in enumerate(f.coeffs[:max(0, -f.lead // f.step + 1)]) if c]
             for k, f in series.items()}
    return [(x, *t) for x, f in sorted(F.components.items()) for t in terms[id(f)]]
