"""The Weil representation of Mp2(Z) attached to a 2-elementary form, with
exact matrices over the 8th-cyclotomic ring, the v_k indicator vectors, the
characteristic element 1_L, the six-coset lift components, and principal
parts.

Matrices are stored as four integer numpy layers (the zeta-components) over
a common power-of-two denominator; products reduce to integer matmuls.
"""

from fractions import Fraction

import numpy as np

from .exactalg import CycEight
from .errors import (
    SignatureMismatch,
    DegenerateForm,
    UnsupportedInvariant,
    InsufficientPrecision,
    InvalidInput,
)
from .finiteform import _decode, milgram_signature
from .qseries import (
    FracSeries,
    eta_quotient,
    theta_series,
    psi_m,
    split_congruence,
)


class CycMatrix:
    """A square matrix over Z[zeta_8, 1/2]: comps[k] holds the zeta^k layer,
    all over 2^denom_exp.  Canonical: denom_exp minimal."""

    def __init__(self, comps, denom_exp):
        comps = np.asarray(comps, dtype=np.int64)
        while denom_exp > 0 and not (comps & 1).any():
            comps = comps >> 1
            denom_exp -= 1
        self.comps = comps
        self.denom_exp = denom_exp
        if np.abs(comps).max(initial=0) > 1 << 45:
            raise OverflowError("cyclotomic matrix entries grew too large")

    @property
    def n(self):
        return self.comps.shape[1]

    @classmethod
    def identity(cls, n):
        comps = np.zeros((4, n, n), dtype=np.int64)
        comps[0] = np.eye(n, dtype=np.int64)
        return cls(comps, 0)

    def __mul__(self, other):
        n = self.n
        out = np.zeros((4, n, n), dtype=np.int64)
        for i in range(4):
            if not self.comps[i].any():
                continue
            for j in range(4):
                if not other.comps[j].any():
                    continue
                prod_ij = self.comps[i] @ other.comps[j]
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
        c0, c1, c2, c3 = self.comps
        comps = np.stack([c0.T, -c3.T, -c2.T, -c1.T])
        return CycMatrix(comps, self.denom_exp)

    def inverse(self):
        """Inverse via unitarity; verified, so misuse raises rather than
        silently returning garbage."""
        cand = self.conjugate_transpose()
        if (self * cand) != CycMatrix.identity(self.n):
            raise ValueError("matrix is not unitary; no inverse available")
        return cand

    def entry(self, i, j):
        return CycEight([int(self.comps[k][i][j]) for k in range(4)],
                        self.denom_exp)

    def column(self, j):
        return [self.entry(i, j) for i in range(self.n)]

    def __eq__(self, other):
        return (self.denom_exp == other.denom_exp
                and np.array_equal(self.comps, other.comps))

    def __repr__(self):
        return f"CycMatrix(n={self.n}, denom_exp={self.denom_exp})"


def weil_T(q):
    """rho(T) e_gamma = e^(pi i gamma^2) e_gamma."""
    k = 2 * np.array(q.qh_table(), dtype=np.int64)  # e^(pi i q) = zeta^(4q)
    n = len(k)
    idx = np.arange(n)
    comps = np.zeros((4, n, n), dtype=np.int64)
    comps[k % 4, idx, idx] = np.where(k < 4, 1, -1)
    return CycMatrix(comps, 0)


def weil_S(q, sigma):
    """rho(S) e_gamma = i^(-sigma/2) |D|^(-1/2) sum_delta e^(-2 pi i <gamma,delta>) e_delta."""
    if sigma % 8 != milgram_signature(q):
        raise SignatureMismatch(
            f"sigma = {sigma} mod 8 does not match the Gauss sum")
    a = q.a
    # i^(-sigma/2) = zeta^(-sigma); 1/sqrt(2^a) needs a sqrt2 numerator for odd a
    scalar = CycEight.zeta_power(-sigma)
    denom = a // 2
    if a % 2:
        scalar = scalar * CycEight.sqrt2()
        denom = (a + 1) // 2
    denom += scalar.denom_exp
    # row x of E holds the coordinates of element x; (E B E^T)[x, y] = 2b(x, y)
    bits = np.arange(a - 1, -1, -1)
    E = (np.arange(1 << a)[:, None] >> bits) & 1
    B = (np.array(q.rows, dtype=np.int64)[:, None] >> bits) & 1
    signs = 1 - 2 * ((E @ B @ E.T) & 1)
    base = np.array(scalar.coeffs, dtype=np.int64)
    return CycMatrix(base[:, None, None] * signs, denom)


def weil_word(q, sigma, word):
    """Product of generator matrices for a word over S, T and their inverses.

    word: iterable of tokens "S", "T", "S^-1", "T^-1".
    """
    word = list(word)
    if not word:
        raise InvalidInput("empty word")
    for tok in word:
        if tok not in ("S", "T", "S^-1", "T^-1"):
            raise InvalidInput(f"unknown token {tok!r}")
    tok_map = {}
    if "S" in word or "S^-1" in word:
        tok_map["S"] = weil_S(q, sigma)
    if "S^-1" in word:
        tok_map["S^-1"] = tok_map["S"].inverse()
    if "T" in word or "T^-1" in word:
        tok_map["T"] = weil_T(q)
        tok_map["T^-1"] = tok_map["T"].conjugate_transpose()
    out = tok_map[word[0]]
    for tok in word[1:]:
        out = out * tok_map[tok]
    return out


def weil_V(q, sigma):
    """V = S^-1 T^2 S."""
    return weil_word(q, sigma, ["S^-1", "T", "T", "S"])


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


def coset_formula_check(q, sigma, l):
    """rho((S T^l)^-1) e_0 = i^(sigma/2) 2^(-a/2) sum_k i^(-l k) v_k, exactly."""
    mat = weil_word(q, sigma, ["S"] + ["T"] * l) if l else weil_S(q, sigma)
    lhs = mat.inverse().column(0)
    a = q.a
    scalar = CycEight.zeta_power(sigma)
    denom = a // 2
    if a % 2:
        scalar = scalar * CycEight.sqrt2()
        denom = (a + 1) // 2
    scalar = scalar * CycEight.half_power(denom)
    rhs = [scalar * CycEight.zeta_power(-2 * l * k) for k in range(4)]
    return all(lhs[x] == rhs[k] for x, k in enumerate(q.qh_table()))


# ---------------------------------------------------------------------------
# the six-coset lift

class VectorValuedForm:
    def __init__(self, form, components, weight):
        self.form = form
        self.components = components  # element tuple -> FracSeries
        self.weight = weight

    def component(self, gamma):
        return self.components[tuple(gamma)]

    def __repr__(self):
        return f"VectorValuedForm(weight={self.weight}, a={self.form.a})"


def psi_m_slash_V(m, prec):
    """psi_m|_V from the transformed factors:
    eta_{1^-8 2^8 4^-8}|_V = -16 eta(2 tau)^-16 eta(4 tau)^8 and
    theta|_V = theta_shifted.  Starts at q^(m/4)."""
    work = Fraction(prec) + 2
    etav = eta_quotient([(2, -16), (4, 8)], work) * (-16)
    theta = theta_series("shifted", work)
    out = etav * etav * theta ** (8 + m) - 2 * (m + 16) * etav * theta ** m
    return out.truncate(min(out.prec, Fraction(prec)))


def lift_B(q, sigma, r_minus, a_minus, prec):
    """Components of the vector-valued lift B[psi_m], m = 8 + sigma:
    psi_m on e_0, 2^((r-a)/2) h_m^(k) on the v_k classes, psi_m|_V on e_{1_L}.
    Weight sigma/2.
    """
    if r_minus >= 12:
        raise UnsupportedInvariant("the lift construction assumes r_- < 12")
    if sigma % 8 != milgram_signature(q):
        raise SignatureMismatch("sigma does not match the form")
    if (4 - r_minus - sigma) % 8:
        raise UnsupportedInvariant("sigma must equal 4 - r_- mod 8")
    m = 8 + 4 - r_minus
    if not (1 <= m <= 7):
        raise UnsupportedInvariant(f"m = {m} outside the supported range")
    if (r_minus - a_minus) % 2:
        raise UnsupportedInvariant("r_- and a_- must have equal parity")
    scale = 2 ** ((r_minus - a_minus) // 2)
    psi = psi_m(m, prec)
    hs = [split_congruence(psi_m(m, 4 * int(Fraction(prec)) + 4), i)
          .truncate(Fraction(prec)) for i in range(4)]
    psiV = psi_m_slash_V(m, prec)
    if psiV.leading_exponent() is not None and psiV.leading_exponent() < Fraction(m, 4):
        raise InsufficientPrecision("psi_m|_V fails its vanishing order")
    one = one_element(q)
    components = {}
    for x, k in zip(q.elements(), q.qh_table()):
        comp = hs[k] * scale
        if not any(x):
            comp = comp + psi
        if x == one:
            comp = comp + psiV
        components[x] = comp
    weight = Fraction(4 - r_minus, 2)
    return VectorValuedForm(q, components, weight)


def principal_part(F):
    """All (element, exponent, coefficient) with exponent <= 0."""
    out = []
    for x in sorted(F.components):
        for e, c in F.components[x].terms():
            if e <= 0:
                out.append((x, e, c))
    return out
