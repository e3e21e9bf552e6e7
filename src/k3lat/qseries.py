"""Truncated formal q-series with rational coefficients and exponents in
(1/24)Z: Dedekind eta quotients, theta series, the psi_m combinations, the
mod-4 congruence splits, and numeric evaluation on the upper half plane.

A series is stored densely on an arithmetic grid of exponents.  The leading
exponent and the step are integers in units of 1/24, the coefficients are a
list of Python-int numerators over one common positive denominator, so the
coefficient of q^((lead + i*step)/24) is coeffs[i]/den.  Precision is an
exponent cutoff, also in 24ths: coefficients are known strictly below it, and
nothing at or past it is stored.

Products pack each operand into one big integer and multiply once (Kronecker
substitution, with the signed packing of Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", 2009); short operands
use the schoolbook product.  Every power f^k, k < 0 too, comes from Miller's
recurrence, with no product: eta(s*tau) (Euler's pentagonal series) and theta
are sparse, and each coefficient costs one pass over f's nonzero terms.
"""

import cmath
from fractions import Fraction
from math import gcd

from .errors import (NonIntegerExponents, InsufficientPrecision, InvalidInput,
                     BoundExceeded)

N = 24  # universal exponent denominator

DEFAULT_PREC = 32

# The largest precision eta_quotient, theta_series and psi_m are asked for;
# psi_m works at prec + 2.  psi_m(7, 1998) takes 0.8-1.1 s (2-vCPU Xeon VM),
# mostly in products, and the time grows as about prec^2.3.  lift_B at precision
# p asks for psi_m at 4p + 4 (244 at p = 60, the largest the tests use), so it
# stops at p = 498.
MAX_PREC = 2000

# The largest sum of |m| over the factors eta(s*tau)^m of an eta quotient, and
# of psi_m's theta exponent 8 + m (m <= 40).  Coefficients grow with |m|: at
# MAX_PREC, 1^-48 takes 0.03 s and psi_m(40, 1998) 1.1-1.5 s (2-vCPU Xeon VM).
# The quotients the package uses have sum |m| <= 24.
MAX_ETA_EXPONENTS = 48

# The largest pole order -sum s*m/24 of an eta quotient; every factor is worked
# that far past the asked precision (1^-1,100000^-23, order 95,833.4, took 10.8 s).
# At the bound, 1^-47,529^-1 at MAX_PREC takes about 0.07 s.
MAX_ETA_POLE = 24

# operands at most this long are multiplied term by term; past it, packing
# into big integers costs less than the Python-level double loop
SCHOOLBOOK_MAX = 20


def _to_units(e):
    u = Fraction(e) * N
    if u.denominator != 1:
        raise ValueError(f"exponent {e} is not a multiple of 1/{N}")
    return int(u)


def _check_prec(prec, extra=0):
    """Raise BoundExceeded unless a series asked for at prec, computed at
    prec + extra, stays within MAX_PREC."""
    if prec + extra > MAX_PREC:
        raise BoundExceeded(
            f"precision {prec} is past the q-series bound {MAX_PREC - extra}")


def _span(lead, step, prec_units):
    """Number of grid points lead + k*step (k >= 0) below prec_units."""
    return max(0, (prec_units - lead + step - 1) // step)


def _number(x):
    """A scalar operand of a series as a Fraction; a string is a TypeError,
    though Fraction would parse it."""
    if isinstance(x, str):
        raise TypeError(f"a series does not combine with the string {x!r}")
    return Fraction(x)


class FracSeries:
    """sum_i coeffs[i]/den * q^((lead + i*step)/24), known below
    q^(prec_units/24).

    lead, step > 0 and prec_units are ints in 1/24 units; coeffs is a list of
    ints with no zero at either end, so lead is the leading exponent (the zero
    series has coeffs == [] and lead == 0); den > 0 is in lowest terms with
    the numerators.  Coefficient lists are never changed after construction.
    """

    __slots__ = ("lead", "step", "coeffs", "den", "prec_units")

    def __init__(self, lead, step, coeffs, prec_units, den=1):
        n = min(len(coeffs), _span(lead, step, prec_units))
        while n and not coeffs[n - 1]:
            n -= 1
        i = 0
        while i < n and not coeffs[i]:
            i += 1
        if i or n < len(coeffs):
            coeffs = coeffs[i:n]
        if not coeffs:
            lead, den = 0, 1
        elif den != 1:
            g = gcd(den, *coeffs)
            if g > 1:
                den //= g
                coeffs = [c // g for c in coeffs]
        self.lead = lead + i * step
        self.step = step
        self.coeffs = coeffs
        self.den = den
        self.prec_units = prec_units

    @classmethod
    def zero(cls, prec):
        return cls(0, N, [], _to_units(prec))

    @classmethod
    def one(cls, prec):
        return cls(0, N, [1], _to_units(prec))

    @classmethod
    def monomial(cls, exponent, prec, coeff=1):
        c = Fraction(coeff)
        return cls(_to_units(exponent), N, [c.numerator], _to_units(prec),
                   c.denominator)

    @property
    def prec(self):
        return Fraction(self.prec_units, N)

    def coefficient(self, exponent):
        e = _to_units(exponent)
        if e >= self.prec_units:
            raise InsufficientPrecision(
                f"coefficient of q^{exponent} is beyond the precision {self.prec}")
        i, r = divmod(e - self.lead, self.step)
        if r or not 0 <= i < len(self.coeffs):
            return Fraction(0)
        return Fraction(self.coeffs[i], self.den)

    def leading_exponent(self):
        if not self.coeffs:
            return None
        return Fraction(self.lead, N)

    def terms(self):
        """(exponent, coefficient) pairs of the nonzero terms, in increasing
        exponent order."""
        lead, step, den = self.lead, self.step, self.den
        return [(Fraction(lead + i * step, N), Fraction(c, den))
                for i, c in enumerate(self.coeffs) if c]

    def is_zero(self):
        return not self.coeffs

    def _spread(self, lead, step, den, length):
        """A new list of numerators over den on the grid lead + k*step,
        k < length, up to this series' last term; the grid must contain
        this series' grid and den must be a multiple of self.den."""
        r = self.step // step
        off = (self.lead - lead) // step
        n = min(len(self.coeffs), _span(off, r, length))
        if n <= 0:
            return []
        src = self.coeffs[:n]
        if den != self.den:
            src = [c * (den // self.den) for c in src]
        if r == 1 and off == 0:
            return src
        out = [0] * (off + r * (n - 1) + 1)
        out[off::r] = src
        return out

    def _compressed(self):
        """(lead, step, coeffs) with the step widened to the gcd of the
        nonzero terms' offsets (step N for at most one term)."""
        coeffs = self.coeffs
        if len(coeffs) <= 1:
            return self.lead, N, coeffs
        d = 0
        for i, c in enumerate(coeffs):
            if c:
                d = gcd(d, i)
                if d == 1:
                    return self.lead, self.step, coeffs
        return self.lead, self.step * d, coeffs[::d]

    # arithmetic ------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        prec = min(self.prec_units, other.prec_units)
        if not other.coeffs or not self.coeffs:
            f = other if not self.coeffs else self
            return FracSeries(f.lead, f.step, f.coeffs, prec, f.den)
        lead = min(self.lead, other.lead)
        step = gcd(self.step, other.step, self.lead - other.lead)
        den = self.den * other.den // gcd(self.den, other.den)
        length = _span(lead, step, prec)
        a = self._spread(lead, step, den, length)
        b = other._spread(lead, step, den, length)
        if len(a) < len(b):
            a, b = b, a
        a[:len(b)] = [x + y for x, y in zip(a, b)]
        return FracSeries(lead, step, a, prec, den)

    __radd__ = __add__

    def __neg__(self):
        return FracSeries(self.lead, self.step, [-c for c in self.coeffs],
                          self.prec_units, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if not isinstance(other, FracSeries):
            c = _number(other)
            return FracSeries(self.lead, self.step,
                              [x * c.numerator for x in self.coeffs],
                              self.prec_units, self.den * c.denominator)
        prec = min(self.prec_units + other.lead, other.prec_units + self.lead)
        if not self.coeffs or not other.coeffs:
            return FracSeries(0, N, [], prec)
        lead = self.lead + other.lead
        step = gcd(self.step, other.step)
        length = _span(lead, step, prec)
        a = self._spread(self.lead, step, self.den, length)
        b = a if other is self else other._spread(other.lead, step, other.den,
                                                  length)
        return FracSeries(lead, step, _product(a, b, length), prec,
                          self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        """f^k for any integer k by J.C.P. Miller's recurrence (Knuth, TAOCP
        vol. 2, 4.7), known below p + (k - 1)*lead as a k-fold product is."""
        if not isinstance(k, int):
            return NotImplemented
        if not self.coeffs and k < 0:
            raise ZeroDivisionError("cannot invert the zero series")
        if k == 1:
            return self
        if k == 0 or not self.coeffs:
            return FracSeries(0, N, [] if k else [1], self.prec_units)
        lead, step, a = self.lead, self.step, self.coeffs
        span = self.prec_units - lead  # known part of f / q^lead, in 24ths
        n = _span(0, step, span)
        # f = q^lead * sum a_j x^j / den, x = q^step; (sum a_j x^j)^k = sum g_i x^i
        # has i a_0 g_i = sum_j ((k+1) j - i) a_j g_(i-j), so g_i = a_0^(k-i) E_i with
        # E_0 = 1 and i E_i = sum_j ((k+1) j - i) w_j E_(i-j), w_j = a_j a_0^(j-1), exact
        a0 = a[0]
        tail = [(j, c * a0 ** (j - 1)) for j, c in enumerate(a[1:n], 1) if c]
        tail = [(j, (k + 1) * j * w, w) for j, w in tail]
        E = [1]
        for i in range(1, n):
            acc = 0
            for j, kjw, w in tail:
                if j > i:
                    break
                acc += (kjw - i * w) * E[i - j]
            E.append(acc // i)
        # over one denominator: coefficient i is E_i a_0^(k-i) / den^k
        out = [0] * n
        p = a0 ** max(k - n + 1, 0) * (self.den ** -k if k < 0 else 1)
        for i in range(n - 1, -1, -1):
            out[i] = E[i] * p
            p *= a0
        den = a0 ** max(n - 1 - k, 0) * (self.den ** k if k > 0 else 1)
        if den < 0:
            den, out = -den, [-c for c in out]
        return FracSeries(k * lead, step, out, span + k * lead, den)

    def inverse(self):
        """Series inverse (of a nonzero series)."""
        return self ** -1

    def scale_exponents(self, factor):
        """Substitute tau -> factor*tau (factor > 0), i.e. multiply all
        exponents; the precision rounds down to the grid of 24ths."""
        factor = Fraction(factor)
        if factor <= 0:
            raise ValueError("the exponent scale factor must be positive")
        lead, step, coeffs = self._compressed()
        for i, c in enumerate(coeffs):
            if c and ((lead + i * step) * factor).denominator != 1:
                raise NonIntegerExponents(
                    f"exponent {Fraction(lead + i * step, N)} * {factor} "
                    f"leaves (1/{N})Z")
        # the compressed step is a Z-combination of the nonzero offsets, so
        # it scales to an integer once every nonzero exponent does
        np = self.prec_units * factor
        return FracSeries(int(lead * factor),
                          int(step * factor) if len(coeffs) > 1 else N,
                          coeffs, np.numerator // np.denominator, self.den)

    def truncate(self, prec):
        p = _to_units(prec)
        if p > self.prec_units:
            raise InsufficientPrecision(
                f"cannot extend precision from {self.prec} to {prec}")
        return FracSeries(self.lead, self.step, self.coeffs, p, self.den)

    def _coerce(self, x):
        if isinstance(x, FracSeries):
            return x
        c = _number(x)
        return FracSeries(0, N, [c.numerator], self.prec_units, c.denominator)

    def __eq__(self, other):
        """Equal coefficients below the smaller of the two precisions."""
        if not isinstance(other, FracSeries):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        terms = self.terms()
        parts = [f"{c}*q^({e})" for e, c in terms[:6]]
        if len(terms) > 6:
            parts.append("...")
        return f"FracSeries({' + '.join(parts) or '0'}; prec={self.prec})"


# ---------------------------------------------------------------------------
# integer polynomial products: the first n coefficients of a * b

def _product(a, b, n):
    if min(len(a), len(b)) <= SCHOOLBOOK_MAX:
        return _product_schoolbook(a, b, n)
    return _product_kronecker(a, b, n)


def _product_schoolbook(a, b, n):
    if len(a) > len(b):
        a, b = b, a
    out = [0] * min(n, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[:n - i]):
                out[i + j] += x * y
    return out


def _pack(a, width):
    """sum a_i 2^(8*width*i) for signed a_i, |a_i| < 2^(8*width)."""
    zero = bytes(width)
    pos = b"".join(x.to_bytes(width, "little") if x > 0 else zero for x in a)
    neg = b"".join((-x).to_bytes(width, "little") if x < 0 else zero for x in a)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _product_kronecker(a, b, n):
    n = min(n, len(a) + len(b) - 1)
    # each product coefficient is a sum of at most min(len) terms; one more
    # bit holds its sign, so it fits a slot of `width` bytes, biased by half
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    width = (bits + 7) // 8
    A = _pack(a, width)
    C = A * A if b is a else A * _pack(b, width)
    size = width * n
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    raw = ((C + bias) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(raw[k:k + width], "little") - half
            for k in range(0, size, width)]


# ---------------------------------------------------------------------------

def eta_series(scale, prec):
    """eta(scale*tau) = q^(scale/24) prod (1 - q^(scale*n)), expanded by
    Euler's pentagonal number theorem: prod (1 - x^n) = sum over k in Z of
    (-1)^k x^(k(3k-1)/2)."""
    if scale < 1:
        raise InvalidInput("eta scale must be a positive integer")
    prec_u = _to_units(prec)
    n = _span(scale, N * scale, prec_u)
    coeffs = [0] * n
    k = 0
    while k * (3 * k - 1) // 2 < n:
        sign = -1 if k % 2 else 1
        coeffs[k * (3 * k - 1) // 2] = sign
        if k * (3 * k + 1) // 2 < n:
            coeffs[k * (3 * k + 1) // 2] = sign
        k += 1
    return FracSeries(scale, N * scale, coeffs, prec_u)


def eta_quotient(spec, prec):
    """prod eta(s*tau)^m for (s, m) pairs; negative exponents allowed."""
    if not spec:
        raise InvalidInput("empty eta quotient")
    _check_prec(prec)
    weight = sum(abs(m) for _, m in spec)
    if weight > MAX_ETA_EXPONENTS:
        raise BoundExceeded(
            f"sum of |exponents| {weight} is past the eta-quotient bound {MAX_ETA_EXPONENTS}")
    # the leading exponent is sum s*m/24; compute factors with enough slack
    lead = sum(Fraction(s * m, N) for s, m in spec)
    if -lead > MAX_ETA_POLE:
        raise BoundExceeded(
            f"pole order {-lead} is past the eta-quotient bound {MAX_ETA_POLE}")
    slack = Fraction(_to_units(prec), N) - min(lead, 0)
    out = None
    for s, m in spec:
        base = eta_series(s, slack + s)
        if m < 0 and not base.coeffs:
            raise InvalidInput(f"precision too low: no term of eta({s}*tau) is left to invert")
        out = base ** m if out is None else out * base ** m
    return out.truncate(min(Fraction(out.prec_units, N), Fraction(_to_units(prec), N)))


def theta_series(kind, prec):
    """Theta of <2>: sum q^(n^2) ("integral") or sum q^((n+1/2)^2) ("shifted")."""
    _check_prec(prec)
    prec_u = _to_units(prec)
    if kind == "integral":
        n = _span(0, N, prec_u)
        coeffs = [0] * n
        j = 0
        while j * j < n:
            coeffs[j * j] = 2 if j else 1
            j += 1
        return FracSeries(0, N, coeffs, prec_u)
    if kind == "shifted":
        # (j + 1/2)^2 = 1/4 + 2 * j(j+1)/2: q^(1/4) times a series in q^2
        n = _span(6, 2 * N, prec_u)
        coeffs = [0] * n
        j = 0
        while j * (j + 1) // 2 < n:
            coeffs[j * (j + 1) // 2] = 2
            j += 1
        return FracSeries(6, 2 * N, coeffs, prec_u)
    raise ValueError("kind must be 'integral' or 'shifted'")


def psi_m(m, prec):
    """eta_{1^-8 2^8 4^-8}^2 theta^(8+m) - 2(m+16) eta_{1^-8 2^8 4^-8} theta^m."""
    return _psi_combination(m, prec, [(1, -8), (2, 8), (4, -8)], 1, "integral")


def _psi_combination(m, prec, eta_spec, eta_scale, theta_kind):
    """E (E theta^(8+m) - 2(m+16) theta^m) for E = eta_scale * eta_quotient
    of eta_spec, both factors worked two units past prec (psi_m's pole)."""
    if m < 0:
        raise InvalidInput("m must be >= 0")
    if 8 + m > MAX_ETA_EXPONENTS:
        raise BoundExceeded(f"m = {m} is past the psi_m bound {MAX_ETA_EXPONENTS - 8}")
    _check_prec(prec, 2)
    work = Fraction(prec) + 2
    eta = eta_quotient(eta_spec, work)
    if eta_scale != 1:
        eta = eta * eta_scale
    theta = theta_series(theta_kind, work)
    out = eta * (eta * theta ** (8 + m) - 2 * (m + 16) * theta ** m)
    return out.truncate(min(out.prec, Fraction(prec)))


def split_congruence(f, i):
    """h^(i): keep exponents l = i mod 4 of an integer-exponent series and
    replace q^l by q^(l/4).
    """
    lead, step, coeffs = f._compressed()
    if lead % N or step % N:
        raise NonIntegerExponents("congruence split needs integer exponents")
    if f.prec_units % N:
        raise NonIntegerExponents("congruence split needs integer precision")
    prec = 6 * (f.prec_units // N)  # l/4 in units of 1/24 is 6l
    l0, t = lead // N, step // N
    # the kept terms l0 + j*t = i mod 4 are every r-th from the first one
    r = 4 // gcd(t, 4)
    first = next((j for j in range(r) if (l0 + j * t - i) % 4 == 0), None)
    if first is None or not coeffs:
        return FracSeries(0, N, [], prec)
    return FracSeries(6 * (l0 + first * t), 6 * t * r, coeffs[first::r], prec,
                      f.den)


def eval_numeric(f, tau, tol=1e-12):
    """Partial sum at q = e^(2 pi i tau); q^e taken as e^(2 pi i tau e)."""
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    qabs = abs(cmath.exp(2j * cmath.pi * tau))
    tail = qabs ** float(f.prec) / (1 - qabs)
    if tail >= tol:
        raise InsufficientPrecision(
            f"tail bound {tail:.3g} at precision {f.prec} exceeds {tol:.3g}")
    total = 0j
    for e, c in f.terms():
        total += float(c) * cmath.exp(2j * cmath.pi * tau * float(e))
    return total
