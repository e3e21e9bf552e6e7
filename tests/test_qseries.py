"""q-series: eta products against the Euler-product oracle, golden
coefficients, the congruence-split identity, and numeric evaluation."""

import cmath
import math
import random
import time
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from k3lat.errors import BoundExceeded, InsufficientPrecision, NonIntegerExponents
from k3lat.qseries import (
    FracSeries,
    eta_series,
    eta_quotient,
    theta_series,
    psi_m,
    split_congruence,
    eval_numeric,
    DEFAULT_PREC,
    MAX_PREC,
    MAX_ETA_EXPONENTS,
    MAX_ETA_POLE,
    N,
)
from k3lat.weil import psi_m_slash_V


def euler_eta_coeffs(prec):
    """Independent oracle: pentagonal-number expansion of prod(1 - q^n),
    exponents shifted by 1/24."""
    coeffs = {}
    k = 0
    while True:
        for s in ([0] if k == 0 else [k, -k]):
            e = s * (3 * s - 1) // 2
            if e < prec:
                coeffs[e] = (-1) ** abs(s)
        k += 1
        if k * (3 * k - 1) // 2 >= prec and k > 1:
            break
    return coeffs


def int_product(a, b, n):
    """Independent oracle: the first n coefficients of a * b, term by term."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[:n - i]):
            out[i + j] += x * y
    return out


def euler_product_power(scale, power, n):
    """Independent oracle: prod_k (1 - q^(scale*k))^power to n terms, one
    factor (1 - x) or geometric series 1/(1 - x) at a time."""
    c = [1] + [0] * (n - 1)
    for _ in range(abs(power)):
        for step in range(scale, n, scale):
            if power > 0:  # multiply by 1 - q^step
                for e in range(n - 1, step - 1, -1):
                    c[e] -= c[e - step]
            else:  # divide by 1 - q^step
                for e in range(step, n):
                    c[e] += c[e - step]
    return c


def test_eta_quotient_and_psi_m_against_integer_products():
    """Every coefficient of eta_{1^-8 2^8 4^-8} and psi_m (m = 1..7) at
    precision 80, against plain integer products of (1 - q^n) factors and
    theta = sum q^(n^2)."""
    n = 82
    # eta_{1^-8 2^8 4^-8} = q^-1 F with F = P(q)^-8 P(q^2)^8 P(q^4)^-8
    F = int_product(int_product(euler_product_power(1, -8, n),
                                euler_product_power(2, 8, n), n),
                    euler_product_power(4, -8, n), n)
    f = eta_quotient([(1, -8), (2, 8), (4, -8)], 80)
    assert f.prec == 80
    assert f.terms() == [(e - 1, c) for e, c in enumerate(F[:81]) if c]
    theta = [0] * n
    for k in range(10):
        if k * k < n:
            theta[k * k] = 2 if k else 1
    F2 = int_product(F, F, n)
    for m in range(1, 8):
        th_m = [1] + [0] * (n - 1)
        for _ in range(m):
            th_m = int_product(th_m, theta, n)
        th_8m = th_m
        for _ in range(8):
            th_8m = int_product(th_8m, theta, n)
        # psi_m = q^-2 F^2 theta^(8+m) - 2(m+16) q^-1 F theta^m
        first = int_product(F2, th_8m, n)
        second = int_product(F, th_m, n)
        expect = [first[e + 2] - 2 * (m + 16) * (second[e + 1] if e >= -1 else 0)
                  for e in range(-2, 80)]
        psi = psi_m(m, 80)
        assert psi.prec == 80
        assert psi.terms() == [(e - 2, c) for e, c in enumerate(expect) if c], m


def test_eta_against_pentagonal_numbers():
    f = eta_series(1, 12)
    oracle = euler_eta_coeffs(12)
    for e, c in oracle.items():
        assert f.coefficient(Fraction(1, 24) + e) == c
    # nothing else is nonzero
    nonzero = {e for e, c in f.terms()}
    assert nonzero == {Fraction(1, 24) + e for e in oracle}


def test_eta_quotient_golden():
    f = eta_quotient([(1, -8), (2, 8), (4, -8)], 2)
    assert f.coefficient(-1) == 1
    assert f.coefficient(0) == 8
    assert f.coefficient(1) == 36
    # the quotient has integer exponents only
    assert all(e.denominator == 1 for e, _ in f.terms())


def test_theta_goldens():
    th = theta_series("integral", 4)
    assert th.coefficient(0) == 1
    assert th.coefficient(1) == 2
    assert th.coefficient(2) == 0
    assert th.coefficient(3) == 0
    sh = theta_series("shifted", Fraction(5, 4))
    assert sh.coefficient(Fraction(1, 4)) == 2
    assert sh.leading_exponent() == Fraction(1, 4)


def test_psi_m_goldens():
    for m in range(1, 8):
        f = psi_m(m, 2)
        assert f.coefficient(-2) == 1
        assert f.coefficient(-1) == 0
        assert f.coefficient(0) == 2 * (-m * m - 9 * m + 124)


def test_congruence_split_identity():
    """sum_i h^(i)(tau) = psi_m(tau/4), exactly to precision 20."""
    for m in (1, 4, 7):
        psi = psi_m(m, 80)
        total = None
        for i in range(4):
            h = split_congruence(psi, i)
            total = h if total is None else total + h
        assert total == psi.scale_exponents(Fraction(1, 4)).truncate(20)


def test_congruence_split_supports():
    psi = psi_m(7, 20)
    for i in range(4):
        h = split_congruence(psi, i)
        for e, _ in h.terms():
            assert (4 * e) % 4 == i % 4 or (4 * e - i) % 4 == 0


def test_runtime_at_default_precision():
    start = time.time()
    psi_m(7, DEFAULT_PREC)
    assert time.time() - start < 5


def test_series_arithmetic():
    one = FracSeries.one(10)
    q = FracSeries.monomial(1, 10)
    f = one + q
    inv = f.inverse()
    assert (f * inv).coefficient(0) == 1
    assert all((f * inv).coefficient(k) == 0 for k in range(1, 9))
    assert (f ** 3).coefficient(2) == 3
    # rational path: 1/(2 + q) = sum (-1)^k q^k / 2^(k+1), and a 1/3 scalar
    g = 2 * one + q
    ginv = g.inverse()
    assert ginv.prec == 10
    third = ginv * Fraction(1, 3)
    for k in range(10):
        assert ginv.coefficient(k) == Fraction((-1) ** k, 2 ** (k + 1))
        assert third.coefficient(k) == Fraction((-1) ** k, 3 * 2 ** (k + 1))
    assert g * ginv == one
    assert third.inverse() == 3 * g
    assert [c for _, c in (Fraction(1, 3) * g).terms()] == [Fraction(2, 3),
                                                           Fraction(1, 3)]


def fields(f):
    return (f.lead, f.step, f.coeffs, f.den, f.prec_units)


def test_number_operands_of_sums_and_products():
    """A number that is not a series is read as Fraction reads it, in a
    product as in a sum and on either side; any other operand is a TypeError."""
    f = FracSeries.monomial(-1, 10) + FracSeries.monomial(2, 10)
    half5 = Fraction(5, 2)
    for x in (2.5, half5):
        assert fields(f * x) == fields(x * f) == fields(f * half5)
        assert fields(f + x) == fields(x + f) == fields(f + half5)
    assert [c for _, c in (f * 2.5).terms()] == [half5, half5]
    for bad in (None, object(), [1], "1/2"):
        for op in (lambda: f * bad, lambda: bad * f, lambda: f + bad, lambda: bad + f):
            with pytest.raises(TypeError):
                op()


def test_eta_powers_against_euler_products():
    """eta(s*tau)^k for s in {1, 2, 4, 7}, k = +-1..+-24, term by term
    against prod (1 - q^(s*n))^k built one factor at a time, at the
    precision p + (k - 1)*lead of a k-fold product."""
    n = 20
    for s in (1, 2, 4, 7):
        eta = eta_series(s, n)
        for k in [k for k in range(-24, 25) if k]:
            f = eta ** k
            assert f.prec_units == eta.prec_units + (k - 1) * s
            lead = Fraction(s * k, N)
            oracle = euler_product_power(s, k, n)
            assert f.terms() == [(lead + e, c) for e, c in enumerate(oracle)
                                 if c and lead + e < f.prec], (s, k)


def random_series(rng):
    """A rational series with a_0 not +-1, den > 1, possibly a pole and a
    wide step."""
    step = rng.choice([6, 24, 48])
    lead = rng.randint(-3, 2) * step
    coeffs = [rng.choice([-6, -4, -3, -2, 2, 3, 5, 7])]
    coeffs += [rng.randint(-9, 9) for _ in range(rng.randint(0, 14))]
    prec = lead + rng.randint(1, 20) * 6
    return FracSeries(lead, step, coeffs, prec, rng.choice([11, 13, 143]))


def test_rational_powers_against_repeated_products():
    """f ** k for k = -6..6 against k-fold products, field by field, and
    f ** k * f^-k == 1 for k < 0."""
    rng = random.Random(20261018)
    for _ in range(60):
        f = random_series(rng)
        assert f.den > 1 and abs(f.coeffs[0]) != 1
        # f times a power of 1/f is known below p - lead
        one = FracSeries(0, N, [1], f.prec_units - f.lead)
        assert f * f ** -1 == one and (f * f ** -1).prec == one.prec
        assert fields(f.inverse()) == fields(f ** -1)
        assert fields(f ** 0) == fields(FracSeries(0, N, [1], f.prec_units))
        for k in range(1, 7):
            product = reduce(mul, [f] * k)
            assert fields(f ** k) == fields(product), (f, k)
            g = f ** -k
            assert g.prec_units == f.prec_units - (k + 1) * f.lead
            assert g * product == one and (g * product).prec == one.prec, (f, -k)


def test_zero_series_powers():
    """0^k is 0 for k > 0 (on the step-1 grid past k = 1, as a product is),
    1 for k = 0, and raises for k < 0."""
    z = FracSeries(0, 2 * N, [], 5 * N)
    assert fields(z ** 1) == fields(z)
    for k in (2, 7):
        assert fields(z ** k) == fields(FracSeries.zero(5)) == fields(z * z)
    assert fields(z ** 0) == fields(FracSeries.one(5))
    for k in (-1, -3):
        with pytest.raises(ZeroDivisionError):
            z ** k
    with pytest.raises(ZeroDivisionError):
        z.inverse()
    with pytest.raises(TypeError):
        FracSeries.one(5) ** 0.5


def test_inverse_with_pole():
    f = FracSeries.monomial(-1, 5) + FracSeries.one(5)
    g = f.inverse()
    assert g.leading_exponent() == 1


def test_scale_exponents_rejects_fractional_escape():
    f = FracSeries.monomial(Fraction(1, 24), 2)
    with pytest.raises(NonIntegerExponents):
        f.scale_exponents(Fraction(1, 5))


def test_precision_guard():
    f = theta_series("integral", 4)
    with pytest.raises(InsufficientPrecision):
        f.coefficient(4)


def test_eta_numeric_value_at_i():
    """eta(i) = Gamma(1/4) / (2 pi^(3/4))."""
    f = eta_series(1, 60)
    val = eval_numeric(f, 1j)
    expected = math.gamma(0.25) / (2 * math.pi ** 0.75)
    assert abs(val - expected) < 1e-10


def test_theta_inversion_numeric():
    """theta(-1/(4 tau)) = sqrt(-2 i tau) theta(tau)."""
    tau = 0.1 + 0.8j
    th = theta_series("integral", 80)
    lhs = eval_numeric(th, -1 / (4 * tau))
    rhs = cmath.sqrt(-2j * tau) * eval_numeric(th, tau)
    assert abs(lhs - rhs) < 1e-9


def test_precision_bound():
    """Up to MAX_PREC the series are computed; past it eta_quotient,
    theta_series and psi_m (which works two units higher) raise at once."""
    assert theta_series("integral", MAX_PREC).prec == MAX_PREC
    assert eta_quotient([(1, 1)], MAX_PREC).prec == MAX_PREC
    start = time.perf_counter()
    for call in (lambda: eta_quotient([(1, -24)], MAX_PREC + 1),
                 lambda: eta_quotient([(1, -8), (2, 8), (4, -8)], 10 ** 8),
                 lambda: theta_series("shifted", Fraction(MAX_PREC * 4 + 1, 4)),
                 lambda: psi_m(7, MAX_PREC - 1)):
        with pytest.raises(BoundExceeded):
            call()
    assert time.perf_counter() - start < 1


def test_eta_exponent_bound():
    """Up to MAX_ETA_EXPONENTS = sum |m| the quotient is computed; past it
    eta_quotient raises before it builds a factor."""
    half = MAX_ETA_EXPONENTS // 2
    assert eta_quotient([(1, -half), (2, MAX_ETA_EXPONENTS - half)], 4).prec == 4
    start = time.perf_counter()
    for spec in ([(1, -MAX_ETA_EXPONENTS - 1)], [(1, -half), (2, half + 1)],
                 [(1, -48000)]):
        with pytest.raises(BoundExceeded):
            eta_quotient(spec, DEFAULT_PREC)
    assert time.perf_counter() - start < 1


def test_psi_m_theta_exponent_bound():
    """theta^(8+m) counts against MAX_ETA_EXPONENTS: psi_m and psi_m|_V run
    up to m = 40 and raise past it before building any factor."""
    top = MAX_ETA_EXPONENTS - 8
    assert psi_m(top, 2).coefficient(-2) == 1
    assert psi_m_slash_V(top, 2).prec == 2
    start = time.perf_counter()
    for call in (lambda: psi_m(top + 1, 2), lambda: psi_m(10 ** 6, 1998),
                 lambda: psi_m(10 ** 9, 1000), lambda: psi_m_slash_V(top + 1, 2)):
        with pytest.raises(BoundExceeded):
            call()
    assert time.perf_counter() - start < 1


def test_eta_pole_bound():
    """Up to MAX_ETA_POLE = -sum s*m/24 the quotient is computed; past it
    eta_quotient raises before it builds a factor, whatever sum |m| is."""
    assert eta_quotient([(MAX_ETA_POLE, -24)], 4).prec == 4
    assert eta_quotient([(1, -8), (2, 8), (4, -8)], 4).prec == 4  # psi_m's, order 1
    start = time.perf_counter()
    for spec in ([(MAX_ETA_POLE + 1, -24)], [(1, -1), (100000, -23)]):
        with pytest.raises(BoundExceeded):
            eta_quotient(spec, DEFAULT_PREC)
    assert time.perf_counter() - start < 1
