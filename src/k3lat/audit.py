"""Kodaira-dimension -infinity audit for the two families of 2-elementary
triplets: the low-genus family 13 <= r <= 17 and the maximal family
r + a = 22, evaluated through the Gritsenko low-weight-cusp-form criterion
with explicit weight and divisor ledgers.
"""

from fractions import Fraction

from .errors import NotRealizable, OutOfFamily, UnsupportedInvariant
from .geography import geography_table, k3_triplet_realizable
from .lattice import (
    parse_lattice,
    discriminant_form,
    hyperbolic_plane,
    m_lattice,
    rescale,
    direct_sum,
)
from .finiteform import milgram_signature
from .qseries import psi_m
from .vectors import witness_vector, disc_class_of_vector
from .weil import lift_B, principal_part

VERDICT_NEG_INFINITY = "-infinity"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_HYPOTHESIS = "hypothesis-violated"
VERDICT_NOT_COVERED = "not-covered-by-A.3"


class DivisorLedger:
    """Wall classes hit by a reflective modular form, with multiplicities,
    alongside the weight data the criterion consumes."""

    CLASS_TAGS = ("Dprime", "Ddoubleprime", "norm_minus4", "dual_norm_minus1")

    def __init__(self, entries, nu, k, n):
        for tag, mult in entries:
            if tag not in self.CLASS_TAGS:
                raise ValueError(f"unknown divisor class tag {tag!r}")
            if mult < 0:
                raise ValueError("divisor multiplicities must be >= 0")
        if nu < 0:
            raise ValueError("nu must be >= 0")
        self.entries = list(entries)
        self.nu = nu
        self.k = k
        self.n = n

    def multiplicity(self, tag):
        return sum(m for t, m in self.entries if t == tag)

    def __repr__(self):
        return (f"DivisorLedger(nu={self.nu}, k={self.k}, n={self.n}, "
                f"entries={self.entries})")


def gritsenko_verdict(k, nu, n, strict_weight, nonzero_slack):
    """Low-weight cusp form criterion on a type IV domain of dimension n.

    A form of weight k vanishing on nu times the ramification divisor forces
    kappa = -infinity once k >= nu*n, provided either the inequality is
    strict or some slack remains between nu*R and the divisor actually used
    (R >= D is taken as given, not re-derived).
    """
    if n < 3:
        return VERDICT_HYPOTHESIS
    if k < nu * n:
        return VERDICT_INCONCLUSIVE
    if strict_weight and not k > nu * n:
        raise ValueError("strict_weight asserted but k == nu*n")
    if strict_weight or nonzero_slack:
        return VERDICT_NEG_INFINITY
    return VERDICT_INCONCLUSIVE


def _m7_partner():
    """U(2) + M7, the transcendental lattice forced at (r, a) = (13, 9)."""
    return direct_sum(rescale(hyperbolic_plane(), 2), rescale(m_lattice(7), -1))


def case1_report(r, a, delta):
    """The 13 <= r <= 17 family: quasi-pullback weights k = (r-6)(2^g+1)."""
    if not k3_triplet_realizable(r, a, delta):
        raise NotRealizable(f"({r}, {a}, {delta}) is not a K3 triplet")
    report = {"triplet": (r, a, delta), "case": "A.3"}
    if not 13 <= r <= 17:
        report["verdict"] = VERDICT_NOT_COVERED
        return report
    g = 11 - (r + a) // 2
    nu = 2 ** g + 1
    k = (r - 6) * nu
    n = 20 - r
    report.update(g=g, nu=nu, k=k, n=n, margin=k - nu * n)
    # D' vanishes exactly when L^v = (1/2)L, i.e. a equals the rank 22 - r
    d_prime_zero = (a == 22 - r)
    special = False
    if k > nu * n:
        slack = False  # not needed
    elif d_prime_zero:
        # r = 13 boundary: L_- = U(2) + M7; a reflective -4-wall outside D
        # supplies the slack.  The witness carries the whole argument.
        partner = _m7_partner()
        lam = witness_vector(partner, -4, box=2)
        if lam is None:
            raise NotRealizable("no norm -4 vector found in U(2) + M7")
        _, half_in_dual = disc_class_of_vector(partner, lam)
        special = True
        slack = True
        report["witness"] = list(lam)
        report["witness_half_in_dual"] = half_in_dual
    else:
        # D' is nonzero, so div(Psi) = D' + nu D'' leaves nu R - D' - nu D''
        # short of nu R along D' itself.
        slack = True
    report["ledger"] = DivisorLedger(
        [("Dprime", 0 if d_prime_zero else 1), ("Ddoubleprime", nu)],
        nu, k, n)
    report["special_flag"] = special
    report["uses_R_geq_D"] = True
    report["verdict"] = gritsenko_verdict(k, nu, n, k > nu * n, slack)
    return report


def case2_report(r, a, delta):
    """The r + a = 22 family: Borcherds lifts Xi with div(Xi) = 2H."""
    if r + a != 22 or not 11 <= r <= 17:
        raise OutOfFamily(
            f"({r}, {a}, {delta}) is outside the r + a = 22, r <= 17 family")
    if not k3_triplet_realizable(r, a, delta):
        raise NotRealizable(f"({r}, {a}, {delta}) is not a K3 triplet")
    r_minus = 22 - r
    sigma_minus = r - 18
    m = 8 + sigma_minus
    k = -m * m - 9 * m + 124
    n = r_minus - 2
    # the lift's scale 2^((r_- - a_-)/2) is 1 here, since a_- = r_-
    scale = 1
    xi_weight = (scale + 1) * k
    report = {
        "triplet": (r, a, delta),
        "case": "A.4",
        "r_minus": r_minus,
        "a_minus": r_minus,
        "sigma_minus": sigma_minus,
        "m": m,
        "k": k,
        "n": n,
        "margin": k - n,
        "xi_weight": xi_weight,
    }
    # div(Xi) = 2H, so F_k = Xi^(1/2) has div = H = R exactly; the slack
    # comes from k - n > 0 alone (nu = 1).
    report["ledger"] = DivisorLedger(
        [("norm_minus4", 1), ("dual_norm_minus1", scale)],
        1, k, n)
    report["uses_R_geq_D"] = True
    report["verdict"] = gritsenko_verdict(k, 1, n, k > n, False)
    return report


def theorem1_coverage():
    """Every realizable triplet with its verdict; the -infinity set is the
    union of the two case families."""
    out = []
    for entry in geography_table():
        row = kodaira_report(*entry.triplet)
        out.append({
            "triplet": row["triplet"],
            "verdicts": {tag: rep["verdict"] for tag, rep in row["cases"].items()},
            "verdict": row["verdict"],
        })
    return out


def kodaira_report(r, a, delta):
    """Combined per-triplet report used by the command line."""
    if not k3_triplet_realizable(r, a, delta):
        raise NotRealizable(f"({r}, {a}, {delta}) is not a K3 triplet")
    row = {"triplet": (r, a, delta), "cases": {}}
    if 13 <= r <= 17:
        row["cases"]["A.3"] = case1_report(r, a, delta)
    if r + a == 22 and r <= 17:
        row["cases"]["A.4"] = case2_report(r, a, delta)
    verdicts = [c["verdict"] for c in row["cases"].values()]
    row["verdict"] = (VERDICT_NEG_INFINITY
                      if VERDICT_NEG_INFINITY in verdicts else "not-covered")
    return row


def lift_consistency(r_minus, prec=8):
    """Check the r_minus = a_minus lift against its divisor ledger shape:
    a q^-2 pole on e_0 (the -4 walls), q^(-1/2) poles exactly on the v_2
    class (the dual -1 walls), psi_m constant term 2k, and e_0 constant
    term twice the Xi weight.
    """
    if not 5 <= r_minus <= 11:
        raise UnsupportedInvariant("the lift family needs 5 <= r_minus <= 11")
    L = parse_lattice(f"<2>^2 + <-2>^{r_minus - 2}")
    q = discriminant_form(L)
    sigma = milgram_signature(q)
    m = 12 - r_minus
    k = -m * m - 9 * m + 124
    B = lift_B(q, sigma, r_minus, r_minus, prec)
    if psi_m(m, 4).coefficient(0) != 2 * k:
        return False
    pp = principal_part(B)
    poles = {}
    for x, e, c in pp:
        if e < 0:
            poles.setdefault(x, []).append((e, c))
    zero = tuple([0] * q.a)
    if poles.get(zero) != [(Fraction(-2), Fraction(1))]:
        return False
    for x in q.elements():
        klass = int(2 * q.q(x)) % 4
        expect = [(Fraction(-1, 2), Fraction(1))] if klass == 2 else []
        got = poles.get(x, []) if x != zero else []
        if got != expect:
            return False
    # constant term on e_0 is psi_m's 2k plus the v_0 share, i.e. 2 * weight
    xi_weight = 2 * k  # (2^((r-a)/2) + 1) k with r_minus = a_minus
    if B.components[zero].coefficient(0) != 2 * xi_weight:
        return False
    return True
