"""Output checks for every benchmark job.

Each job is checked twice: byte for byte against a golden digest recorded
at the seed commit, and against facts derived without the code under
test wherever such facts are known (series recomputed with plain integer
arithmetic, lattice invariants added up over the direct summands, known
vector counts, the two audit families). ``Checker.check`` returns None
for a correct output and a short reason otherwise.
"""

import hashlib
import json
import re
from fractions import Fraction

from workloads import TRIPLETS, job_key

# (r_plus, r_minus, a, delta) of each atom of a lattice expression
_ATOMS = {
    "U": (1, 1, 0, 0),
    "U(2)": (1, 1, 2, 0),
    "E8": (0, 8, 0, 0),
    "E8(2)": (0, 8, 8, 0),
    "<2>": (1, 0, 1, 1),
    "<-2>": (0, 1, 1, 1),
    "LambdaK3": (3, 19, 0, 0),
}

# short vectors up to sign with 0 < |norm| <= bound: the theta series of E8
# (240, 2160, 6720 vectors of norm 2, 4, 6), E8(2) doubles every norm, and
# <-2>^8 has 8 + 56 + 224 vectors with |v|^2 = 1, 2, 3 in Z^8.
SHORT_VECTOR_COUNTS = {
    ("E8", 2): 120,
    ("E8", 4): 1200,
    ("E8", 6): 4560,
    ("E8(2)", 8): 1200,
    ("<-2>^8", 6): 288,
}

# leading coefficients known independently of the series code
ETA_LEADING = {
    "1^-8,2^8,4^-8": [(-1, 1), (0, 8), (1, 36)],
    "1^-24": [(-1, 1), (0, 24), (1, 324), (2, 3200), (3, 25650)],  # 1/Delta
    "1^8,2^8": [(1, 1), (2, -8), (3, 12), (4, 64), (5, -210)],  # level-2 newform
    "2^-16,4^8": [(0, 1), (2, 16), (4, 144)],
}

GEO_COUNT = 75
NAMED_COUNT = 21


_TERM = re.compile(r"(U|U\(2\)|E8|E8\(2\)|<-?2>|M(\d+)|LambdaK3)(?:\^(\d+))?")


def expr_invariant(expr):
    """(r_plus, r_minus, a, delta) of a direct sum, added up term by term."""
    total = (0, 0, 0, 0)
    for term in expr.split("+"):
        atom, n, count = _TERM.fullmatch(term.strip()).groups()
        inv = (1, int(n) - 1, int(n), 1) if n else _ATOMS[atom]
        for _ in range(int(count or 1)):
            total = (total[0] + inv[0], total[1] + inv[1], total[2] + inv[2],
                     total[3] | inv[3])
    return total


def two_family(triplet):
    """Whether the paper's two case families give Kodaira dimension -inf."""
    r, a, _ = triplet
    return 13 <= r <= 17 or (r + a == 22 and r <= 17)


# -- independent integer q-series -----------------------------------------

def _mul(f, g, n):
    out = [0] * n
    for i, x in enumerate(f[:n]):
        if x:
            for j, y in enumerate(g[:n - i]):
                out[i + j] += x * y
    return out


def _pow(f, k, n):
    out = [1] + [0] * (n - 1)
    while k:
        if k & 1:
            out = _mul(out, f, n)
        f = _mul(f, f, n)
        k >>= 1
    return out


def _inverse(f, n):
    """Inverse of an integer series with constant term 1."""
    out = [1] + [0] * (n - 1)
    for e in range(1, n):
        out[e] = -sum(f[k] * out[e - k] for k in range(1, min(e, len(f) - 1) + 1))
    return out


def _euler(scale, n):
    """prod (1 - q^(scale*j)) up to q^n, exponents in units of q."""
    f = [1] + [0] * (n - 1)
    for j in range(1, n):
        if scale * j >= n:
            break
        g = [0] * n
        g[0] = 1
        g[scale * j] = -1
        f = _mul(f, g, n)
    return f


def eta_terms(spec, prec):
    """{exponent: coefficient} of the eta quotient below q^prec."""
    lead = Fraction(sum(s * m for s, m in spec), 24)
    n = max(int(prec - lead) + 2, 1)
    f = [1] + [0] * (n - 1)
    for s, m in spec:
        base = _euler(s, n)
        if m < 0:
            base = _inverse(base, n)
        f = _mul(f, _pow(base, abs(m), n), n)
    return {lead + i: Fraction(c) for i, c in enumerate(f) if c and lead + i < prec}


def theta_terms(kind, prec):
    shift = Fraction(1, 2) if kind == "shifted" else 0
    out = {}
    j = 0
    while (j + shift) ** 2 < prec:
        e = (j + shift) ** 2
        out[e] = out.get(e, 0) + (1 if e == 0 else 2)
        j += 1
    return {Fraction(e): Fraction(c) for e, c in out.items()}


def psi_terms(m, prec):
    """eta_{1^-8 2^8 4^-8}^2 theta^(8+m) - 2(m+16) eta_{1^-8 2^8 4^-8} theta^m."""
    n = prec + 3  # exponents -2 .. prec, shifted by 2
    eta = _mul(_euler(2, n), _euler(2, n), n)
    eta = _pow(eta, 4, n)
    den = _pow(_mul(_euler(1, n), _euler(4, n), n), 8, n)
    eq = _mul(eta, _inverse(den, n), n)  # q * eta quotient
    theta = [0] * n
    j = 0
    while j * j < n:
        theta[j * j] += 1 if j == 0 else 2
        j += 1
    first = _mul(_mul(eq, eq, n), _pow(theta, 8 + m, n), n)  # times q^2
    second = _mul(eq, _pow(theta, m, n), n)  # times q
    out = {}
    for i in range(n):
        c = first[i] - (2 * (m + 16) * second[i - 1] if i >= 1 else 0)
        e = i - 2
        if c and e < prec:
            out[Fraction(e)] = Fraction(c)
    return out


# -- parsing the CLI's output ----------------------------------------------

def _series_text(text):
    terms = {}
    prec = None
    for line in text.splitlines():
        if line.startswith("q^"):
            e, c = line[2:].split()
            terms[Fraction(e)] = Fraction(c)
        elif line.startswith("precision "):
            prec = Fraction(line.split()[1])
    return terms, prec


def _series_json(text):
    doc = json.loads(text)
    return {Fraction(e): Fraction(c) for e, c in doc["terms"]}, Fraction(doc["prec"])


def _flag(argv, name):
    return argv[argv.index(name) + 1]


class Checker:
    """Checks job outputs; builds its reference data on construction."""

    def __init__(self, goldens):
        self.goldens = goldens
        self._series = {}
        from k3lat.geography import fixture_catalog
        from k3lat.lattice import parse_lattice
        self._parse = parse_lattice
        self.fixture_invariants = {}
        for fx in fixture_catalog():
            name = fx.name
            m = re.fullmatch(r"L(\d+)", name)
            if m:
                name = f"<2>^2 + <-2>^{m.group(1)}"
            self.fixture_invariants[name.replace(" ", "")] = tuple(fx.expected)

    def check(self, job, outcome):
        """``outcome`` is (rc, stdout) for a CLI job, the result for a library call."""
        golden = self.goldens.get(job_key(job))
        if golden is None:
            return "no golden output recorded for this job"
        if job[0] == "cli":
            rc, text = outcome
            if rc != golden["rc"]:
                return f"exit code {rc}, golden {golden['rc']}"
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest != golden["sha256"]:
                return f"stdout differs from the golden ({len(text.encode())} bytes)"
            try:
                return self._cli_fact(list(job[1:]), rc, text)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                return f"unparseable output: {exc!r}"
        if describe(job, outcome) != golden["describe"]:
            return "result differs from the golden"
        return self._lib_fact(job, outcome)

    # -- CLI facts -----------------------------------------------------------

    def _cli_fact(self, argv, rc, text):
        if rc != 0:
            return f"exit code {rc}"
        verb = tuple(argv[:2])
        as_json = "--json" in argv
        if verb == ("qexp", "psi"):
            m, prec = int(argv[2]), int(_flag(argv, "--prec"))
            terms, got_prec = (_series_json if as_json else _series_text)(text)
            if terms.get(Fraction(0)) != 2 * (-m * m - 9 * m + 124):
                return "psi_m q^0 coefficient is not 2(-m^2-9m+124)"
            if terms.get(Fraction(-1), 0) != 0:
                return "psi_m q^-1 coefficient is not 0"
            return self._series_fact(("psi", m, prec), terms, got_prec, prec,
                                     lambda: psi_terms(m, prec))
        if verb == ("qexp", "eta"):
            spec_text, prec = argv[2], int(_flag(argv, "--prec"))
            spec = [tuple(int(x) for x in part.split("^")) for part in spec_text.split(",")]
            terms, got_prec = (_series_json if as_json else _series_text)(text)
            lead = sorted(terms.items())[:len(ETA_LEADING[spec_text])]
            if [(int(e), int(c)) for e, c in lead] != ETA_LEADING[spec_text]:
                return f"eta {spec_text} does not start {ETA_LEADING[spec_text]}"
            return self._series_fact(("eta", spec_text, prec), terms, got_prec, prec,
                                     lambda: eta_terms(spec, prec))
        if verb == ("qexp", "theta"):
            kind, prec = argv[2], int(_flag(argv, "--prec"))
            terms, got_prec = (_series_json if as_json else _series_text)(text)
            return self._series_fact(("theta", kind, prec), terms, got_prec, prec,
                                     lambda: theta_terms(kind, prec))
        if verb == ("lat", "info"):
            return self._lat_info(argv[2], as_json, text)
        if verb == ("weil", "check"):
            return self._weil_check(argv[2], as_json, text)
        if verb == ("weil", "matrix"):
            n = 1 << expr_invariant(argv[2])[2]
            if as_json:
                doc = json.loads(text)
                rows = doc["entries"]
                if doc["n"] != n or any(len(row) != n for row in rows):
                    return f"matrix is not {n} x {n}"
            else:
                rows = text.splitlines()
            if len(rows) != n:
                return f"matrix has {len(rows)} rows, expected 2^a = {n}"
            return None
        if verb == ("geo", "list"):
            return self._geo_list(argv, text)
        if verb == ("vec", "short"):
            return self._vec_short(argv[2], int(_flag(argv, "--bound")), as_json, text)
        if verb == ("vec", "witness"):
            norm, box = int(_flag(argv, "--norm")), int(_flag(argv, "--box"))
            vec = json.loads(text)["vector"] if as_json else json.loads(text)
            gram = self._parse(argv[2]).gram
            got = sum(vec[i] * gram[i][j] * vec[j]
                      for i in range(len(vec)) for j in range(len(vec)))
            if got != norm or max(abs(x) for x in vec) > box:
                return f"witness {vec} has norm {got}, expected {norm} within box {box}"
            return None
        if verb == ("audit", "kodaira"):
            return self._audit(argv, as_json, text)
        return f"no oracle for {verb}"

    def _series_fact(self, key, terms, got_prec, prec, reference):
        if got_prec != prec:
            return f"precision {got_prec}, requested {prec}"
        if key not in self._series:
            self._series[key] = reference()
        if terms != self._series[key]:
            return "series differs from the integer recomputation"
        return None

    def _lat_info(self, expr, as_json, text):
        inv = expr_invariant(expr)
        expected = self.fixture_invariants.get(expr.replace(" ", ""), inv)
        if expected != inv:
            return f"fixture catalog says {expected}, summands add up to {inv}"
        r_plus, r_minus, a, _ = inv
        if as_json:
            doc = json.loads(text)
            got = (doc["rank"], tuple(doc["signature"]), doc["even"],
                   tuple(doc["main_invariant"]))
            want = (r_plus + r_minus, (r_plus, r_minus), True, expected)
        else:
            fields = dict(line.split(None, 1) for line in text.splitlines())
            got = (int(fields["rank"]), fields["signature"], int(fields["det"]),
                   fields["even"], fields["invariant"].split(" = ")[1])
            want = (r_plus + r_minus, f"({r_plus}, {r_minus})",
                    (-1) ** r_minus * 2 ** a, "True", str(expected))
        if got != want:
            return f"lat info gives {got}, expected {want}"
        return None

    def _weil_check(self, expr, as_json, text):
        r_plus, r_minus, a, delta = expr_invariant(expr)
        sigma = (r_plus - r_minus) % 8  # Milgram
        if as_json:
            doc = json.loads(text)
            flags = list(doc["checks"].values())
            got = (doc["a"], doc["delta"], doc["sigma"])
        else:
            lines = text.splitlines()
            flags = [line.split()[-1] == "ok" for line in lines[2:]]
            got = tuple(int(x) for x in lines[0].split(" = ")[1].strip("()").split(","))
        if len(flags) != 4 or not all(flags):
            return "a weil check flag is not true"
        if got != (a, delta, sigma):
            return f"(a, delta, sigma) = {got}, expected {(a, delta, sigma)}"
        return None

    def _geo_list(self, argv, text):
        if "--count" in argv:
            return None if text == f"{GEO_COUNT}\n" else "geo list --count is not 75"
        if "--json" in argv:
            doc = json.loads(text)
            triplets = [tuple(e["triplet"]) for e in doc["entries"]]
            named = sum(e["named"] for e in doc["entries"])
            count = doc["count"]
        else:
            rows = [line.split() for line in text.splitlines()[1:]]
            triplets = [tuple(int(x) for x in row[:3]) for row in rows]
            named = sum(len(row) == 6 and row[5] == "*" for row in rows)
            count = len(rows)
        if count != GEO_COUNT or sorted(triplets) != sorted(TRIPLETS):
            return "geo list is not the 75 triplets"
        if named != NAMED_COUNT:
            return f"{named} named rows, expected {NAMED_COUNT}"
        return None

    def _vec_short(self, expr, bound, as_json, text):
        if as_json:
            doc = json.loads(text)
            vectors = [(v["v"], v["norm"]) for v in doc["vectors"]]
            count = doc["count"]
        else:
            lines = text.splitlines()
            vectors = []
            for line in lines[:-1]:
                norm, vec = line.split(None, 1)
                vectors.append((json.loads(vec), int(norm)))
            count = int(lines[-1].split()[0])
        expected = SHORT_VECTOR_COUNTS[(expr, bound)]
        if count != expected or len(vectors) != expected:
            return f"{count} vectors, expected {expected}"
        gram = self._parse(expr).gram
        seen = set()
        for v, norm in vectors:
            got = sum(v[i] * gram[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))
            if got != norm or not 0 < abs(norm) <= bound:
                return f"vector {v} has norm {got}, printed {norm}"
            key = tuple(v)
            if key in seen or tuple(-x for x in v) in seen:
                return f"vector {v} listed twice up to sign"
            seen.add(key)
        return None

    def _audit(self, argv, as_json, text):
        if "--all" in argv:
            if as_json:
                neg = {tuple(row["triplet"]) for row in json.loads(text)["rows"]
                       if row["verdict"] == "-infinity"}
            else:
                neg = {tuple(int(x) for x in line.split()[:3])
                       for line in text.splitlines()[1:]
                       if line.split()[-1] == "-infinity"}
            want = {t for t in TRIPLETS if two_family(t)}
            return None if neg == want else "-infinity set is not the two-family set"
        triplet = tuple(int(x) for x in argv[argv.index("--triplet") + 1:][:3])
        if as_json:
            doc = json.loads(text)
            echo, verdict = tuple(doc["triplet"]), doc["verdict"]
        else:
            head, verdict = text.splitlines()[0].rsplit(": ", 1)
            echo = tuple(int(x) for x in head[len("triplet ("):-1].split(","))
        if echo != triplet:
            return f"report is for {echo}, asked for {triplet}"
        want = "-infinity" if two_family(triplet) else "not-covered"
        return None if verdict == want else f"verdict {verdict}, expected {want}"

    # -- library facts ---------------------------------------------------------

    def _lib_fact(self, job, result):
        name, args = job[1], job[2:]
        if name == "lift_consistency":
            return None if result is True else "lift_consistency is not True"
        if name == "find_isogeny_glue":
            from k3lat.finiteform import form_invariants
            from k3lat.lattice import discriminant_form
            expr, a_t, d_t = args
            if result is None:
                return "no isogeny glue found"
            _, M = result
            L = self._parse(expr)
            a, d, _ = form_invariants(discriminant_form(M))
            if (a, d) != (a_t, d_t):
                return f"glue gives (a, delta) = {(a, d)}, target {(a_t, d_t)}"
            if M.signature() != L.signature() or not M.is_even():
                return "glued lattice changed signature or is odd"
            return None
        return f"no oracle for {name}"


def describe(job, result):
    """Canonical text of a library call's result, for the golden digest."""
    if job[1] == "find_isogeny_glue" and result is not None:
        G, M = result
        text = json.dumps([[list(g) for g in G.generators], M.gram])
    else:
        text = repr(result)
    return hashlib.sha256(text.encode()).hexdigest()
