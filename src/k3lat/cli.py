"""Command-line front end: lattice inspection, the triplet geography,
vector searches, q-expansions, Weil-representation checks, and the Kodaira
audit, with stable JSON output for scripting.
"""

import argparse
import functools
import json
import sys

from ._lazy import LazyNumpy
from .errors import K3LatError, InvalidInput
from .lattice import parse_lattice, discriminant_form, main_invariant
from .finiteform import milgram_signature
from .geography import geography_table, k3_triplet_realizable
from .vectors import short_vector_arrays, witness_vector
from .qseries import DEFAULT_PREC, eta_quotient, theta_series, psi_m
from .weil import weil_word, one_element, relation_checks
from .audit import kodaira_report

np = LazyNumpy(globals())

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit_json(payload):
    print(json.dumps(payload, separators=(",", ":")))


def _big(n):
    """Determinants and group orders may exceed 64 bits; keep them lossless."""
    return str(n)


# ---------------------------------------------------------------------------
# verb handlers

def _lat_info(args):
    L = parse_lattice(args.expr)
    sig = L.signature()
    out = {
        "rank": L.rank,
        "signature": list(sig),
        "even": L.is_even(),
    }
    if args.json:
        try:
            inv = main_invariant(L)
            out["main_invariant"] = list(inv.as_tuple())
        except K3LatError:
            out["main_invariant"] = None
        _emit_json(out)
        return 0
    print(f"rank       {L.rank}")
    print(f"signature  ({sig[0]}, {sig[1]})")
    print(f"det        {_big(L.det())}")
    print(f"even       {L.is_even()}")
    try:
        inv = main_invariant(L)
        print(f"invariant  (r+, r-, a, delta) = {inv.as_tuple()}")
    except K3LatError as exc:
        print(f"invariant  n/a ({exc})")
    return 0


def _geo_list(args):
    table = geography_table()
    if args.count:
        print(len(table))
        return 0
    if args.json:
        _emit_json({
            "schema": SCHEMA,
            "count": len(table),
            "entries": [
                {
                    "triplet": list(e.triplet),
                    "g": e.g,
                    "k": e.k,
                    "named": e.named,
                }
                for e in table
            ],
        })
        return 0
    print(f"{'r':>3} {'a':>3} {'d':>2} {'g':>3} {'k':>3}  named")
    for e in table:
        r, a, d = e.triplet
        print(f"{r:>3} {a:>3} {d:>2} {e.g:>3} {e.k:>3}  {'*' if e.named else ''}".rstrip())
    return 0


def _cells(fmt, values):
    """A table of byte cells, fmt % v for each v, NUL-padded to the widest
    (a numpy bytes array): take() from it cuts text with one format per
    distinct value, not one per item."""
    return np.array([fmt % v for v in values], "S")


def _distinct(a):
    """The sorted distinct values of an array.  A stable sort (radix or
    merge) finds them where np.unique's hash table took 0.2 s on the 632,455
    distinct values of `vec short "<2>" --bound 800000000000`."""
    a = np.sort(a, axis=None, kind="stable")
    first = np.ones(a.shape, bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def _vec_short(args):
    L = parse_lattice(args.expr)
    X, norms = short_vector_arrays(L, args.bound)
    # a record per vector: a head cell, n coordinate cells and a tail cell, each
    # cut from a table of one cell per distinct value (so a table grows with the
    # values' count, not their range); the NUL padding is dropped at the end
    sep = "," if args.json else ", "
    xs, ns = _distinct(X), _distinct(norms)
    coords = [("%d" + sep * (j < L.rank - 1), X[:, j], xs) for j in range(L.rank)]
    if args.json:
        fields = [('{"v":[', None, None), *coords, ('],"norm":%d},', norms, ns)]
    else:
        fields = [("%5d  [", norms, ns), *coords, ("]\n", None, None)]
    tables = {f: v for f, _, v in fields}  # one table per format; n - 1 columns share one
    tables = {f: _cells(f, [()] if v is None else v.tolist()) for f, v in tables.items()}
    out = np.empty(len(X), [(str(i), tables[f].dtype) for i, (f, _, _) in enumerate(fields)])
    for i, (f, column, values) in enumerate(fields):
        if column is None:
            out[str(i)] = tables[f][0]
        else:  # "clip": no bounds check, as searchsorted finds every value
            np.take(tables[f], np.searchsorted(values, column), out=out[str(i)], mode="clip")
    body = out.tobytes().replace(b"\0", b"").decode()
    if args.json:  # the bytes of _emit_json; the last vector's comma dropped
        sys.stdout.write(f'{{"schema":{SCHEMA},"count":{len(X)},"vectors":[')
        sys.stdout.write(body[:-1])  # apart: a joined copy raised the E8 --bound 22 peak 16 MB
        sys.stdout.write("]}\n")
        return 0
    sys.stdout.write(body)
    print(f"{len(X)} vectors up to sign")
    return 0


def _vec_witness(args):
    L = parse_lattice(args.expr)
    v = witness_vector(L, args.norm, args.box)
    if args.json:
        _emit_json({
            "schema": SCHEMA,
            "found": v is not None,
            "vector": list(v) if v else None,
        })
        return 0
    if v is None:
        print(f"no vector of norm {args.norm} in the box [-{args.box}, {args.box}]")
    else:
        print(list(v))
    return 0


def _emit_series(args, f):
    if args.json:
        _emit_json({"schema": SCHEMA, "prec": str(f.prec),
                    "terms": [[str(e), str(c)] for e, c in f.terms()]})
        return 0
    for e, c in f.terms():
        print(f"q^{str(e):>8}  {c}")
    print(f"precision {f.prec}")
    return 0


def _qexp_eta(args):
    spec = []
    for part in args.spec.split(","):
        s, _, m = part.partition("^")
        try:
            spec.append((int(s), int(m or 1)))
        except ValueError:
            raise InvalidInput(f"eta factor {part!r} is not of the form s or s^m") from None
    return _emit_series(args, eta_quotient(spec, args.prec))


def _qexp_theta(args):
    return _emit_series(args, theta_series(args.kind, args.prec))


def _qexp_psi(args):
    return _emit_series(args, psi_m(args.m, args.prec))


def _weil_form(expr):
    q = discriminant_form(parse_lattice(expr))
    return q, milgram_signature(q)


def _weil_check(args):
    q, sigma = _weil_form(args.expr)
    one = one_element(q)
    checks = relation_checks(q, sigma, one)
    a, delta = q.a, q.delta()
    payload = {"schema": SCHEMA, "a": a, "delta": delta, "sigma": sigma,
               "one_element": list(one), "checks": checks}
    if args.json:
        _emit_json(payload)
    else:
        print(f"form invariants (a, delta, sigma) = ({a}, {delta}, {sigma})")
        print(f"1_L = {list(one)}")
        for name, ok in checks.items():
            print(f"{name:28s} {'ok' if ok else 'FAILED'}")
    return 0 if all(checks.values()) else 2


def _weil_matrix(args):
    q, sigma = _weil_form(args.expr)
    mat = weil_word(q, sigma, args.word.split(","))
    names, index = mat.distinct_entries()
    if args.json:  # the bytes of _emit_json, each distinct entry dumped once
        rows = np.array([json.dumps(s) for s in names], dtype=object).take(index).tolist()
        print(f'{{"schema":{SCHEMA},"n":{mat.n},"entries":['
              + ",".join(["[" + ",".join(row) + "]" for row in rows]) + "]}")
        return 0
    # a table of padded names, each with a two-space gap; a row's last gap is its newline
    table = _cells(f"%{max(map(len, names))}s  ", names)
    text = table.take(index).view(np.uint8).reshape(len(index), -1)[:, :-1]
    text[:, -1] = ord("\n")
    sys.stdout.write(text.tobytes().decode())
    return 0


def _audit_row_json(row):
    out = {"triplet": list(row["triplet"]), "verdict": row["verdict"]}
    a4 = row["cases"].get("A.4")
    a3 = row["cases"].get("A.3")
    head = a4 or a3
    if head:
        out["k"] = head["k"]
        out["n"] = head["n"]
    for tag, rep in row["cases"].items():
        case = {k: v for k, v in rep.items()
                if k in ("g", "nu", "k", "n", "m", "margin", "xi_weight",
                         "verdict", "special_flag", "witness")}
        ledger = rep.get("ledger")
        if ledger is not None:
            case["ledger"] = {"nu": ledger.nu, "k": ledger.k, "n": ledger.n,
                              "entries": [[t, m] for t, m in ledger.entries]}
        out.setdefault("cases", {})[tag] = case
    return out


def _audit_kodaira(args):
    if args.all:
        rows = [kodaira_report(*e.triplet) for e in geography_table()]
        if args.json:
            _emit_json({"schema": SCHEMA,
                        "rows": [_audit_row_json(row) for row in rows]})
            return 0
        print(f"{'r':>3} {'a':>3} {'d':>2}  {'case':<8} {'k':>4} {'n':>3}  verdict")
        for row in rows:
            r, a, d = row["triplet"]
            if not row["cases"]:
                print(f"{r:>3} {a:>3} {d:>2}  {'-':<8} {'':>4} {'':>3}  not-covered")
            for tag, rep in row["cases"].items():
                print(f"{r:>3} {a:>3} {d:>2}  {tag:<8} {rep['k']:>4} "
                      f"{rep['n']:>3}  {rep['verdict']}")
        return 0
    r, a, d = args.triplet
    row = kodaira_report(r, a, d)
    if args.json:
        _emit_json(_audit_row_json(row))
        return 0
    print(f"triplet ({r}, {a}, {d}): {row['verdict']}")
    for tag, rep in row["cases"].items():
        bits = [f"k = {rep['k']}", f"n = {rep['n']}"]
        if "nu" in rep:
            bits.append(f"nu = {rep['nu']}")
        if "m" in rep:
            bits.append(f"m = {rep['m']}")
        if "xi_weight" in rep:
            bits.append(f"Xi weight = {rep['xi_weight']}")
        print(f"  case {tag}: {', '.join(bits)} -> {rep['verdict']}")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    p = _Parser(prog="k3lat", description="2-elementary K3 lattice toolkit")
    sub = p.add_subparsers(dest="verb", required=True)

    lat = sub.add_parser("lat", help="lattice inspection").add_subparsers(
        dest="subverb", required=True)
    info = lat.add_parser("info", help="rank, signature, main invariant")
    info.add_argument("expr")
    info.add_argument("--json", action="store_true")
    info.set_defaults(func=_lat_info)

    geo = sub.add_parser("geo", help="triplet geography").add_subparsers(
        dest="subverb", required=True)
    glist = geo.add_parser("list", help="all realizable triplets")
    glist.add_argument("--count", action="store_true")
    glist.add_argument("--json", action="store_true")
    glist.set_defaults(func=_geo_list)

    vec = sub.add_parser("vec", help="vector searches").add_subparsers(
        dest="subverb", required=True)
    vshort = vec.add_parser("short", help="short vectors of a definite lattice")
    vshort.add_argument("expr")
    vshort.add_argument("--bound", type=int, required=True)
    vshort.add_argument("--json", action="store_true")
    vshort.set_defaults(func=_vec_short)
    vwit = vec.add_parser("witness", help="bounded search for a given norm")
    vwit.add_argument("expr")
    vwit.add_argument("--norm", type=int, required=True)
    vwit.add_argument("--box", type=int, default=3)
    vwit.add_argument("--json", action="store_true")
    vwit.set_defaults(func=_vec_witness)

    qexp = sub.add_parser("qexp", help="q-expansions").add_subparsers(
        dest="subverb", required=True)
    qeta = qexp.add_parser("eta", help="eta quotient, e.g. 1^-8,2^8,4^-8")
    qeta.add_argument("spec")
    qeta.add_argument("--prec", type=int, default=DEFAULT_PREC)
    qeta.add_argument("--json", action="store_true")
    qeta.set_defaults(func=_qexp_eta)
    qth = qexp.add_parser("theta", help="theta series of <2>")
    qth.add_argument("kind", choices=["integral", "shifted"])
    qth.add_argument("--prec", type=int, default=DEFAULT_PREC)
    qth.add_argument("--json", action="store_true")
    qth.set_defaults(func=_qexp_theta)
    qpsi = qexp.add_parser("psi", help="the psi_m combination")
    qpsi.add_argument("m", type=int)
    qpsi.add_argument("--prec", type=int, default=DEFAULT_PREC)
    qpsi.add_argument("--json", action="store_true")
    qpsi.set_defaults(func=_qexp_psi)

    weil = sub.add_parser("weil", help="Weil representation").add_subparsers(
        dest="subverb", required=True)
    wchk = weil.add_parser("check", help="relation and coset checks")
    wchk.add_argument("expr")
    wchk.add_argument("--json", action="store_true")
    wchk.set_defaults(func=_weil_check)
    wmat = weil.add_parser("matrix", help="matrix of a word over S, T")
    wmat.add_argument("expr")
    wmat.add_argument("--word", required=True,
                      help="comma-separated tokens: S, T, S^-1, T^-1")
    wmat.add_argument("--json", action="store_true")
    wmat.set_defaults(func=_weil_matrix)

    audit = sub.add_parser("audit", help="Kodaira audit").add_subparsers(
        dest="subverb", required=True)
    kod = audit.add_parser("kodaira", help="Gritsenko-criterion report")
    group = kod.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--triplet", nargs=3, type=int, metavar=("R", "A", "D"))
    kod.add_argument("--json", action="store_true")
    kod.set_defaults(func=_audit_kodaira)

    return p


# argparse keeps no state between parse_args calls (set_defaults values are
# copied into each new Namespace, and usage errors and --help look up
# sys.stdout/sys.stderr when they print), so one parser serves every main()
# call in a process.
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except K3LatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
