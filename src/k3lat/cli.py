"""Command-line front end: lattice inspection, the triplet geography,
vector searches, q-expansions, Weil-representation checks, and the Kodaira
audit, with stable JSON output for scripting.
"""

import argparse
import functools
import json
import os
import sys

from ._lazy import LazyNumpy
from .errors import K3LatError, InvalidInput
from .lattice import parse_lattice, discriminant_form, main_invariant
from .geography import geography_table, k3_triplet_realizable
from .vectors import short_vector_arrays, witness_vector
from .qseries import DEFAULT_PREC, eta_quotient, theta_series, psi_m
from .weil import weil_action, weil_word, one_element, relation_checks
from .audit import kodaira_report

np = LazyNumpy(globals())

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit_json(payload):
    print(json.dumps(payload, separators=(",", ":")))


# ---------------------------------------------------------------------------
# verb handlers

def _lat_info(args):
    L = parse_lattice(args.expr)
    sig = L.signature()
    try:
        t = main_invariant(L).as_tuple()
        inv, shown = list(t), f"(r+, r-, a, delta) = {t}"
    except K3LatError as exc:
        inv, shown = None, f"n/a ({exc})"
    if args.json:
        _emit_json({"rank": L.rank, "signature": list(sig), "even": L.is_even(),
                    "main_invariant": inv})
        return 0
    print(f"rank       {L.rank}")
    print(f"signature  ({sig[0]}, {sig[1]})")
    print(f"det        {L.det()}")
    print(f"even       {L.is_even()}")
    print(f"invariant  {shown}")
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
    return discriminant_form(parse_lattice(expr))


def _weil_check(args):
    q = _weil_form(args.expr)
    act = weil_action(q)  # relation_checks shares it, so the Gauss sum runs once
    one = one_element(q)
    checks = relation_checks(q, one)
    a, delta, sigma = q.a, q.delta(), act.sigma
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


def _row_blocks(index, cell):
    """index in blocks of whole rows, about 64 KiB of output each at cell bytes an entry."""
    step = max(1, (1 << 16) // (cell * index.shape[1]))
    return (index[lo:lo + step] for lo in range(0, len(index), step))


def _weil_matrix(args):
    q = _weil_form(args.expr)
    # the matrix is dropped once read, and its text made a block of rows at a time
    names, index = weil_word(q, args.word.split(",")).distinct_entries()
    if args.json:  # the bytes of _emit_json, each distinct entry dumped once
        cells = np.array([json.dumps(s) for s in names], dtype=object)
        sys.stdout.write(f'{{"schema":{SCHEMA},"n":{len(index)},"entries":[')
        for k, block in enumerate(_row_blocks(index, max(map(len, cells)) + 1)):
            rows = cells.take(block).tolist()
            sys.stdout.write("," * (k > 0) + ",".join(["[" + ",".join(row) + "]" for row in rows]))
        sys.stdout.write("]}\n")
        return 0
    # a table of padded names, each with a two-space gap; a row's last gap is its newline
    table = _cells(f"%{max(map(len, names))}s  ", names)
    for block in _row_blocks(index, table.itemsize):
        text = table.take(block).view(np.uint8).reshape(len(block), -1)[:, :-1]
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
# The commands as data: verb -> (help, {subverb: (help, handler, specs)}). A
# spec is (names, keywords) for add_argument, or (_ONE_OF, specs) for a
# required mutually exclusive group.

_ONE_OF = object()
_FLAG = {"action": "store_true"}
_JSON = (("--json",), _FLAG)
_PREC = (("--prec",), {"type": int, "default": DEFAULT_PREC})

_COMMANDS = {
    "lat": ("lattice inspection", {
        "info": ("rank, signature, main invariant", _lat_info, [(("expr",), {}), _JSON]),
    }),
    "geo": ("triplet geography", {
        "list": ("all realizable triplets", _geo_list, [(("--count",), _FLAG), _JSON]),
    }),
    "vec": ("vector searches", {
        "short": ("short vectors of a definite lattice", _vec_short, [
            (("expr",), {}), (("--bound",), {"type": int, "required": True}), _JSON]),
        "witness": ("bounded search for a given norm", _vec_witness, [
            (("expr",), {}), (("--norm",), {"type": int, "required": True}),
            (("--box",), {"type": int, "default": 3}), _JSON]),
    }),
    "qexp": ("q-expansions", {
        "eta": ("eta quotient, e.g. 1^-8,2^8,4^-8", _qexp_eta, [(("spec",), {}), _PREC, _JSON]),
        "theta": ("theta series of <2>", _qexp_theta, [
            (("kind",), {"choices": ["integral", "shifted"]}), _PREC, _JSON]),
        "psi": ("the psi_m combination", _qexp_psi, [(("m",), {"type": int}), _PREC, _JSON]),
    }),
    "weil": ("Weil representation", {
        "check": ("relation and coset checks", _weil_check, [(("expr",), {}), _JSON]),
        "matrix": ("matrix of a word over S, T", _weil_matrix, [
            (("expr",), {}), (("--word",), {
                "required": True, "help": "comma-separated tokens: S, T, S^-1, T^-1"}), _JSON]),
    }),
    "audit": ("Kodaira audit", {
        "kodaira": ("Gritsenko-criterion report", _audit_kodaira, [
            (_ONE_OF, [(("--all",), _FLAG), (("--triplet",), {
                "nargs": 3, "type": int, "metavar": ("R", "A", "D")})]),
            _JSON]),
    }),
}


def _add(parser, specs):
    for names, keywords in specs:
        if names is _ONE_OF:
            _add(parser.add_mutually_exclusive_group(required=True), keywords)
        else:
            parser.add_argument(*names, **keywords)
    return parser


def build_parser():
    p = _Parser(prog="k3lat", description="2-elementary K3 lattice toolkit")
    sub = p.add_subparsers(dest="verb", required=True)
    for verb, (help_, commands) in _COMMANDS.items():
        leaves = sub.add_parser(verb, help=help_).add_subparsers(dest="subverb", required=True)
        for subverb, (help_, func, specs) in commands.items():
            _add(leaves.add_parser(subverb, help=help_), specs).set_defaults(func=func)
    return p


# argparse keeps no state between parse_args calls (set_defaults values are
# copied into each new Namespace, and usage errors and --help look up
# sys.stdout/sys.stderr when they print), so one parser serves every main()
# call in a process: one per command, built on its first call, and the tree,
# built only for what no command's parser takes alone.
_parser = functools.cache(build_parser)


@functools.cache
def _leaf(verb, subverb):
    """One command's parser, standalone. Its prog is the one the tree gives
    it, so its usage, help and error text are the tree's bytes."""
    _, func, specs = _COMMANDS[verb][1][subverb]
    leaf = _add(_Parser(prog=f"k3lat {verb} {subverb}"), specs)
    leaf.set_defaults(func=func)
    return leaf


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # The tree hands a command's parser everything after the verb and subverb,
    # so that parser alone parses a call that starts with them. Leftovers go
    # to the tree, as argparse reports them from the top parser, with its usage.
    args = extra = None
    if len(argv) > 1 and argv[1] in _COMMANDS.get(argv[0], ("", {}))[1]:
        args, extra = _leaf(argv[0], argv[1]).parse_known_args(argv[2:])
    if args is None or extra:
        args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone before a buffered tail shows here, not at exit
        return code
    except K3LatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout, as `k3lat geo list | head -1` does
        # what is left of it goes to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
