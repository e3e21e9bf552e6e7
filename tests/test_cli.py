"""Command-line interface: golden outputs, exit codes, JSON stability."""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tracemalloc

import pytest

from k3lat import cli
from k3lat.cli import main
from k3lat.errors import K3LatError
from k3lat.lattice import discriminant_form, parse_lattice
from k3lat.vectors import short_vector_arrays, short_vectors
from k3lat.weil import weil_word


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lat_info_golden_json(capsys):
    code, out, _ = run(capsys, "lat", "info", "<2>^2 + <-2>^8", "--json")
    assert code == 0
    assert out.strip() == ('{"rank":10,"signature":[2,8],"even":true,'
                           '"main_invariant":[2,8,10,1]}')


def test_geo_list_count_golden(capsys):
    code, out, _ = run(capsys, "geo", "list", "--count")
    assert code == 0
    assert out.strip() == "75"


def test_audit_kodaira_golden(capsys):
    code, out, _ = run(capsys, "audit", "kodaira", "--triplet", "17", "5", "1",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "-infinity"
    assert payload["k"] == 12
    assert payload["n"] == 3


def test_lat_info_text(capsys):
    code, out, _ = run(capsys, "lat", "info", "U + E8(2)")
    assert code == 0
    assert "(1, 9, 8, 0)" in out


def test_geo_list_json(capsys):
    code, out, _ = run(capsys, "geo", "list", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 75
    assert len(payload["entries"]) == 75
    assert payload["entries"][0]["triplet"] == [1, 1, 1]


def test_vec_short_json(capsys):
    code, out, _ = run(capsys, "vec", "short", "E8", "--bound", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 120


def fstring_rendering(vs, as_json):
    """The renderings `vec short` had before its format strings: an f-string
    per line, and json.dumps of the payload.  Kept as the byte oracle."""
    if as_json:
        payload = {"schema": 1, "count": len(vs),
                   "vectors": [{"v": list(v), "norm": n} for v, n in vs]}
        return json.dumps(payload, separators=(",", ":")) + "\n"
    return "".join(f"{n:>5}  {list(v)}\n" for v, n in vs) + f"{len(vs)} vectors up to sign\n"


def assert_same_text(out, want):
    """out == want, failing on the first difference in context, not on
    pytest's diff of two large strings."""
    if out != want:
        at = next((i for i, (a, b) in enumerate(zip(out, want)) if a != b), min(len(out), len(want)))
        window = slice(max(at - 40, 0), at + 40)
        assert (len(out), out[window]) == (len(want), want[window])


# the five vec short jobs of the lattice-audit benchmark come first
@pytest.mark.parametrize("expr, bound, as_json", [
    ("E8", 2, True), ("E8", 6, False),
    ("E8", 4, False), ("E8(2)", 8, True), ("<-2>^8", 6, False), ("<-2>^8", 6, True),
    ("<2>", 2, False), ("<2>", 2, True), ("<2>", 0, False), ("<2>", 0, True),
    ("E8", 0, False), ("E8", 0, True),
    # norms past int64, on an object array
    ("<1180591620717411303424>^2", 2361183241434822606848, False),
    ("<1180591620717411303424>^2", 2361183241434822606848, True),
])
def test_vec_short_bytes_against_fstring_rendering(capsys, expr, bound, as_json):
    vs = short_vectors(parse_lattice(expr), bound)
    argv = ["vec", "short", expr, "--bound", str(bound)] + ["--json"] * as_json
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert_same_text(out, fstring_rendering(vs, as_json))


def test_vec_short_norms_past_int64_are_objects():
    X, norms = short_vector_arrays(parse_lattice("<1180591620717411303424>^2"),
                                   2361183241434822606848)
    assert norms.dtype == object and X.dtype != object and len(X) == 4


def traced_main(argv):
    """(rc, stdout, tracemalloc peak in bytes) of one cli.main call, its output
    kept in a StringIO as the benchmark's worker keeps it."""
    sink = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, sink.getvalue(), peak


@pytest.mark.parametrize("as_json", [False, True])
def test_vec_short_cells_scale_with_distinct_values(monkeypatch, as_json):
    """On a skewed gram the coordinates reach 2 * 10^6 beside small ones: the
    bytes are the oracle's, and the cell tables hold the nine distinct values,
    where a table over their range would take megabytes."""
    from k3lat.lattice import Lattice

    N = 10 ** 6
    L = Lattice([[1, N], [N, N * N + 1]])  # norm (x + N y)^2 + y^2
    monkeypatch.setattr(cli, "parse_lattice", lambda expr: L)
    vs = short_vectors(L, 4)
    assert max(abs(x) for v, _ in vs for x in v) == 2 * N and len(vs) == 6
    argv = ["vec", "short", "skewed", "--bound", "4"] + ["--json"] * as_json
    traced_main(argv)  # the parser and numpy's first calls, out of the measure
    code, out, peak = traced_main(argv)
    assert code == 0
    assert_same_text(out, fstring_rendering(vs, as_json))
    assert peak < 200_000, peak  # one byte per value of the range: 2 MB


@pytest.mark.parametrize("as_json", [False, True])
def test_vec_short_peak_below_seven_outputs(as_json):
    """`vec short E8 --bound 22` (556,920 vectors, 18-20 MB of output) prints
    the oracle's bytes with a traced peak below 7x the output's size: no
    tuple or str per vector on the way (a tuple per vector took 7.4x for
    text and 9.1x for JSON)."""
    argv = ["vec", "short", "E8", "--bound", "22"] + ["--json"] * as_json
    traced_main(["vec", "short", "E8", "--bound", "2"] + ["--json"] * as_json)
    code, out, peak = traced_main(argv)
    assert code == 0
    assert peak < 7 * len(out), peak / len(out)
    assert_same_text(out, fstring_rendering(short_vectors(parse_lattice("E8"), 22), as_json))


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_vec_short_bound_at_most_zero(capsys, bound):
    code, out, err = run(capsys, "vec", "short", "E8", "--bound", bound)
    assert code == 0
    assert out == "0 vectors up to sign\n"
    assert err == ""


def test_vec_witness(capsys):
    code, out, _ = run(capsys, "vec", "witness", "U", "--norm", "-4",
                       "--box", "3", "--json")
    assert code == 0
    assert json.loads(out)["found"]


def test_vec_witness_none_found(capsys):
    code, out, err = run(capsys, "vec", "witness", "U", "--norm", "3", "--box", "2")
    assert (code, err) == (0, "")
    assert out == "no vector of norm 3 in the box [-2, 2]\n"


def test_qexp_eta_golden(capsys):
    code, out, _ = run(capsys, "qexp", "eta", "1^-8,2^8,4^-8",
                       "--prec", "2", "--json")
    assert code == 0
    terms = json.loads(out)["terms"]
    assert terms[0] == ["-1", "1"]
    assert terms[1] == ["0", "8"]
    assert terms[2] == ["1", "36"]


def test_qexp_psi(capsys):
    code, out, _ = run(capsys, "qexp", "psi", "7", "--prec", "1", "--json")
    assert code == 0
    terms = dict(json.loads(out)["terms"])
    assert terms["-2"] == "1"
    assert terms["0"] == "24"


def test_weil_check(capsys):
    code, out, _ = run(capsys, "weil", "check", "U(2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert all(payload["checks"].values())
    assert payload["sigma"] == 0


def test_weil_matrix(capsys):
    code, out, _ = run(capsys, "weil", "matrix", "<2>", "--word", "S,S")
    assert code == 0


@pytest.mark.parametrize("expr,word", [
    ("<2>", "S"), ("M4", "S,T,S"), ("M6", "T^-1,S"), ("M6", "S^-1"), ("U(2)^3", "S,T"),
])
def test_weil_matrix_against_per_entry_rendering(capsys, expr, word):
    q = discriminant_form(parse_lattice(expr))
    mat = weil_word(q, word.split(","))
    rows = [[str(mat.entry(i, j)) for j in range(mat.n)] for i in range(mat.n)]
    width = max(len(s) for row in rows for s in row)
    text = "".join("  ".join(s.rjust(width) for s in row) + "\n" for row in rows)
    code, out, _ = run(capsys, "weil", "matrix", expr, "--word", word)
    assert code == 0 and out == text
    payload = {"schema": 1, "n": mat.n, "entries": rows}
    code, out, _ = run(capsys, "weil", "matrix", expr, "--word", word, "--json")
    assert code == 0 and out == json.dumps(payload, separators=(",", ":")) + "\n"


def former_weil_matrix_rendering(mat, as_json):
    """What `weil matrix` printed before its byte table: a join of the padded
    names per row, and json.dumps of the payload.  Kept as the byte oracle."""
    names, index = mat.distinct_entries()
    index = index.tolist()
    if as_json:
        payload = {"schema": 1, "n": mat.n, "entries": [[names[k] for k in row] for row in index]}
        return json.dumps(payload, separators=(",", ":")) + "\n"
    width = max(map(len, names))
    padded = [s.rjust(width) for s in names]
    return "".join("  ".join([padded[k] for k in row]) + "\n" for row in index)


def catalog_forms(max_a):
    """name -> q for the even catalog lattices with a <= max_a."""
    from k3lat.geography import fixture_catalog

    forms = {}
    for fix in fixture_catalog():
        if fix.lattice.is_even():
            q = discriminant_form(fix.lattice)
            if q.a <= max_a:
                forms.setdefault(fix.name, q)
    return forms


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("word", ["S", "T", "S^-1", "T^-1", "T,S", "S,T,S"])
def test_weil_matrix_bytes_against_former_rendering(capsys, monkeypatch, word, as_json):
    """The byte table and the per-row JSON join print what the former
    renderer printed, for every catalog form with a <= 6 (a = 0 included),
    read through the CLI with the form looked up by its catalog name."""
    forms = catalog_forms(6)
    assert len(forms) >= 12 and {q.a for q in forms.values()} == set(range(7))
    monkeypatch.setattr(cli, "_weil_form", forms.__getitem__)
    for name, q in forms.items():
        code, out, err = run(capsys, "weil", "matrix", name, "--word", word, *["--json"] * as_json)
        want = former_weil_matrix_rendering(weil_word(q, word.split(",")), as_json)
        assert (code, err) == (0, ""), name
        assert out == want, name


@pytest.mark.parametrize("as_json", [False, True])
def test_weil_matrix_bytes_past_the_int64_key(capsys, monkeypatch, as_json):
    """Entries past 2^15 code a range past the counting limit, so they go
    through np.unique on the rows of layers, with a code range inside int64
    (scale 3^10) or past it (scale 3^25); the rendering is still that of the
    former renderer."""
    from k3lat.weil import CycMatrix

    q = discriminant_form(parse_lattice("M5"))
    small = weil_word(q, ["S", "T", "S^-1"])
    for scale in (3 ** 10, 3 ** 25):
        big = CycMatrix(small.comps * scale, small.denom_exp)
        assert big.max_abs >= 1 << 15
        monkeypatch.setattr(cli, "weil_word", lambda *args: big)
        code, out, err = run(capsys, "weil", "matrix", "M5", "--word", "S", *["--json"] * as_json)
        assert (code, err) == (0, "")
        assert out == former_weil_matrix_rendering(big, as_json), scale


class DigestOut:
    """A stdout that keeps only the sha256 of what is written to it."""
    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())


@pytest.mark.parametrize("as_json", [False, True])
def test_weil_matrix_rendering_peak(monkeypatch, as_json):
    """distinct_entries and the rendering of `weil matrix "E8(2)" --word S`
    (65,536 entries, 2 distinct, 0.46 MB of text) on a precomputed matrix
    peak under 1.5 MiB traced, with the former renderer's bytes: no sorted
    key and no transposed copy, and the text made a block of rows at a time
    (3.07 MiB with both, the text made whole)."""
    mat = weil_word(discriminant_form(parse_lattice("E8(2)")), ["S"])
    want = hashlib.sha256(former_weil_matrix_rendering(mat, as_json).encode()).hexdigest()
    monkeypatch.setattr(cli, "_weil_form", lambda expr: None)
    monkeypatch.setattr(cli, "weil_word", lambda q, word: mat)
    args = argparse.Namespace(expr="E8(2)", word="S", json=as_json)
    for traced in (False, True):  # the first call loads numpy's kernels, out of the measure
        sink = DigestOut()
        if traced:
            tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert cli._weil_matrix(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.digest.hexdigest() == want
    assert peak <= 1.5 * (1 << 20), peak / (1 << 20)


def test_audit_all_json(capsys):
    code, out, _ = run(capsys, "audit", "kodaira", "--all", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 75
    neg = [r for r in rows if r["verdict"] == "-infinity"]
    assert len(neg) == 21


def test_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "lat", "info", "<2> + ??")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("qexp", "eta", "0^1"),
    ("qexp", "eta", "x"),
    ("qexp", "psi", "-1"),
    ("weil", "matrix", "U(2)", "--word", "S,X"),
    ("qexp", "eta", "1^-8,2^8,4^-8", "--prec", "-3"),
    ("weil", "check", "U(2)^2 + E8(2)"),
    ("weil", "matrix", "U(2)^2 + E8(2)", "--word", "S"),
    ("vec", "witness", "LambdaK3", "--norm", "4", "--box", "2"),
    ("vec", "witness", "E8", "--norm", "-2", "--box", "0"),
    ("vec", "witness", "E8", "--norm", "-2", "--box", "-1"),
    ("lat", "info", "M0"),
    ("weil", "check", "U(2) + M0"),
    ("qexp", "eta", "1^-8,2^8,4^-8", "--prec", "100000000"),
    ("qexp", "eta", "1^-24", "--prec", "2001"),
    ("qexp", "theta", "integral", "--prec", "2001"),
    ("qexp", "psi", "7", "--prec", "1999"),
    ("vec", "short", "E8", "--bound", "100"),
    ("lat", "info", "<2>^100000"),
    ("lat", "info", "M100000"),
    ("qexp", "eta", "1^-48000"),
    ("qexp", "eta", "1^-1,100000^-23"),
    ("qexp", "psi", "1000000", "--prec", "1998"),
    ("qexp", "psi", "1000000000", "--prec", "1000"),
    ("vec", "witness", "U", "--norm", "3", "--box", "1000000000"),
    ("vec", "short", "E8", "--bound", "24"),
    ("vec", "short", "<2>", "--bound", str(10**39)),
])
def test_bad_input_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["geo", "list", "--bogus"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "audit", "kodaira", "--all", "--json")
    code2, out2, _ = run(capsys, "audit", "kodaira", "--all", "--json")
    assert out1 == out2


# In-process calls whose parses could leak into one another through a reused
# parser: defaults after explicit values, --json then text, the mutually
# exclusive group, usage errors, --help and unknown verbs.
REUSE_CALLS = [
    ["geo", "list", "--count"],
    ["lat", "info", "U + E8(2)", "--json"],
    ["lat", "info", "U + E8(2)"],
    ["audit", "kodaira", "--all"],
    ["audit", "kodaira", "--triplet", "17", "5", "1"],
    ["audit", "kodaira", "--all", "--triplet", "17", "5", "1"],
    ["audit", "kodaira"],
    ["audit", "kodaira", "--triplet", "13", "9", "1", "--json"],
    ["audit", "kodaira", "--triplet", "13", "9", "1"],
    ["vec", "witness", "U", "--norm", "-4", "--box", "1", "--json"],
    ["vec", "witness", "U", "--norm", "-4"],
    ["vec", "short", "E8", "--bound", "2"],
    ["vec", "short", "E8", "--bound", "x"],
    ["qexp", "eta", "1^-8,2^8,4^-8", "--prec", "4", "--json"],
    ["qexp", "eta", "1^-8,2^8,4^-8"],
    ["qexp", "theta", "shifted", "--prec", "6"],
    ["qexp", "theta", "bogus"],
    ["qexp", "psi", "7", "--prec", "3"],
    ["weil", "check", "U(2)", "--json"],
    ["weil", "check", "U(2)"],
    ["weil", "matrix", "<2>", "--word", "S,T"],
    ["weil", "matrix", "<2>"],
    ["weil", "--help"],
    ["--help"],
    ["frobnicate"],
    ["lat", "frob"],
    ["geo", "list", "--bogus"],
    ["lat", "info", "<2> + ??"],
    [],
]


def _call(argv, entry=main):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = entry(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_main_reuses_one_parser(monkeypatch):
    """main() keeps its parsers for the process; every call, run twice in one
    process, prints what freshly built parsers print."""
    reused = [_call(argv) for argv in REUSE_CALLS * 2]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        m.setattr(cli, "_leaf", cli._leaf.__wrapped__)
        fresh = [_call(argv) for argv in REUSE_CALLS * 2]
    for argv, got, want in zip(REUSE_CALLS * 2, reused, fresh):
        assert got == want, argv

    inits = []
    original = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        inits.append(type(self))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser()
    one_build = len(inits)
    assert one_build > 1
    del inits[:]
    for _ in range(20):
        _call(["geo", "list", "--count"])
    assert len(inits) <= one_build


def _tree_main(argv):
    """main() with the whole tree parsing every call, as it did before each
    command got a parser of its own."""
    args = cli._parser().parse_args(argv)
    try:
        return args.func(args)
    except K3LatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


LEAVES = [[verb, subverb] for verb, (_, subverbs) in cli._COMMANDS.items()
          for subverb in subverbs]

# Argument lists where a command's parser alone could part from the tree: help
# at each level, "--" around the verb and subverb, abbreviations, repeated and
# unknown options, bad values, missing options and unknown commands.
DIFF_CALLS = REUSE_CALLS + [
    *([*leaf, flag] for leaf in LEAVES for flag in ("-h", "--help")),
    *([verb, flag] for verb in cli._COMMANDS for flag in ("-h", "--help")),
    ["-h"],
    ["--", "qexp", "psi", "3"],
    ["qexp", "--", "psi", "3"],
    ["qexp", "psi", "--", "3"],
    ["qexp", "psi", "3", "--"],
    ["qexp", "psi", "--", "3", "--prec", "2"],
    ["lat", "info", "--", "--json"],
    ["qexp", "psi", "3", "--pre", "4"],
    ["lat", "info", "E8", "--js"],
    ["audit", "kodaira", "--tri", "17", "5", "1"],
    ["qexp", "psi", "3", "--prec=4"],
    ["qexp", "psi", "3", "--he"],
    ["qexp", "psi", "3", "--prec", "4", "--prec", "2"],
    ["geo", "list", "--json", "--json", "--count"],
    ["audit", "kodaira", "--triplet", "17", "5", "1", "--triplet", "13", "9", "1"],
    ["qexp", "psi", "3", "--bogus"],
    ["qexp", "psi", "3", "--bogus=1"],
    ["lat", "info", "E8", "extra"],
    ["geo", "list", "-x", "--count"],
    ["qexp", "psi", "3", "lat", "info"],
    ["qexp", "psi", "x"],
    ["qexp", "psi", "3", "--prec", "4.5"],
    ["vec", "witness", "U", "--norm", "x"],
    ["audit", "kodaira", "--triplet", "17", "5"],
    ["audit", "kodaira", "--triplet", "17", "x", "1"],
    ["vec", "short", "E8"],
    ["vec", "witness", "U"],
    ["audit", "kodaira", "--json"],
    ["qexp", "psi"],
    ["lat", "info"],
    ["audit", "kodaira", "--triplet", "17", "5", "1", "--all"],
    ["vec", "witness", "U", "--norm", "-4", "--box", "-1"],
    ["qexp", "psi", "-1"],
    ["qexp", "psi", "-1", "--prec", "3"],
    ["lat", "frob", "E8"],
    ["qexp", "ps", "3"],
    ["lat"],
    ["--json", "lat", "info", "E8"],
    ["lat", "--json", "info", "E8"],
]


def test_main_matches_the_tree_on_every_call():
    """Each call prints what the whole tree prints, with the same exit code:
    stdout, stderr and usage text are the same bytes."""
    got = [_call(argv) for argv in DIFF_CALLS * 2]
    want = [_call(argv, _tree_main) for argv in DIFF_CALLS * 2]
    for argv, g, w in zip(DIFF_CALLS * 2, got, want):
        assert g == w, argv
