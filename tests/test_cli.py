"""Command-line interface: golden outputs, exit codes, JSON stability."""

import json

import pytest

from k3lat.cli import main


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


def test_vec_witness(capsys):
    code, out, _ = run(capsys, "vec", "witness", "U", "--norm", "-4",
                       "--box", "3", "--json")
    assert code == 0
    assert json.loads(out)["found"]


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
