"""Start-up cost: ``import k3lat.cli`` and the numpy-free verbs never load
numpy; the verbs that use it load it on first use, and the stand-in ``np``
of each module is then the numpy module itself. Each check runs in a fresh
interpreter, since this one has numpy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import k3lat

SRC = str(Path(k3lat.__file__).resolve().parent.parent)

PRELUDE = """\
import contextlib, io, json, sys
import k3lat, k3lat.cli
k3lat.cli.build_parser()
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(k3lat.cli.main(argv))
"""


def fresh(argvs, epilogue="print(json.dumps([codes, 'numpy' in sys.modules]))"):
    """Run ``argvs`` through ``cli.main`` in a new interpreter; the parsed
    JSON the epilogue prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + epilogue, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_and_parser_leave_numpy_out():
    assert fresh([]) == [[], False]


@pytest.mark.parametrize("argv", [
    ["lat", "info", "E8"],
    ["geo", "list"],
    ["qexp", "psi", "3"],
    ["audit", "kodaira", "--all"],
])
def test_numpy_free_verbs_leave_numpy_out(argv):
    assert fresh([argv]) == [[0], False]


@pytest.mark.parametrize("argv", [
    ["vec", "short", "E8", "--bound", "2"],
    ["weil", "check", "<2>"],
])
def test_numpy_verbs_load_numpy(argv):
    assert fresh([argv]) == [[0], True]


def test_stand_ins_rebind_to_numpy():
    """After first use each module's ``np`` is numpy itself, so a lookup
    costs a plain global read from then on."""
    rebound = fresh([["vec", "short", "E8", "--bound", "2"], ["weil", "check", "<2>"]],
                    "import numpy\nprint(json.dumps([codes, [m.np is numpy for m in "
                    "(k3lat.cli, k3lat.vectors, k3lat.weil)]]))")
    assert rebound == [[0, 0], [True, True, True]]
