"""Start-up cost: ``import k3lat.cli`` and the numpy-free verbs never load
numpy; the verbs that use it load it on first use, and the stand-in ``np``
of each module is then the numpy module itself. A call builds only its own
command's parser. Each check runs in a fresh interpreter, since this one has
numpy loaded and parsers built already."""

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


def python(*args):
    """A new interpreter with this ``k3lat`` on its path, run to its end."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def fresh(argvs, epilogue="print(json.dumps([codes, 'numpy' in sys.modules]))"):
    """Run ``argvs`` through ``cli.main`` in a new interpreter; the parsed
    JSON the epilogue prints."""
    proc = python("-c", PRELUDE + epilogue, json.dumps(argvs))
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


COUNT_PARSERS = """
import argparse
inits = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: inits.append(1) or init(self, *a, **k)
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            k3lat.cli.main(argv)
        except SystemExit:
            pass
print(json.dumps(len(inits)))
"""


@pytest.mark.parametrize("argvs, parsers", [
    ([["qexp", "psi", "3"]], 1),
    ([["lat", "info", "E8"], ["geo", "list"]], 2),
    ([["qexp", "psi", "3"], ["qexp", "psi", "4", "--prec", "2"]], 1),
    ([["qexp", "psi", "x"]], 1),
    ([["frobnicate"]], 17),
    ([["qexp", "psi", "3", "--bogus"]], 18),
])
def test_a_call_builds_its_own_command_parser_only(argvs, parsers):
    """A well-formed call builds one parser, its command's, once per process;
    the 17-parser tree (1 top, 6 verbs, 10 commands) is built only for what a
    command's parser cannot take alone, such as an unknown verb or a leftover
    argument. A bad value is the command's own usage error."""
    assert fresh([], COUNT_PARSERS.format(argvs=argvs)) == parsers


def test_python_m_k3lat():
    proc = python("-m", "k3lat", "geo", "list", "--count")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "75\n", "")
