"""Helpers shared by several test modules: q and b of a finite quadratic
form from their defining sums, the catalog's even forms, and read-only
access to the benchmark harness under perfbench/."""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

from k3lat.geography import fixture_catalog
from k3lat.lattice import discriminant_form

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def oracle_q(q, x):
    """q(x) = sum_i x_i q(e_i) + sum_{i<j} x_i x_j 2b(e_i, e_j) mod 2."""
    ones = [i for i in range(q.a) if x[i]]
    total = sum((q.q_gen[i] for i in ones), Fraction(0))
    total += sum((2 * q.b_mat[i][j] for i in ones for j in ones if i < j), Fraction(0))
    return total % 2


def oracle_b(q, x, y):
    """b(x, y) = sum_{i,j} x_i y_j b(e_i, e_j) mod 1."""
    return sum((q.b_mat[i][j] for i in range(q.a) if x[i]
                for j in range(q.a) if y[j]), Fraction(0)) % 1


def catalog_forms(max_a):
    """(name, q) for each even catalog lattice with a <= max_a, a name once."""
    seen = set()
    for fix in fixture_catalog():
        if fix.lattice.is_even() and fix.name not in seen:
            q = discriminant_form(fix.lattice)
            if q.a <= max_a:
                seen.add(fix.name)
                yield fix.name, q


def perfbench(name):
    """A module of the benchmark harness, imported from perfbench/ as its own
    tests import it (that directory first on sys.path); nothing there is written."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module(name)
