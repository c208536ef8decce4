"""Work counts: the calls of ``generators._invariants`` a computation makes.

Every per-generator read passes through ``_invariants``, so its call count is
a unit of work that is exact and the same on every machine.  These tests
bound it by the size of the output, and check that it does not grow with the
depth of a window end or of the action floor.
"""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import rabinowitz
from conftest import synthetic_params
from rabinowitz import chains, differentials, generators, vanishing
from rabinowitz.generators import enumerate_generators
from rabinowitz.randomized import random_admissible_table, random_boundary
from rabinowitz.vanishing import _certified_bound, find_primitive

BINDINGS = (generators, chains, differentials, vanishing)


@pytest.fixture
def reads(monkeypatch):
    """``reads(f, *args)``: f's result and the ``_invariants`` calls it made."""
    real = generators._invariants
    calls = 0

    def counted(params, g):
        nonlocal calls
        calls += 1
        return real(params, g)

    for module in BINDINGS:
        monkeypatch.setattr(module, "_invariants", counted)

    def run(f, *args):
        nonlocal calls
        calls = 0
        return f(*args), calls

    return run


def test_the_counted_bindings_are_all_of_them():
    modules = [importlib.import_module(f"rabinowitz.{m.name}")
               for m in pkgutil.iter_modules(rabinowitz.__path__)]
    assert {m for m in modules if hasattr(m, "_invariants")} == set(BINDINGS)


def test_enumeration_reads_track_the_generators_returned(reads, c1_params):
    # One read per sphere-class-0 start point (one per critical point in a
    # degree) and one per generator returned, in the canonical sort; the
    # lower level end moves from -100 to -10**6 without changing either.
    found = {lo: reads(enumerate_generators, c1_params, 3, Fraction(-2), lo, 40)
             for lo in (-100, -10**4, -10**6)}
    (gens, calls), = set(found.values())
    assert len(gens) == 22
    assert calls <= len(gens) + len(c1_params.morse)


# wide_primitive's base and table: c = 1, so the boundaries spread over about
# 100 sphere classes.  Each level bound a cold memo certifies enumerates an
# empty window, reading one start point per critical point (3 here) for each
# of the two degrees.
WIDE = synthetic_params(3, 2, 1, 2, Fraction(3, 4))
CERTIFICATE_READS = 6


@pytest.mark.parametrize("size", [25, 100, 400])
def test_induction_reads_track_xi_and_theta(reads, size):
    d = random_admissible_table(WIDE, 7, (3, 5, 7), Fraction(-20), -12, 12, size=4)
    xi, _ = random_boundary(WIDE, d, 11, 3, Fraction(-120), -200, 200, size=size)
    counts = set()
    for floor in (Fraction(-120), Fraction(-10**6)):
        cycle = xi._replace(floor=floor)
        find_primitive(d, cycle)  # certifies the level bounds
        result, warm = reads(find_primitive, d, cycle)
        _certified_bound.cache_clear()
        _, cold = reads(find_primitive, d, cycle)
        assert result.ok and not xi.is_zero
        assert warm <= len(xi.terms) + len(result.theta.terms)
        assert cold - warm == CERTIFICATE_READS
        counts.add((warm, len(result.theta.terms)))
    assert len(counts) == 1
