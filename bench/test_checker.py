"""Tests of the independent checker against values worked out by hand.

Run with ``python3 -m pytest bench/test_checker.py``.
"""

from fractions import Fraction as F
from pathlib import Path

import pytest

import checker as ck

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scenario(name: str) -> ck.Scenario:
    return ck.read_scenario((SCENARIOS / f"{name}.scn").read_text())


@pytest.fixture(scope="module")
def cp1():
    return scenario("cp1")


def test_read_cp1(cp1):
    b = cp1.base
    assert (b.dim, b.tau, b.nu, b.c) == (2, F(1, 2), 1, 2)
    assert b.crit == {"q0": (0, F(1, 10)), "q2": (2, F(1, 5))}
    assert cp1.entries[0] == (2, ("q0", 1, 0, "-"), ("q2", 1, 0, "+"))
    assert cp1.cycles["xi0"] == (3, F(-1), {("q0", 0, 0, "+")})
    assert cp1.seed == 7


@pytest.mark.parametrize(
    "g, act, mu, lv",
    [
        # tau*n + nu*a - (tau+1)*f:  0 + 0 - 3/2 * 1/10
        (("q0", 0, 0, "+"), F(-3, 20), 3, 1),
        (("q0", 1, 0, "-"), F(7, 20), 5, 1),
        (("q2", 1, 0, "+"), F(1, 5), 3, -1),
        # sphere -1: action drops by nu, doubled grading by 4*(c-1)*nu, level by 2*c*nu
        (("q0", 0, -1, "+"), F(-23, 20), -1, -3),
        (("q2", 1, 0, "-"), F(1, 5), 1, -1),
    ],
)
def test_closed_forms_cp1(cp1, g, act, mu, lv):
    assert ck.action(cp1.base, g) == act
    assert ck.twice_mu(cp1.base, g) == mu
    assert ck.level(cp1.base, g) == lv


def test_closed_forms_aspherical4():
    b = scenario("aspherical4").base
    g = ("p0", 0, 0, "+")  # the declared cycle xi0, degree 5
    assert (ck.action(b, g), ck.twice_mu(b, g), ck.level(b, g)) == (F(-3, 16), 5, 2)
    assert ck.eta(b, ("p4", 2, 0, "-")) == F(9, 8)


def test_differential_cp1(cp1):
    # d0 (q0,1,0,-) = (q0,0,0,+); the first table entry adds (q2,1,0,+).
    image = ck.boundary_above(cp1.base, cp1.entries, {("q0", 1, 0, "-")}, F(-1))
    assert image == {("q0", 0, 0, "+"), ("q2", 1, 0, "+")}
    # Shift extension: the same entry one sphere class up.
    shifted = ck.differential(cp1.entries, {("q0", 1, 1, "-")})
    assert shifted == {("q0", 0, 1, "+"), ("q2", 1, 1, "+")}
    # d0 gives (q0,-1,0,+) (action -13/20); the floor drops the table image
    # (q0,0,-1,+) (action -23/20 < -1).
    image = ck.boundary_above(cp1.base, cp1.entries, {("q0", 0, 0, "-")}, F(-1))
    assert image == {("q0", -1, 0, "+")}


def test_primitive_of_cp1_xi0_by_hand(cp1):
    # theta = (q0,1,0,-) + (q2,2,0,-): d0 of the second cancels (q2,1,0,+).
    theta = {("q0", 1, 0, "-"), ("q2", 2, 0, "-")}
    assert ck.boundary_above(cp1.base, cp1.entries, theta, F(-1)) == {("q0", 0, 0, "+")}


@pytest.mark.parametrize("name", ["aspherical4", "c0", "c1", "cp1", "neg2", "neg4"])
def test_golden_tables_obey_the_rules(name):
    sc = scenario(name)
    assert ck.table_violations(sc.base, sc.entries) == []
    assert ck.square_defects(sc.base, sc.entries) == []


def test_rule_violations_are_named(cp1):
    b = cp1.base
    src, tgt = ("q0", 1, 0, "-"), ("q2", 1, 0, "+")
    assert ck.table_violations(b, [(1, src, tgt)]) == ["entry 0: level"]
    # (q2,0,0,+): level -1 and action -3/10 fit, doubled grading -1 does not.
    assert ck.table_violations(b, [(2, src, ("q2", 0, 0, "+"))]) == ["entry 0: grading"]
    # Same entry moved up one sphere class is a shift duplicate.
    dup = [(2, src, tgt), (2, ("q0", 1, 1, "-"), ("q2", 1, 1, "+"))]
    assert ck.table_violations(b, dup) == ["entry 1: shift-duplicate"]
    # neg2 has 2*c*nu = -2 = -dim_M, so entries must keep the sphere class.
    neg2 = scenario("neg2").base
    same = ck.table_violations(neg2, [(2, ("q0", 1, 0, "-"), ("q2", 2, 0, "+"))])
    assert "entry 0: class-preservation" not in same
    moved = ck.table_violations(neg2, [(4, ("q0", 1, 0, "-"), ("q2", 1, -1, "+"))])
    assert "entry 0: class-preservation" in moved
    c0 = scenario("c0").base
    assert "entry 0: depth-cutoff" in ck.table_violations(c0, [(3, src, tgt)])


def test_square_defect_found(cp1):
    # A lone + to + entry has no companion between the fiber preimages.
    entries = [(2, ("q0", 0, 0, "+"), ("q2", 0, 0, "+"))]
    assert ck.square_defects(cp1.base, entries)


def test_enumerate_slice_c1_by_hand():
    # c = 1, nu = 2, tau = 3/4: degree 3 pins (q0, n=0, +) and (q2, n=1, +);
    # level = -index + 1 + 4a, action = 3/4 n + 2a - 7/4 f.
    b = scenario("c1").base
    got = ck.enumerate_slice(b, 3, F(-2), -12, 12)
    assert got == [
        ("q2", 1, 3, "+"), ("q0", 0, 2, "+"), ("q2", 1, 2, "+"), ("q0", 0, 1, "+"),
        ("q2", 1, 1, "+"), ("q0", 0, 0, "+"), ("q2", 1, 0, "+"), ("q2", 1, -1, "+"),
    ]
    assert ck.action(b, ("q2", 1, -1, "+")) == F(-8, 5)


def test_enumerate_slice_rejects_c0():
    with pytest.raises(ValueError):
        ck.enumerate_slice(scenario("c0").base, 3, F(-2), -1, 1)
