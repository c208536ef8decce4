import dataclasses
from fractions import Fraction

import pytest

from rabinowitz import (
    CaseTag,
    Chain,
    FilteredDifferential,
    Generator,
    HigherDifferentialEntry,
    InductionError,
    NotClosedError,
    action,
    add,
    build_chain,
    enumerate_generators,
    find_primitive,
    level_ceiling,
    level_floor,
    load_table,
    random_admissible_table,
    random_boundary,
    verify_primitive,
    zero_chain,
)
from rabinowitz import vanishing
from rabinowitz.bundle import BundleParams, CritPoint

G = Generator
FLOOR = Fraction(-30)


# --- level bounds ------------------------------------------------------------


def test_level_ceiling_c0_clamped(c0_params):
    x = build_chain(c0_params, [G("q0", 0, 0, "+")], Fraction(-2))
    assert level_ceiling(c0_params, x) == c0_params.dim_m // 2
    assert level_ceiling(c0_params, zero_chain(3, Fraction(0))) == 1


def test_level_ceiling_max_level(cp1_params):
    x = build_chain(
        cp1_params, [G("q0", 1, 0, "-"), G("q0", 0, 1, "-")], Fraction(0)
    )  # levels 1 and 5
    assert level_ceiling(cp1_params, x) == 5
    single = build_chain(cp1_params, [G("q0", 1, 0, "-")], Fraction(0))
    assert level_ceiling(cp1_params, single) == 1


def test_level_ceiling_rejects_empty_for_positive_c(cp1_params):
    with pytest.raises(ValueError):
        level_ceiling(cp1_params, zero_chain(5, Fraction(0)))


def test_level_ceiling_rejects_very_negative(neg2_params):
    x = build_chain(neg2_params, [G("q0", 0, 0, "+")], Fraction(-2))
    with pytest.raises(ValueError):
        level_ceiling(neg2_params, x)


def test_level_floor_c0(c0_params):
    bound = level_floor(c0_params, 3, Fraction(0))
    assert bound.l_min == -1


def test_level_floor_aspherical(aspherical4_params):
    assert level_floor(aspherical4_params, 5, Fraction(-4)).l_min == -2


def test_level_floor_certified_against_enumeration(cp1_params, c1_params):
    for params, degree, floor in (
        (cp1_params, 5, Fraction(0)),
        (cp1_params, 3, Fraction(-2)),
        (c1_params, 3, Fraction(0)),
    ):
        bound = level_floor(params, degree, floor)
        # nothing below the bound, across a window far wider than the certificate
        low_lo = bound.l_min - 60
        assert enumerate_generators(params, degree, floor, low_lo, bound.l_min - 1) == ()


def test_level_floor_randomized_scenarios():
    import random as _random

    rng = _random.Random(5)
    for _ in range(40):
        dim = 2 * rng.randint(1, 3)
        crits = tuple(
            CritPoint(f"v{k}", rng.randint(0, dim), Fraction(2 * k + 1, 20))
            for k in range(3)
        )
        c = rng.randint(1, 3)
        nu = rng.randint(1, 3)
        tau = Fraction(1, rng.randint(max(1, c), c + 3))  # keep (c-1)*tau < 1
        params = BundleParams(dim, tau, crits, nu, c)
        degree = 2 * rng.randint(-4, 4) + 1
        floor = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        bound = level_floor(params, degree, floor)
        window = (bound.l_min - 50, bound.l_min - 1)
        assert enumerate_generators(params, degree, floor, *window) == ()


def test_level_floor_rejects_large_c_tau():
    params = BundleParams(
        2, Fraction(2), (CritPoint("p", 0, Fraction(1, 3)),), 1, 2
    )
    with pytest.raises(ValueError, match="action floor does not bound"):
        level_floor(params, 3, Fraction(0))


# --- primitives: explicit cases ----------------------------------------------


def test_trivial_cycle(cp1_params):
    d = load_table(cp1_params, [])
    result = find_primitive(d, zero_chain(3, Fraction(-1)))
    assert result.ok and result.theta.is_zero


def test_cp1_fiber_only_golden(cp1_params):
    d = load_table(cp1_params, [])
    xi = build_chain(cp1_params, [G("q0", 0, 0, "+")], Fraction(-1))
    result = find_primitive(d, xi)
    assert result.theta.terms == {G("q0", 1, 0, "-")}
    assert result.ok
    check = verify_primitive(d, xi, result.theta)
    assert check.residual.is_zero


def test_cp1_with_scenario_table(cp1):
    params = cp1.bundle
    d = load_table(params, cp1.entries)
    xi = cp1.cycles["xi0"]
    result = find_primitive(d, xi)
    assert result.ok
    assert result.theta.terms == {G("q0", 1, 0, "-"), G("q2", 2, 0, "-")}
    # the induction walked two levels and recorded both certified bounds
    assert result.level_ceiling == 1
    assert [label for label, _ in result.theta_parts] == ["level=1", "level=-1"]
    assert len(result.bounds) == 2


def test_theta_parts_independent_of_floor_depth(cp1):
    # The induction visits only levels that hold terms, so moving the floor
    # down changes the certified stop level but not the construction.
    d = load_table(cp1.bundle, cp1.entries)
    xi = cp1.cycles["xi0"]
    for floor in (-1, -1000, -20000):
        result = find_primitive(d, Chain(xi.degree, Fraction(floor), xi.terms))
        assert result.ok
        assert [(label, part.terms) for label, part in result.theta_parts] == [
            ("level=1", {G("q0", 1, 0, "-")}),
            ("level=-1", {G("q2", 2, 0, "-")}),
        ]


@pytest.mark.parametrize(
    "target, message",
    [
        # the correction at level -1 holds a - generator
        (G("q2", 1, 0, "-"), "inconsistent with the level induction at level -1: not d0-closed"),
        # the image stays at level 1
        (G("q0", 0, 0, "+"), "higher differential failed to drop the level at 1"),
    ],
)
def test_induction_rejects_inconsistent_table(cp1, target, message):
    # Built directly, so the table is never validated.
    entry = HigherDifferentialEntry(2, G("q0", 1, 0, "-"), target)
    d = FilteredDifferential(cp1.bundle, (entry,))
    with pytest.raises(InductionError, match=message):
        find_primitive(d, cp1.cycles["xi0"])


def test_induction_rejects_terms_below_stop(cp1, monkeypatch):
    real = vanishing.level_floor
    monkeypatch.setattr(
        vanishing, "level_floor", lambda *args: dataclasses.replace(real(*args), l_min=0)
    )
    d = load_table(cp1.bundle, cp1.entries)
    with pytest.raises(InductionError) as info:
        find_primitive(d, cp1.cycles["xi0"])
    assert str(info.value) == (
        "correction terms survived below the certified stop level 0: levels [-1]"
    )


def test_rejects_non_closed(cp1):
    params = cp1.bundle
    d = load_table(params, cp1.entries)
    with pytest.raises(NotClosedError) as info:
        find_primitive(d, cp1.cycles["notclosed"])
    image = info.value.image
    assert image.terms == {G("q0", 0, 0, "+"), G("q2", 1, 0, "+")}


def test_rejects_not_applicable_case():
    params = BundleParams(
        6,
        Fraction(1, 2),
        (CritPoint("p", 0, Fraction(1, 3)),),
        1,
        -1,
    )
    d = load_table(params, [])
    xi = zero_chain(3, Fraction(0))
    with pytest.raises(ValueError, match="no supported case"):
        find_primitive(d, xi)


def test_rejects_large_c_tau_scenario():
    params = BundleParams(
        2, Fraction(2), (CritPoint("p", 0, Fraction(1, 3)),), 1, 2
    )
    d = load_table(params, [])
    xi = zero_chain(3, Fraction(0))
    with pytest.raises(ValueError, match="pick a smaller tau"):
        find_primitive(d, xi)


def test_verify_detects_perturbed_theta(cp1_params):
    d = load_table(cp1_params, [])
    xi = build_chain(cp1_params, [G("q0", 0, 0, "+")], Fraction(-1))
    theta = build_chain(cp1_params, [G("q0", 1, 0, "-")], Fraction(-1))
    extra = G("q2", 2, 0, "-")  # degree 5; its d0 image survives
    bad_theta = Chain(5, Fraction(-1), theta.terms | {extra})
    check = verify_primitive(d, xi, bad_theta)
    assert check.residual.terms == {G("q2", 1, 0, "+")}


def test_verify_unconditional_on_non_closed_input(cp1_params):
    d = load_table(cp1_params, [])
    xi = build_chain(cp1_params, [G("q0", 1, 0, "-")], Fraction(-1))  # not closed
    theta = zero_chain(7, Fraction(-1))
    check = verify_primitive(d, xi, theta)
    assert check.residual == xi  # residual is d(0) + xi


def test_verify_degree_mismatch(cp1_params):
    d = load_table(cp1_params, [])
    with pytest.raises(ValueError, match="degree mismatch"):
        verify_primitive(d, zero_chain(3, Fraction(0)), zero_chain(3, Fraction(0)))


# --- randomized boundaries in each case ---------------------------------------


def _battery(params, seed, xi_degree, n_tables=4, n_cycles=6, window=(-10, 10)):
    nontrivial = 0
    for t in range(n_tables):
        d = random_admissible_table(
            params, seed + t, (xi_degree, xi_degree + 2, xi_degree + 4), FLOOR, *window
        )
        for k in range(n_cycles):
            xi, _ = random_boundary(
                params, d, seed + 97 * t + k, xi_degree, FLOOR, *window, size=5
            )
            result = find_primitive(d, xi)
            assert result.ok
            check = verify_primitive(d, xi, result.theta)
            assert check.residual.is_zero
            # construction only ever adds one fiber step on top of the floor
            assert result.theta.floor == xi.floor + params.tau
            for g in result.theta.terms:
                assert action(params, g) >= xi.floor + params.tau
            if not xi.is_zero:
                nontrivial += 1
    assert nontrivial > 0
    return nontrivial


def test_battery_cp1(cp1_params):
    _battery(cp1_params, 1000, 3)


def test_battery_aspherical(aspherical4_params):
    _battery(aspherical4_params, 2000, 5)


def test_battery_neg2(neg2_params):
    _battery(neg2_params, 3000, 3)


def test_battery_neg4(neg4_params):
    _battery(neg4_params, 4000, 5)


# --- very negative case: class split, counts, gaps -----------------------------


def test_class_split_and_gap_certificates(neg2_params):
    d = random_admissible_table(neg2_params, 13, (3, 5, 7), FLOOR, -10, 10)
    # two classes in one cycle: a boundary plus its Novikov shift
    xi_a, _ = random_boundary(neg2_params, d, 5, 3, FLOOR, -10, 10, size=3)
    assert not xi_a.is_zero
    from rabinowitz import scalar_shift

    xi_b = scalar_shift(neg2_params, xi_a, -1)
    assert xi_b.degree == xi_a.degree + 8  # 4*(c-1)*nu*a0 = 8 for a0 = -1
    result_b = find_primitive(d, xi_b)
    assert result_b.ok
    assert {rep.sphere for rep in result_b.class_reports} == {
        g.sphere for g in xi_b.terms
    }
    result_a = find_primitive(d, xi_a)
    assert result_a.ok
    assert result_a.case.tag is CaseTag.C_VERY_NEGATIVE
    assert result_a.gap_constant == (
        neg2_params.tau / 2 * neg2_params.dim_m
        + neg2_params.max_value
        - neg2_params.min_value
    )
    spheres_in_xi = {g.sphere for g in xi_a.terms}
    assert {rep.sphere for rep in result_a.class_reports} == spheres_in_xi
    for rep in result_a.class_reports:
        assert rep.gap_ok
        # sharp per-class bound: one generator per critical point at most
        assert rep.cycle_terms <= len(neg2_params.morse)
        assert rep.theta_terms <= len(neg2_params.morse)
    # theta classes never leave the cycle's classes
    assert {g.sphere for g in result_a.theta.terms} <= spheres_in_xi


def test_class_preservation_keeps_runs_independent(neg4_params):
    d = random_admissible_table(neg4_params, 21, (5, 7, 9), FLOOR, -12, 12)
    xi, _ = random_boundary(neg4_params, d, 77, 5, FLOOR, -12, 12, size=6)
    if xi.is_zero:
        pytest.skip("seed produced a trivial boundary")
    result = find_primitive(d, xi)
    assert result.ok
    from rabinowitz import scalar_shift

    shifted = scalar_shift(neg4_params, xi, 2)
    result_shifted = find_primitive(d, shifted)
    assert result_shifted.ok
    assert result_shifted.theta == scalar_shift(neg4_params, result.theta, 2)


def test_class_slice_size_documented(neg2_params):
    """Per (degree, class) the generator count equals the number of critical
    points: parity picks one sign per critical point and the cover is then
    pinned.  In particular the count exceeds dim_M/2 whenever the Morse data
    has more than dim_M/2 points, as here (2 > 1)."""
    for tm in (3, 5, 7, -1):
        gens = enumerate_generators(neg2_params, tm, Fraction(-10**6), -60, 60)
        by_class = {}
        for g in gens:
            by_class.setdefault(g.sphere, set()).add(g)
        for a, gens_a in by_class.items():
            # interior classes only: extreme classes are clipped by the window
            if abs(2 * neg2_params.c * neg2_params.nu * a) < 50:
                assert len(gens_a) == len(neg2_params.morse) == 2
    assert neg2_params.dim_m // 2 == 1  # the loose bound would claim <= 1
