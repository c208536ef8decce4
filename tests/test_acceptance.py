"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Budgets are wall-clock seconds from the criteria; every tolerance is exact
(integer or rational equality), nothing is approximate.
"""

import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from rabinowitz import (
    BundleParams,
    CaseTag,
    Chain,
    CritPoint,
    Generator,
    HigherDifferentialEntry,
    TableValidationError,
    action,
    apply_d0,
    apply_total,
    build_chain,
    cz_fiber_disk,
    cz_flat_capping,
    d0_primitive,
    enumerate_generators,
    find_primitive,
    grading,
    is_semi_positive,
    level_floor,
    load_table,
    random_admissible_table,
    random_boundary,
    random_chain,
    scalar_shift,
    theorem_case,
    validate_entry,
    verify_primitive,
)
from rabinowitz.cli import main

from conftest import params_of, scenario_path

G = Generator
E = HigherDifferentialEntry


def _report(criterion: int, label: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"PASS criterion {criterion}: {label} ({elapsed:.3f}s < {budget}s)")


def test_criterion_1_index_formulas():
    started = time.monotonic()
    rng = random.Random(101)
    crits = (CritPoint("p", 0, Fraction(1, 3)),)
    for _ in range(200):
        n = rng.randint(-50, 50)
        a = rng.randint(-20, 20)
        nu = rng.randint(1, 6)
        c = rng.randint(-5, 5)
        params = BundleParams(4, Fraction(1, 3), crits, nu, c)
        assert cz_fiber_disk(params, n, a) == 2 * n + 2 * (c - 1) * nu * a
        assert cz_fiber_disk(params, n, 0) == 2 * n
        k = rng.randint(-7, 7)
        if k != 0:
            assert cz_flat_capping(params, k * nu) == 2 * c * (k * nu)
    _report(1, "index formulas exact on 200 random tuples", started, 1.0)


def test_criterion_2_action_and_shift_laws():
    started = time.monotonic()
    rng = random.Random(202)
    for _ in range(1000):
        dim = 2 * rng.randint(0, 4)
        idx = rng.randint(0, dim)
        f_q = Fraction(rng.randint(1, 39), 40)
        nu = rng.randint(1, 5)
        c = rng.randint(-4, 4)
        tau = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        params = BundleParams(dim, tau, (CritPoint("q", idx, f_q),), nu, c)
        n = rng.randint(-30, 30)
        a = rng.randint(-10, 10)
        sign = rng.choice("+-")
        g = G("q", n, a, sign)
        assert action(params, g) == tau * n + nu * a - (tau + 1) * f_q
        assert action(params, G("q", n + 1, a, sign)) - action(params, g) == tau
        x = Chain(grading(params, g), action(params, g), frozenset({g}))
        a0 = rng.randint(-4, 4)
        shifted = scalar_shift(params, x, a0)
        (h,) = shifted.terms
        assert action(params, h) - action(params, g) == nu * a0
    _report(2, "action formula and shift laws exact on 1000 cases", started, 1.0)


def test_criterion_3_fiber_differential_structure():
    started = time.monotonic()
    floor = Fraction(-120)
    plans = (
        ("cp1", range(-25, 27, 2), (-20, 20)),
        ("aspherical4", range(-99, 101, 2), (-2, 2)),
        ("neg2", range(-13, 15, 2), (-20, 20)),
    )
    for name, degrees, window in plans:
        params = params_of(name)
        pool = []
        for tm in degrees:
            pool.extend(enumerate_generators(params, tm, floor, *window))
        assert len(pool) >= 500, f"{name}: window too small ({len(pool)})"
        for g in pool:
            x = build_chain(params, [g], floor)
            assert apply_d0(params, apply_d0(params, x)).is_zero
            if g.sign == "+":
                assert apply_d0(params, d0_primitive(params, x)).terms == x.terms
    _report(3, "d0 squares to zero and inverts its primitive on 3x500+ generators", started, 5.0)


def test_criterion_4_validator_golden_cases():
    started = time.monotonic()
    cp1 = params_of("cp1")
    neg2 = params_of("neg2")
    c0 = params_of("c0")
    cases = [
        # (params, entry, broken rule or None)
        (cp1, E(2, G("q0", 1, 0, "-"), G("q2", 1, 0, "-")), "grading"),
        (cp1, E(2, G("q0", 1, 0, "-"), G("q2", 1, 0, "+")), None),
        (cp1, E(1, G("q0", 1, 0, "-"), G("q2", 1, 0, "+")), "level"),
        (cp1, E(4, G("q0", 0, 0, "-"), G("q0", 0, -1, "+")), None),
        (cp1, E(2, G("q0", 0, 0, "+"), G("q2", 1, 0, "-")), "action"),
        (cp1, E(2, G("q2", 1, 0, "-"), G("q0", 0, -1, "+")), None),
        (neg2, E(2, G("q0", 2, 0, "+"), G("q0", 1, -1, "+")), "class-preservation"),
        (neg2, E(2, G("q0", 1, 0, "-"), G("q2", 1, 0, "+")), None),
        (c0, E(3, G("q0", 1, 0, "-"), G("q2", 1, 0, "+")), "depth-cutoff"),
        (c0, E(2, G("q0", 1, 0, "-"), G("q2", 1, 0, "+")), None),
    ]
    for params, entry, rule in cases:
        bad = validate_entry(params, entry)
        if rule is None:
            assert bad == (), f"{entry} unexpectedly rejected: {bad}"
        else:
            assert any(v.startswith(rule + ":") for v in bad), f"{entry}: {bad}"
    # shift-duplicate fires at table level; a distinct pair passes
    dup = [E(2, G("q0", 1, 0, "-"), G("q2", 1, 0, "+")),
           E(2, G("q0", 1, 2, "-"), G("q2", 1, 2, "+"))]
    try:
        load_table(cp1, dup)
        raise AssertionError("shift-duplicate not caught")
    except TableValidationError as err:
        assert any("shift-duplicate" in line for line in err.report)
    ok_pair = [E(2, G("q0", 1, 0, "-"), G("q2", 1, 0, "+")),
               E(2, G("q2", 1, 0, "-"), G("q0", 0, -1, "+"))]
    assert len(load_table(cp1, ok_pair).entries) == 2
    _report(4, "six rejection rules trigger and pass on 12 golden entries", started, 1.0)


def test_criterion_5_total_differential_squares_to_zero():
    started = time.monotonic()
    floor = Fraction(-40)
    plans = (("cp1", 900), ("aspherical4", 901), ("neg2", 902))
    for name, seed0 in plans:
        params = params_of(name)
        for t in range(50):
            d = random_admissible_table(
                params, seed0 + t, (3, 5, 7), floor, -10, 10
            )
            for k in range(3):
                x = random_chain(params, seed0 + 31 * t + k, 7, floor, -10, 10, size=5)
                once, _ = apply_total(d, x)
                twice, _ = apply_total(d, once)
                assert twice.is_zero
    # constructed violations of the square relation are caught at load time
    cp1 = params_of("cp1")
    bad_cp1 = E(6, G("q0", 0, 0, "+"), G("q2", 2, -1, "-"))
    assert validate_entry(cp1, bad_cp1) == ()
    try:
        load_table(cp1, [bad_cp1])
        raise AssertionError("square violation not caught")
    except TableValidationError as err:
        assert any("d-squared" in line for line in err.report)
    asph = params_of("aspherical4")
    bad_asph = E(1, G("p0", 0, 0, "+"), G("p1", 0, 0, "+"))  # unpaired +-to-+
    assert validate_entry(asph, bad_asph) == ()
    try:
        load_table(asph, [bad_asph])
        raise AssertionError("square violation not caught")
    except TableValidationError as err:
        assert any("d-squared" in line for line in err.report)
    _report(5, "150 seeded tables square to zero; crafted violations caught", started, 30.0)


def test_criterion_6_vanishing_soundness():
    started = time.monotonic()
    floor = Fraction(-40)
    plans = (
        ("cp1", 3, 600, (-10, 10)),
        ("aspherical4", 5, 700, (-2, 2)),
        ("neg2", 3, 800, (-10, 10)),
        ("neg4", 5, 850, (-12, 12)),
    )
    for name, xi_degree, seed0, window in plans:
        params = params_of(name)
        case = theorem_case(params)
        nontrivial = 0
        for t in range(10):
            d = random_admissible_table(
                params, seed0 + t, (xi_degree, xi_degree + 2, xi_degree + 4),
                floor, *window,
            )
            for k in range(10):
                xi, _ = random_boundary(
                    params, d, seed0 + 101 * t + k, xi_degree, floor, *window, size=5
                )
                result = find_primitive(d, xi)
                assert result.ok, f"{name}: residual nonzero"
                assert verify_primitive(d, xi, result.theta).chain.is_zero
                if not xi.is_zero:
                    nontrivial += 1
                if case.tag is CaseTag.C_VERY_NEGATIVE and not xi.is_zero:
                    assert result.gap_constant == (
                        params.tau / 2 * params.dim_m
                        + params.max_value - params.min_value
                    )
                    for rep in result.class_reports:
                        assert rep.gap_ok, f"{name}: action gap exceeds the constant"
                        # sharp per-class finiteness: at most one generator per
                        # critical point, uniformly in the class
                        assert rep.cycle_terms <= len(params.morse)
                        assert rep.theta_terms <= len(params.morse)
                        if name == "neg4":
                            # the dim_M/2 count bound, on a scenario where it
                            # is coherent (|Crit(f)| = 2 <= dim_M/2)
                            assert rep.cycle_terms <= params.dim_m // 2
                            assert rep.theta_terms <= params.dim_m // 2
        assert nontrivial >= 30, f"{name}: too few nontrivial boundaries ({nontrivial})"
    _report(6, "400 oracle boundaries resolved; class counts and gaps certified", started, 60.0)


def test_criterion_7_level_bounds_certified():
    started = time.monotonic()
    plans = (("c0", 0), ("c1", 1), ("cp1", 2))
    for name, c in plans:
        params = params_of(name)
        assert params.c == c
        assert (params.c - 1) * params.tau < 1
        for degree in (-3, 1, 3, 5, 9):
            for floor in (Fraction(-4), Fraction(0), Fraction(7, 3)):
                bound = level_floor(params, degree, floor)
                window = (bound.l_min - 40, bound.l_min - 1)
                assert enumerate_generators(params, degree, floor, *window) == ()
    _report(7, "level floors certified by exhaustive enumeration (c = 0, 1, 2)", started, 10.0)


def test_criterion_8_semi_positivity_grid():
    started = time.monotonic()
    crits = (CritPoint("p", 0, Fraction(1, 3)),)
    tau = Fraction(1, 2)

    def spherical(dim, nu, c):
        return BundleParams(dim, tau, crits, nu, c)

    def aspherical(dim):
        return BundleParams(dim, tau, crits)

    grid = [
        (aspherical(2), True),
        (aspherical(8), True),
        (spherical(2, 1, 2), True),    # monotone
        (spherical(6, 3, 4), True),    # monotone
        (spherical(2, 1, 1), True),    # c = 1
        (spherical(6, 1, 1), True),    # c = 1, any nu
        (spherical(10, 7, 1), True),   # c = 1, any nu
        (spherical(6, 1, 0), False),   # N_E = 1 < dim_M/2 - 1 = 2
        (spherical(6, 2, 0), True),    # N_E = 2 >= 2
        (spherical(4, 1, 0), True),    # N_E = 1 >= 1
        (spherical(8, 1, -1), False),  # N_E = 2 < 3
        (spherical(8, 2, -1), True),   # N_E = 4 >= 3
    ]
    assert len(grid) == 12
    for params, expected in grid:
        got = is_semi_positive(params)
        assert got.holds is expected, (params, got)
    _report(8, "semi-positivity clauses reproduced on the 12-row grid", started, 1.0)


def test_criterion_9_cli_determinism():
    started = time.monotonic()

    def run(*argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        return code, buf.getvalue()

    for name in ("cp1", "aspherical4", "neg2", "neg4", "c0", "c1"):
        path = str(scenario_path(name))
        declared = ("primitive", "--scenario", path, "--cycle", "xi0")
        assert run(*declared) == run(*declared)
        seeded = declared + ("--random-table", "--seed", "5")
        first = run(*seeded)
        assert first == run(*seeded)
        assert first[0] == 0, first[1]
    _report(9, "primitive reports byte-identical across repeated seeded runs", started, 5.0)
