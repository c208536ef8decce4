import math
from fractions import Fraction
from pathlib import Path

import pytest

from rabinowitz import BundleParams, CritPoint, load_scenario
from rabinowitz.randomized import _candidate_entries, _decode

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / f"{name}.scn"


def params_of(name: str):
    return load_scenario(scenario_path(name)).bundle


# Golden scenarios covering every case tag: aspherical, c = 0, c >= 1, very negative.
CASE_SCENARIOS = ("aspherical4", "c0", "c1", "cp1", "neg2", "neg4")


def synthetic_params(ncrit: int, dim: int, c: int, nu: int, tau: Fraction) -> BundleParams:
    """Critical point i has index i mod (dim+1) and value (i+1)/(ncrit+2)."""
    crits = (CritPoint(f"q{i}", i % (dim + 1), Fraction(i + 1, ncrit + 2)) for i in range(ncrit))
    return BundleParams(dim, tau, tuple(crits), nu, c)


def fraction_action(params, g) -> Fraction:
    """Reference closed form tau*n + nu*a - (tau+1)*f(q) in exact rationals."""
    omega = 0 if params.aspherical else params.nu * g.sphere
    return params.tau * g.cover + omega - (params.tau + 1) * params.crit(g.base).value


def fraction_level(params, g) -> int:
    """Reference closed form -index + dim_M/2 + 2*c*nu*a."""
    c_term = 0 if params.aspherical else 2 * params.c * params.nu * g.sphere
    return -params.crit(g.base).index + params.dim_m // 2 + c_term


def fraction_twice_mu(params, g) -> int:
    """Reference closed form mu = cz_fiber_disk - index + dim_M/2 -+ 1/2, doubled."""
    cz = 2 * g.cover
    if not params.aspherical:
        cz += 2 * (params.c - 1) * params.nu * g.sphere
    half = Fraction(1, 2) if g.sign == "+" else Fraction(-1, 2)
    mu = cz - params.crit(g.base).index + Fraction(params.dim_m, 2) + half
    assert mu.denominator == 2  # a half-integer
    return int(2 * mu)


def fraction_sort_key(params, g):
    """Reference canonical order on exact rationals: level desc, action desc, id, cover, sign."""
    return (-fraction_level(params, g), -fraction_action(params, g), g.base, g.cover, g.sign)


def fraction_sphere_class_floor(params, twice_mu, floor) -> int:
    """Reference closed form: the least integer a with
    nu*a >= (floor - (twice_mu + dim_M + 1)*tau/4 + (tau+1)*min f) / (1 - (c-1)*tau)."""
    peak = Fraction(twice_mu + params.dim_m + 1, 4) * params.tau
    least = (params.tau + 1) * min(cp.value for cp in params.morse)
    return math.ceil((floor - peak + least) / ((1 - (params.c - 1) * params.tau) * params.nu))


def decoded_candidates(params, degrees, floor, lo, hi):
    """Every candidate code of the window decoded, after checking the codes strictly increase."""
    codes, gens = _candidate_entries(params, degrees, floor, lo, hi)
    assert all(a < b for a, b in zip(codes, codes[1:]))
    return [_decode(code, gens) for code in codes]


def assert_drop_partition(kept, dropped, untruncated):
    """Kept terms and the drop report split the untruncated Z/2 result, each term once."""
    assert len(set(dropped)) == len(dropped)
    assert not kept & set(dropped)
    assert kept | set(dropped) == untruncated


@pytest.fixture(scope="session")
def cp1():
    return load_scenario(scenario_path("cp1"))


@pytest.fixture(scope="session")
def cp1_params(cp1):
    return cp1.bundle


@pytest.fixture(scope="session")
def aspherical4_params():
    return params_of("aspherical4")


@pytest.fixture(scope="session")
def neg2_params():
    return params_of("neg2")


@pytest.fixture(scope="session")
def neg4_params():
    return params_of("neg4")


@pytest.fixture(scope="session")
def c0_params():
    return params_of("c0")


@pytest.fixture(scope="session")
def c1_params():
    return params_of("c1")
