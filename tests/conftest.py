from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

import checker as ck
from rabinowitz import BundleParams, CaseTag, CritPoint, load_scenario
from rabinowitz.randomized import _candidate_entries, _decode

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / f"{name}.scn"


def params_of(name: str):
    return load_scenario(scenario_path(name)).bundle


# Golden scenarios covering every case tag: aspherical, c = 0, c >= 1, very negative.
CASE_SCENARIOS = ("aspherical4", "c0", "c1", "cp1", "neg2", "neg4")


# Each kind of random base with its case tag and the c it draws; nu is 1-3.
BUNDLE_KINDS = {
    "aspherical": (CaseTag.ASPHERICAL, None),
    "c=0": (CaseTag.C_NON_NEGATIVE, st.just(0)),
    "c>=1": (CaseTag.C_NON_NEGATIVE, st.integers(1, 3)),
    "very-negative": (CaseTag.C_VERY_NEGATIVE, st.integers(-4, -1)),
}


def draw_bundle(draw, kind: str) -> BundleParams:
    """A random base of one kind: dim_M 2, 4 or 6, one to four critical points
    with values p/q in (0, 1) (q in 2..8), tau = p/q with p in 1..6 and q in
    2..8.  The base may be one the algorithm refuses; its case tag is the
    kind's when it is not."""
    c_values = BUNDLE_KINDS[kind][1]
    dim = draw(st.sampled_from((2, 4, 6)))
    crits = []
    for k in range(draw(st.integers(1, 4))):
        den = draw(st.integers(2, 8))
        value = Fraction(draw(st.integers(1, den - 1)), den)
        crits.append(CritPoint(f"q{k}", draw(st.integers(0, dim)), value))
    tau = Fraction(draw(st.integers(1, 6)), draw(st.integers(2, 8)))
    nu, c = (None, None) if c_values is None else (draw(st.integers(1, 3)), draw(c_values))
    return BundleParams(dim, tau, tuple(crits), nu, c)


def synthetic_params(ncrit: int, dim: int, c: int, nu: int, tau: Fraction) -> BundleParams:
    """Critical point i has index i mod (dim+1) and value (i+1)/(ncrit+2)."""
    crits = (CritPoint(f"q{i}", i % (dim + 1), Fraction(i + 1, ncrit + 2)) for i in range(ncrit))
    return BundleParams(dim, tau, tuple(crits), nu, c)


def ck_base(params) -> ck.Base:
    """The base in the engine-free checker's terms; aspherical keeps nu and c None.
    Of duplicate ids the first point is kept, as in the engine."""
    crit: dict = {}
    for cp in params.morse:
        crit.setdefault(cp.name, (cp.index, cp.value))
    return ck.Base(params.dim_m, params.tau, crit, params.nu, params.c)


def ck_pool(params, twice_mu, floor, lo, hi) -> list:
    """The checker's slice of one degree, or for c = 0 its sphere-class-0 part,
    which is the sampling pool there.  The checker refuses c = 0 slices, so
    that part comes from the base's aspherical twin: at class 0 the closed
    forms agree."""
    base = ck_base(params)
    if params.c == 0:
        base = ck.Base(base.dim, base.tau, base.crit)
    return ck.enumerate_slice(base, twice_mu, floor, lo, hi)


def checker_sphere_class_floor(params, twice_mu, floor, bound) -> int:
    """The least sphere class a generator of the degree can have above the
    floor, found by the checker's enumeration (c != 0, (c-1)*tau < 1).

    Along one degree, action = tau*(twice_mu + 2*index - dim_M - s)/4 +
    (1-(c-1)*tau)*nu*a - (tau+1)*f(q), so the least class is reached by a
    critical point of index dim_M at the least critical value, sign '-'.  A
    virtual point of that kind is added to the checker's base; its '-'
    generators exist at every class when (twice_mu + dim_M + 1) % 4 == 0,
    and then their least class above the floor is the bound.  ``bound`` only
    sizes the level window, |2*c*nu|*(|bound|+4) + dim_M + 2 on each side,
    which holds that class and some to spare.
    """
    assert params.c and (twice_mu + params.dim_m + 1) % 4 == 0
    base = ck_base(params)
    base.crit["virtual"] = (params.dim_m, min(value for _, value in base.crit.values()))
    reach = abs(2 * params.c * params.nu) * (abs(bound) + 4) + params.dim_m + 2
    return min(g[2] for g in ck.enumerate_slice(base, twice_mu, floor, -reach, reach)
               if g[0] == "virtual" and g[3] == "-")


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
