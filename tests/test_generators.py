import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import checker as ck
from conftest import ck_base, ck_pool, checker_sphere_class_floor, params_of
from rabinowitz import (
    BundleParams,
    Chain,
    CritPoint,
    Generator,
    HigherDifferentialEntry,
    InfiniteSliceError,
    action,
    build_chain,
    canonical_sort,
    cz_fiber_disk,
    cz_flat_capping,
    enumerate_generators,
    eta,
    find_primitive,
    grading,
    level,
    load_table,
    sphere_class_floor,
    truncate,
    validate_entry,
)
from rabinowitz.generators import sort_key
from rabinowitz.randomized import _pool

G = Generator


# --- closed-formula goldens (CP1 scenario: dim 2, nu 1, c 2, tau 1/2) ----


def test_action_goldens(cp1_params):
    assert action(cp1_params, G("q0", 1, 0, "-")) == Fraction(7, 20)
    assert action(cp1_params, G("q0", 0, 0, "+")) == Fraction(-3, 20)
    assert action(cp1_params, G("q0", 1, 1, "-")) == Fraction(27, 20)


def test_action_unknown_id(cp1_params):
    with pytest.raises(KeyError):
        action(cp1_params, G("nope", 0, 0, "+"))


SIGN_TEXT = "sign must be '+' or '-', got 'x'"


def test_a_bad_sign_is_refused_by_name(cp1, aspherical4_params):
    params, bad = cp1.bundle, G("q0", 0, 0, "x")
    for invariant in (action, eta, grading, level, sort_key, lambda p, g: canonical_sort(p, [g])):
        with pytest.raises(ValueError) as err:
            invariant(params, bad)
        assert err.value.args == (SIGN_TEXT,)
    # A raw chain skips build_chain; the induction reads its levels through the same check.
    d = load_table(params, cp1.entries)
    with pytest.raises(ValueError) as err:
        find_primitive(d, Chain(3, Fraction(-1), frozenset({bad})))
    assert type(err.value) is ValueError and err.value.args == (SIGN_TEXT,)
    # The refusals come in order: id, then sign, then sphere class.
    flat = aspherical4_params
    with pytest.raises(KeyError, match="unknown critical point id 'q0'"):
        level(flat, G("q0", 0, 1, "x"))
    with pytest.raises(ValueError) as err:
        level(flat, G("p0", 0, 1, "x"))
    assert err.value.args == (SIGN_TEXT,)
    with pytest.raises(ValueError, match="^aspherical scenario forces sphere class 0, got 1$"):
        level(flat, G("p0", 0, 1, "-"))


def test_eta_definition(cp1_params):
    assert eta(cp1_params, G("q0", 1, 0, "-")) == Fraction(9, 10)
    # eta + f(q) is the integer cover by construction
    g = G("q2", -3, 2, "+")
    assert eta(cp1_params, g) + cp1_params.crit("q2").value == g.cover


def test_cz_fiber_disk_goldens(cp1_params, aspherical4_params):
    assert cz_fiber_disk(cp1_params, 3, 0) == 6
    assert cz_fiber_disk(aspherical4_params, 3, 0) == 6
    assert cz_fiber_disk(cp1_params, 0, 0) == 0
    assert cz_fiber_disk(cp1_params, 1, 1) == 4
    with pytest.raises(ValueError, match="forces sphere class 0"):
        cz_fiber_disk(aspherical4_params, 3, 1)


def test_cz_flat_capping_goldens():
    crits = (CritPoint("p", 0, Fraction(1, 3)),)
    p_a = BundleParams(2, Fraction(1, 2), crits, 1, 2)
    assert cz_flat_capping(p_a, 1) == 4
    p_b = BundleParams(2, Fraction(1, 2), crits, 3, 1)
    assert cz_flat_capping(p_b, 3) == 6
    p_c = BundleParams(2, Fraction(1, 2), crits, 2, 2)
    with pytest.raises(ValueError):
        cz_flat_capping(p_c, 1)
    with pytest.raises(ValueError):
        cz_flat_capping(p_b, 0)
    with pytest.raises(ValueError, match="aspherical base"):
        cz_flat_capping(BundleParams(2, Fraction(1, 2), crits), 1)


def test_grading_goldens(cp1_params):
    assert grading(cp1_params, G("q0", 1, 0, "-")) == 5
    assert grading(cp1_params, G("q0", 0, 0, "+")) == 3
    assert grading(cp1_params, G("q2", 0, 0, "-")) == -3


# --- randomized identities ------------------------------------------------


def _random_params(rng):
    dim = 2 * rng.randint(0, 4)
    crits = []
    values = rng.sample(range(1, 40), 4)
    for k in range(4):
        crits.append(CritPoint(f"w{k}", rng.randint(0, dim), Fraction(values[k], 40)))
    nu = rng.randint(1, 4)
    c = rng.randint(-3, 3)
    tau = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return BundleParams(dim, tau, tuple(crits), nu, c)


def test_grading_always_odd_and_formula_consistent():
    rng = random.Random(4)
    for _ in range(300):
        params = _random_params(rng)
        g = G(
            f"w{rng.randint(0, 3)}",
            rng.randint(-6, 6),
            rng.randint(-4, 4),
            rng.choice("+-"),
        )
        tm = grading(params, g)
        assert tm % 2 == 1
        cp = params.crit(g.base)
        s = 1 if g.sign == "+" else -1
        assert tm == 2 * (2 * g.cover + 2 * (params.c - 1) * params.nu * g.sphere) - 2 * cp.index + params.dim_m + s


def test_action_identity_via_degree_and_e():
    # action = (1 - (c-1)tau) * nu*a + (mu + e)/2 * tau - (tau+1) f(q)
    # with e = morse_index - dim_M/2 -+ 1/2 and |e| <= dim_M/2 + 1/2.
    rng = random.Random(13)
    for _ in range(300):
        params = _random_params(rng)
        g = G(
            f"w{rng.randint(0, 3)}",
            rng.randint(-6, 6),
            rng.randint(-4, 4),
            rng.choice("+-"),
        )
        cp = params.crit(g.base)
        s = 1 if g.sign == "+" else -1
        mu = Fraction(grading(params, g), 2)
        e = cp.index - Fraction(params.dim_m, 2) - Fraction(s, 2)
        assert abs(e) <= Fraction(params.dim_m, 2) + Fraction(1, 2)
        expected = (
            (1 - (params.c - 1) * params.tau) * params.nu * g.sphere
            + (mu + e) / 2 * params.tau
            - (params.tau + 1) * cp.value
        )
        assert action(params, g) == expected


def test_action_shift_laws():
    rng = random.Random(21)
    for _ in range(200):
        params = _random_params(rng)
        g = G(f"w{rng.randint(0, 3)}", rng.randint(-6, 6), rng.randint(-4, 4), "+")
        up_cover = G(g.base, g.cover + 1, g.sphere, g.sign)
        assert action(params, up_cover) - action(params, g) == params.tau
        up_sphere = G(g.base, g.cover, g.sphere + 1, g.sign)
        assert action(params, up_sphere) - action(params, g) == params.nu


# --- enumeration against the checker's brute-force slice -----------------


def test_enumerate_matches_brute_force_cp1(cp1_params):
    got = enumerate_generators(cp1_params, 5, Fraction(0), -10, 10)
    assert list(got) == ck.enumerate_slice(ck_base(cp1_params), 5, Fraction(0), -10, 10)
    assert G("q0", 1, 0, "-") in got


def test_enumerate_matches_brute_force_many(cp1_params, neg2_params, neg4_params):
    for params in (cp1_params, neg2_params, neg4_params):
        for tm in (-3, 1, 5):
            got = enumerate_generators(params, tm, Fraction(-5), -8, 8)
            assert list(got) == ck.enumerate_slice(ck_base(params), tm, Fraction(-5), -8, 8)


def test_enumerate_matches_brute_force_aspherical(aspherical4_params):
    got = enumerate_generators(aspherical4_params, 5, Fraction(-10), -2, 2)
    assert list(got) == ck.enumerate_slice(ck_base(aspherical4_params), 5, Fraction(-10), -2, 2)
    assert all(g.sphere == 0 for g in got)


# c = 0 with an index-1 point, so the class-0 slice has a level-0 generator.
C0_MIDDLE = BundleParams(2, Fraction(1, 2), (
    CritPoint("q0", 0, Fraction(1, 10)), CritPoint("q1", 1, Fraction(1, 2)),
    CritPoint("q2", 2, Fraction(1, 5))), 1, 0)


def test_sampling_pool_matches_brute_force(aspherical4_params, cp1_params, neg2_params):
    # c = 0: the pool is the sphere-class-0 part of the slice.
    for twice_mu in (1, 3, 5):
        pool = _pool(C0_MIDDLE, twice_mu, Fraction(-3), -1, 1)
        assert list(pool) == ck_pool(C0_MIDDLE, twice_mu, Fraction(-3), -1, 1)
        assert any(level(C0_MIDDLE, g) == 0 for g in pool)
    # Every other case: the pool is the whole slice.
    for params, window in ((aspherical4_params, (-2, 2)), (cp1_params, (-8, 8)), (neg2_params, (-8, 8))):
        for twice_mu in (-3, 1, 5):
            pool = _pool(params, twice_mu, Fraction(-5), *window)
            assert pool and list(pool) == ck_pool(params, twice_mu, Fraction(-5), *window)


def test_enumerate_empty_window(cp1_params):
    assert enumerate_generators(cp1_params, 5, Fraction(0), 4, -4) == ()


def test_enumerate_aspherical_finite_without_window(aspherical4_params):
    gens = enumerate_generators(aspherical4_params, 5, Fraction(-100))
    # one generator per critical point: parity picks exactly one sign, which
    # then pins the cover
    assert len(gens) == len(aspherical4_params.morse)


def test_enumerate_rejects_even_degree(cp1_params):
    with pytest.raises(ValueError):
        enumerate_generators(cp1_params, 4, Fraction(0), -2, 2)


def test_enumerate_infinite_slice_c0(c0_params):
    with pytest.raises(InfiniteSliceError):
        enumerate_generators(c0_params, 3, Fraction(0), -1, 1)


def test_enumerate_c0_window_off_range_is_empty(c0_params):
    assert enumerate_generators(c0_params, 3, Fraction(0), -9, -2) == ()


def test_enumerate_infinite_slice_missing_bound(cp1_params, neg2_params):
    with pytest.raises(InfiniteSliceError):
        enumerate_generators(cp1_params, 5, Fraction(0), -4, None)
    with pytest.raises(InfiniteSliceError):
        enumerate_generators(neg2_params, 3, Fraction(0), None, 4)


# (c-1)*tau = 1: the action floor no longer bounds the sphere class below.
TILTED = BundleParams(2, Fraction(1), (CritPoint("p", 0, Fraction(1, 3)),), 1, 2)
NO_UPPER = "infinite slice: no upper level bound and c >= 1 (sphere class unbounded above at any action floor)"
NO_LOWER = "infinite slice: no lower level bound and c <= -1 (sphere class unbounded above at any action floor)"


@pytest.mark.parametrize("name, twice_mu, lo, hi, text", [
    ("cp1", 5, -4, None, NO_UPPER),
    ("cp1", 5, None, None, NO_UPPER),
    ("tilted", 3, None, 4, "infinite slice: (c-1)*tau = 1 >= 1: action no longer controls the sphere class"),
    ("tilted", 3, None, None, NO_UPPER),
    ("neg2", 3, None, 4, NO_LOWER),
    ("neg2", 3, None, None, NO_LOWER),
    ("c0", 3, -1, 1, "infinite slice: c = 0 leaves the sphere class unconstrained for critical point 'q0'"),
    ("c0", 3, None, None, "infinite slice: c = 0 leaves the sphere class unconstrained for critical point 'q0'"),
])
def test_enumerate_refusal_texts_and_order(name, twice_mu, lo, hi, text):
    # Each infinite slice is refused with its own text; a slice unbounded
    # both ways names the window end of its case, not (c-1)*tau >= 1.
    # TILTED's action is -2/3 on its whole slice, so its rows sit at floor -1,
    # which keeps the slice.
    params = TILTED if name == "tilted" else params_of(name)
    floor = Fraction(-1) if name == "tilted" else Fraction(0)
    with pytest.raises(InfiniteSliceError) as err:
        enumerate_generators(params, twice_mu, floor, lo, hi)
    assert str(err.value) == text


@pytest.mark.parametrize("lo, hi", [(None, 4), (None, None), (-4, None)])
def test_enumerate_slice_below_the_floor_is_empty_at_any_window(lo, hi):
    # At floor 0 the action floor drops TILTED's whole slice, so no window
    # end is needed for a finite answer.
    assert enumerate_generators(TILTED, 3, Fraction(0), lo, hi) == ()


# c = 3, tau = 1: (c-1)*tau = 2, so the action falls as the sphere class
# rises and the floor bounds the class above; the lower level end bounds it below.
STEEP = BundleParams(2, Fraction(1), (CritPoint("p", 0, Fraction(1, 3)), CritPoint("r", 2, Fraction(1, 2))), 1, 3)


def test_enumerate_lower_end_suffices_when_the_floor_bounds_the_class_above():
    got = enumerate_generators(STEEP, 3, Fraction(0), -10, None)
    assert " ".join(map(str, got)) == "(r,1,0,+) (p,2,-1,+) (r,3,-1,+)"
    assert list(got) == ck.enumerate_slice(ck_base(STEEP), 3, Fraction(0), -10, 100)
    with pytest.raises(InfiniteSliceError) as err:
        enumerate_generators(STEEP, 3, Fraction(0), None, 10)
    assert str(err.value) == "infinite slice: (c-1)*tau = 2 >= 1: action no longer controls the sphere class"


def test_enumerate_aspherical_default_window_is_the_level_range(aspherical4_params):
    for twice_mu in (-3, 1, 5, 9):
        derived = enumerate_generators(aspherical4_params, twice_mu, Fraction(-10))
        assert derived == enumerate_generators(aspherical4_params, twice_mu, Fraction(-10), -2, 2)
        assert derived


def test_enumerate_derives_bound_from_action(cp1_params, neg2_params):
    # A missing end is no constraint: the action floor bounds the sphere class.
    # c >= 1: no generator lies below the lower level end the floor implies
    derived = enumerate_generators(cp1_params, 5, Fraction(0), None, 10)
    explicit = enumerate_generators(cp1_params, 5, Fraction(0), -30, 10)
    assert derived == explicit
    # c <= -1: nor above the upper one
    derived = enumerate_generators(neg2_params, 3, Fraction(0), -10, None)
    explicit = enumerate_generators(neg2_params, 3, Fraction(0), -10, 30)
    assert derived == explicit


# --- level/Novikov finiteness equivalence on slices (c >= 1) ---------------


def test_action_finite_iff_level_bounded_on_slices(cp1_params):
    # For every probe, the count of enumerated generators above it is finite
    # and levels above any threshold are realized only finitely often.
    gens = enumerate_generators(cp1_params, 5, Fraction(-20), -40, 40)
    by_level = {}
    for g in gens:
        by_level.setdefault(level(cp1_params, g), []).append(g)
    # every level slice of fixed degree holds at most one generator per
    # critical point once the sphere class is pinned by the level
    assert all(len(v) <= len(cp1_params.morse) for v in by_level.values())
    # actions grow with the level along each critical point: the two
    # finiteness conditions single out the same windows
    for cp_name in ("q0", "q2"):
        series = sorted(
            (level(cp1_params, g), action(cp1_params, g))
            for g in gens
            if g.base == cp_name
        )
        assert all(a < b for (_, a), (_, b) in zip(series, series[1:]))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(-30, 30),
    a=st.integers(-10, 10),
    nu=st.integers(1, 5),
    c=st.integers(-4, 4),
)
def test_cz_fiber_disk_property(n, a, nu, c):
    params = BundleParams(2, Fraction(1, 2), (CritPoint("p", 0, Fraction(1, 3)),), nu, c)
    assert cz_fiber_disk(params, n, a) == 2 * n + 2 * (c - 1) * nu * a
    assert cz_fiber_disk(params, n, 0) == 2 * n


# --- enumeration cost follows the output, not the window -------------------


def test_enumerate_deep_window_returns_the_same_slice(c1_params):
    # The action floor pins the sphere classes, so a lower level bound a
    # million levels down changes neither the result nor (much) the cost.
    near = enumerate_generators(c1_params, 3, Fraction(-2), -1000, 40)
    assert len(near) == 22
    assert enumerate_generators(c1_params, 3, Fraction(-2), -10**6, 40) == near


def test_enumerate_zero_action_slope_keeps_or_drops_whole_slices():
    # (c-1)*tau = 1: the action is constant along each slice, so the floor
    # keeps every level of the window or none of them.
    sizes = []
    for floor in (Fraction(-1), Fraction(-2, 3), Fraction(0), Fraction(5)):
        got = enumerate_generators(TILTED, 3, floor, -10, 10)
        assert list(got) == ck.enumerate_slice(ck_base(TILTED), 3, floor, -10, 10)
        sizes.append(len(got))
    assert sizes == [5, 5, 0, 0]


# Denominators are drawn from pairwise coprime pools, so no one divides another
# and the common action denominator really mixes all of them.
TAU_DENS, VALUE_DENS, FLOOR_DENS = (1, 3, 9), (5, 7, 11, 25), (1, 4, 8, 13)


@st.composite
def integer_key_params(draw, c_values=(-3, -2, -1, 0, 1, 2, 3)):
    dim = draw(st.sampled_from((0, 2, 4)))
    ncrit = draw(st.integers(1, 3))
    crits = []
    for k in range(ncrit):
        den = draw(st.sampled_from(VALUE_DENS))
        value = Fraction(draw(st.integers(1, den - 1)), den)
        crits.append(CritPoint(f"w{k}", draw(st.integers(0, dim)), value))
    tau_den = draw(st.sampled_from(TAU_DENS))
    tau = Fraction(draw(st.integers(1, 4 * tau_den)), tau_den)
    return BundleParams(
        dim, tau, tuple(crits), draw(st.integers(1, 3)), draw(st.sampled_from(c_values))
    )


def floors():
    return st.builds(
        Fraction, st.integers(-60, 60), st.sampled_from(FLOOR_DENS)
    )


@settings(max_examples=150, deadline=None)
@given(
    params=integer_key_params(c_values=(-3, -2, -1, 1, 2, 3)),
    twice_mu=st.integers(-6, 6).map(lambda k: 2 * k + 1),
    floor=floors(),
    lo=st.integers(-15, 15),
    width=st.integers(0, 20),
)
def test_enumerate_matches_level_walk(params, twice_mu, floor, lo, width):
    got = enumerate_generators(params, twice_mu, floor, lo, lo + width)
    assert list(got) == ck.enumerate_slice(ck_base(params), twice_mu, floor, lo, lo + width)


@settings(max_examples=100, deadline=None)
@given(
    params=integer_key_params(c_values=(-3, -2, -1, 1, 2, 3)),
    twice_mu=st.integers(-6, 6).map(lambda k: 2 * k + 1),
    floor=floors(),
    end=st.integers(-15, 15),
    upper=st.booleans(),
)
def test_one_sided_window_matches_the_checker_at_two_far_ends(params, twice_mu, floor, end, upper):
    # A missing end is no constraint.  A returned slice is finite, so the
    # checker's window may end anywhere beyond it; a refused one is infinite,
    # so once the far end reaches the slice, pushing it out finds more
    # generators.  Bases with (c-1)*tau >= 1 are drawn too: there the floor
    # bounds the class above.
    def checker(far):
        window = (-far, end) if upper else (end, far)
        return ck.enumerate_slice(ck_base(params), twice_mu, floor, *window)

    try:
        got = enumerate_generators(params, twice_mu, floor, *((None, end) if upper else (end, None)))
    except InfiniteSliceError:
        far = 64
        while not checker(far) and far < 2**14:  # the drawn floors and slopes start every slice below 2**14
            far *= 2
        assert 0 < len(checker(far)) < len(checker(2 * far))
        return
    far = 64 + 2 * max([abs(end)] + [abs(level(params, g)) for g in got])
    assert list(got) == checker(far) == checker(2 * far)


@settings(max_examples=200, deadline=None)
@given(
    params=integer_key_params(),
    twice_mu=st.integers(-9, 9).map(lambda k: 2 * k + 1),
    floor=floors(),
)
def test_sphere_class_floor_matches_exact_rationals(params, twice_mu, floor):
    # Floor denominators are coprime to tau's and to every critical value's.
    flat = BundleParams(params.dim_m, params.tau, params.morse)
    with pytest.raises(ValueError, match="^sphere classes are trivial in aspherical scenarios$"):
        sphere_class_floor(flat, twice_mu, floor)
    tilt = (params.c - 1) * params.tau
    if tilt >= 1:
        with pytest.raises(ValueError) as err:
            sphere_class_floor(params, twice_mu, floor)
        assert str(err.value) == f"(c-1)*tau = {tilt} >= 1: action no longer controls the sphere class"
    else:
        got = sphere_class_floor(params, twice_mu, floor)
        if params.c:  # no generator above the floor lies below the bound
            assert all(g[2] >= got for g in ck.enumerate_slice(ck_base(params), twice_mu, floor, -40, 40))
            if (twice_mu + params.dim_m + 1) % 4 == 0:  # and a generator of index dim_M can reach it
                assert got == checker_sphere_class_floor(params, twice_mu, floor, got)


@pytest.mark.parametrize("name", ["c0", "c1", "cp1", "neg2", "neg4"])
def test_sphere_class_floor_is_exact_on_the_boundary(name):
    # A floor exactly on the bound of class a gives a and any floor above it
    # a + 1; random floors almost never land on a bound.  Where a generator
    # of index dim_M reaches the bound (c != 0 and the degree's residue), the
    # checker's enumeration finds class a too.
    params = params_of(name)
    per_class = (1 - (params.c - 1) * params.tau) * params.nu
    least = (params.tau + 1) * min(cp.value for cp in params.morse)
    for twice_mu in (-3, -1, 1, 3, 5):
        peak = Fraction(twice_mu + params.dim_m + 1, 4) * params.tau
        for a in range(-3, 4):
            floor = a * per_class + peak - least
            if params.c and (twice_mu + params.dim_m + 1) % 4 == 0:
                assert checker_sphere_class_floor(params, twice_mu, floor, a) == a
            assert sphere_class_floor(params, twice_mu, floor) == a
            assert sphere_class_floor(params, twice_mu, floor + Fraction(1, 10**9)) == a + 1


def generators_of(params):
    return st.builds(
        G,
        st.sampled_from([cp.name for cp in params.morse]),
        st.integers(-8, 8),
        st.integers(-4, 4),
        st.sampled_from("+-"),
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), params=integer_key_params(), floor=floors())
def test_integer_keys_agree_with_exact_rationals(data, params, floor):
    gens = data.draw(st.lists(generators_of(params), min_size=1, max_size=12, unique=True))
    base = ck_base(params)
    exact = {g: ck.action(base, g) for g in gens}
    assert all(action(params, g) == exact[g] for g in gens)
    # grading and level; the aspherical twin of the base refuses a nonzero
    # sphere class and agrees with the closed forms on class 0
    flat = BundleParams(params.dim_m, params.tau, params.morse)
    flat_base = ck_base(flat)
    for g in gens:
        assert grading(params, g) == ck.twice_mu(base, g)
        assert level(params, g) == ck.level(base, g)
        if g.sphere:
            for invariant in (action, grading, level):
                with pytest.raises(ValueError, match=f"^aspherical scenario forces sphere class 0, got {g.sphere}$"):
                    invariant(flat, g)
        else:
            assert (action(flat, g), grading(flat, g), level(flat, g)) == (
                ck.action(flat_base, g), ck.twice_mu(flat_base, g), ck.level(flat_base, g))
    # canonical order
    assert list(canonical_sort(params, gens)) == sorted(gens, key=lambda g: ck.order_key(base, g))
    # every floor test (truncation and the chain constructor), also
    # at a floor that one generator's action meets exactly
    for bar in (floor, exact[gens[0]]):
        above = {g for g in gens if exact[g] >= bar}
        kept, dropped = truncate(params, Chain(7, bar, frozenset(gens)))
        assert kept.terms == above and set(dropped) == set(gens) - above
        for g in gens:
            if exact[g] >= bar:
                build_chain(params, [g], bar)
            else:
                with pytest.raises(ValueError, match="below the floor"):
                    build_chain(params, [g], bar)
    # validate_entry's action rule, including the exact values it quotes
    for src, tgt in zip(gens, gens[1:]):
        lines = validate_entry(params, HigherDifferentialEntry(1, src, tgt))
        action_lines = [line for line in lines if line.startswith("action:")]
        if exact[tgt] > exact[src]:
            assert action_lines == [
                f"action: target action {exact[tgt]} exceeds source action {exact[src]}"
            ]
        else:
            assert action_lines == []
