from fractions import Fraction
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

import checker as ck
from conftest import (
    BUNDLE_KINDS,
    CASE_SCENARIOS,
    assert_drop_partition,
    ck_base,
    decoded_candidates,
    draw_bundle,
    params_of,
    scenario_path,
    synthetic_params,
)
from rabinowitz import (
    CaseTag,
    ClassReport,
    Chain,
    FilteredDifferential,
    Generator,
    HigherDifferentialEntry,
    InductionError,
    NotClosedError,
    action,
    add,
    apply_d0,
    apply_total,
    build_chain,
    d0_primitive,
    enumerate_generators,
    find_primitive,
    grading,
    level_floor,
    load_scenario,
    load_table,
    random_admissible_table,
    random_boundary,
    scalar_shift,
    truncate,
    verify_primitive,
    zero_chain,
)
from rabinowitz import cli, vanishing
from rabinowitz.bundle import BundleParams, CritPoint
from rabinowitz.cli import _default_window
from rabinowitz.differentials import _fiber_primitive, _raw_step, _table_image
from rabinowitz.generators import _floor_key, _invariants

G = Generator
FLOOR = Fraction(-30)


# --- level bounds ------------------------------------------------------------


def _boundary(params, eta_terms, floor):
    """The closed chain d(eta) under the fiber-only table, with the table."""
    d = load_table(params, [])
    xi, _ = apply_total(d, build_chain(params, eta_terms, floor))
    return d, xi


def test_level_ceiling_c0_clamped(c0_params):
    # The one term sits at level -1; c = 0 pins the start at dim_M/2 anyway.
    d, xi = _boundary(c0_params, [G("q2", 1, 0, "-")], Fraction(-2))
    assert xi.terms == {G("q2", 0, 0, "+")}
    result = find_primitive(d, xi)
    assert result.ok and result.level_ceiling == c0_params.dim_m // 2 == 1


def test_level_ceiling_max_level(cp1_params):
    d, xi = _boundary(cp1_params, [G("q0", 1, 0, "-"), G("q0", 0, 1, "-")], Fraction(-1))
    assert xi.terms == {G("q0", 0, 0, "+"), G("q0", -1, 1, "+")}  # levels 1 and 5
    result = find_primitive(d, xi)
    assert result.ok and result.level_ceiling == 5
    d, single = _boundary(cp1_params, [G("q0", 1, 0, "-")], Fraction(-1))
    assert find_primitive(d, single).level_ceiling == 1


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


TILT_TEXT = r"^\(c-1\)\*tau = 2 >= 1: action no longer controls the sphere class$"


def test_level_floor_rejects_large_c_tau():
    params = BundleParams(
        2, Fraction(2), (CritPoint("p", 0, Fraction(1, 3)),), 1, 2
    )
    with pytest.raises(ValueError, match=TILT_TEXT):
        level_floor(params, 3, Fraction(0))


@pytest.fixture
def enumerations(monkeypatch):
    """The certificate enumerations level_floor runs, counted from a cold memo."""
    vanishing._certified_bound.cache_clear()
    calls = []
    real = vanishing.enumerate_generators

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(vanishing, "enumerate_generators", counted)
    yield calls
    vanishing._certified_bound.cache_clear()


def test_level_floor_certifies_once_per_bundle_degree_and_floor(enumerations):
    params, again = params_of("cp1"), params_of("cp1")
    assert params == again and params is not again
    first = level_floor(params, 5, -3)
    assert level_floor(again, 5, Fraction(-3)) is first
    assert len(enumerations) == 1
    # another degree, floor or bundle is certified anew
    level_floor(params, 3, Fraction(-3))
    level_floor(params, 5, Fraction(-7, 2))
    level_floor(params_of("c1"), 5, Fraction(-3))
    assert len(enumerations) == 4


def test_level_floor_rechecks_a_failed_certificate(cp1_params, enumerations, monkeypatch):
    # A least level set too high leaves generators in the certificate window:
    # 10 more sphere classes are 40 more levels on cp1 (level step 4).
    real = vanishing.sphere_class_floor
    monkeypatch.setattr(vanishing, "sphere_class_floor", lambda *args: real(*args) + 10)
    for _ in range(3):
        with pytest.raises(InductionError, match="level bound certificate failed"):
            level_floor(cp1_params, 5, Fraction(-3))
    assert len(enumerations) == 3


def test_level_floor_refuses_on_every_call(neg2_params, enumerations):
    large = BundleParams(2, Fraction(2), (CritPoint("p", 0, Fraction(1, 3)),), 1, 2)
    for _ in range(3):
        with pytest.raises(ValueError, match="level floor undefined in case c-very-negative"):
            level_floor(neg2_params, 3, Fraction(0))
        with pytest.raises(ValueError, match=TILT_TEXT):
            level_floor(large, 3, Fraction(0))
    assert enumerations == []


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
    assert check.chain.is_zero


def test_cp1_with_scenario_table(cp1):
    params = cp1.bundle
    d = load_table(params, cp1.entries)
    xi = cp1.cycles["xi0"]
    result = find_primitive(d, xi)
    assert result.ok
    assert result.theta.terms == {G("q0", 1, 0, "-"), G("q2", 2, 0, "-")}
    # the induction walked two levels and recorded both certified bounds
    assert result.level_ceiling == 1
    assert [lv for lv, _ in result.theta_parts] == [1, -1]
    assert len(result.bounds) == 2


def test_theta_parts_independent_of_floor_depth(cp1):
    # The induction visits only levels that hold terms, so moving the floor
    # down changes the certified stop level but not the construction.
    d = load_table(cp1.bundle, cp1.entries)
    xi = cp1.cycles["xi0"]
    for floor in (-1, -1000, -20000):
        result = find_primitive(d, Chain(xi.degree, Fraction(floor), xi.terms))
        assert result.ok
        assert list(result.theta_parts) == [
            (1, {G("q0", 1, 0, "-")}),
            (-1, {G("q2", 2, 0, "-")}),
        ]


def test_each_level_is_visited_once():
    # wide_primitive's c = 1 base and table: a 100-term boundary spread over
    # many levels.  The induction pops each pending level once, highest first.
    params = synthetic_params(3, 2, 1, 2, Fraction(3, 4))
    d = random_admissible_table(params, 7, (3, 5, 7), Fraction(-20), -12, 12, size=4)
    xi, _ = random_boundary(params, d, 1, 3, Fraction(-120), -200, 200, size=100)
    result = find_primitive(d, xi)
    levels = [lv for lv, _ in result.theta_parts]
    assert result.ok and len(levels) > 50
    assert all(a > b for a, b in zip(levels, levels[1:]))


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
        vanishing, "level_floor", lambda *args: real(*args)._replace(l_min=0)
    )
    d = load_table(cp1.bundle, cp1.entries)
    with pytest.raises(InductionError) as info:
        find_primitive(d, cp1.cycles["xi0"])
    assert str(info.value) == (
        "correction terms survived below the certified stop level 0: levels [-1]"
    )


def _drop_a_term(th):
    return th - {min(th)}


def _add_a_minus_term(th):
    g = min(th)  # same base and class, so the same level
    return th | {G(g.base, g.cover + 1, g.sphere, "-")}


@pytest.mark.parametrize("corrupt, residual", [
    (_drop_a_term, [G("q0", 0, 0, "+")]),
    (_add_a_minus_term, [G("q0", 1, 0, "+"), G("q2", 2, 0, "+")]),
], ids=["_drop_a_term", "_add_a_minus_term"])
def test_induction_rejects_a_wrong_fiber_primitive(cp1, monkeypatch, capsys, corrupt, residual):
    # The induction takes d0(theta_l) = r_l as given and folds only each
    # part's table image, so a wrong primitive is caught by the closing
    # verification: its residual is nonempty, and the CLI exits 3.  Each
    # theta part the induction returns is corrupted.
    real = vanishing._descend

    def wrong(*args):
        return [(l, frozenset(corrupt(th))) for l, th in real(*args)]

    monkeypatch.setattr(vanishing, "_descend", wrong)
    d = load_table(cp1.bundle, cp1.entries)
    result = find_primitive(d, cp1.cycles["xi0"])
    assert not result.ok
    assert sorted(result.residual.terms) == residual and result.dropped == ()
    code = cli.main(["primitive", "--scenario", str(scenario_path("cp1")), "--cycle", "xi0"])
    out = capsys.readouterr().out.splitlines()
    terms = " ".join(map(str, residual))
    assert code == 3
    assert out[-2:] == [f"residual: degree=3 floor=-1 terms: {terms}", "verification FAILED"]


# --- the fold against the per-level reference ---------------------------------


def _reference_descend(d, pending, floor, stop):
    """The level induction with a call per level, the oracle of the engine's
    inline fold: each bucket's fiber primitive from ``_fiber_primitive``,
    then the part's table image from ``_table_image``, one read per target.
    The loop, heap, checks and error texts are the engine's."""
    params = d.params
    bar = _floor_key(params, floor)
    heap = [-lv for lv in pending]
    heapify(heap)
    theta = []
    while heap:
        l = -heappop(heap)
        terms = pending.pop(l)
        if not terms:
            continue
        if l < stop:
            leftovers = sorted([l] + [lv for lv, gens in pending.items() if gens])
            raise InductionError(
                f"correction terms survived below the certified stop level {stop}: levels {leftovers}"
            )
        try:
            th = _fiber_primitive(params, terms)
        except ValueError as err:
            raise InductionError(
                f"higher-differential table inconsistent with the level induction at level {l}: {err}"
            ) from None
        theta.append((l, th))
        for g in _table_image(d, th):
            lv, _, key = _invariants(params, g)
            if key < bar:
                continue
            if lv >= l:
                raise InductionError(f"higher differential failed to drop the level at {l}")
            bucket = pending.get(lv)
            if bucket is None:
                pending[lv] = {g}
                heappush(heap, -lv)
            elif g in bucket:
                bucket.remove(g)
            else:
                bucket.add(g)
    return theta


def _outcome(d, xi):
    """find_primitive's result, or the text of the InductionError it raises."""
    try:
        return find_primitive(d, xi)
    except InductionError as err:
        return str(err)


def _reference_outcome(d, xi):
    """:func:`_outcome` with the reference induction in place of the engine's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vanishing, "_descend", _reference_descend)
        return _outcome(d, xi)


@pytest.mark.parametrize("kind", BUNDLE_KINDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_fold_matches_the_per_level_reference(kind, data):
    # Seeded tables on every kind of base, boundaries spread over sphere
    # classes, and the fold-target cycle, each also at its least action as
    # the floor, where the fold skips the targets below it: the two
    # inductions give equal results, theta parts included.
    params, d, degree, window = _random_case(data.draw, kind)
    (xi1, _), (xi2, _) = (_boundary_of(data.draw, params, d, degree, window) for _ in range(2))
    for d, xi in [(d, xi1), (d, xi2), _fold_target_case(data.draw, params, window)]:
        least = min((action(d.params, g) for g in xi.terms), default=xi.floor)
        for cycle in (xi, xi._replace(floor=least)):
            engine = find_primitive(d, cycle)
            reference = _reference_outcome(d, cycle)
            assert engine.theta_parts == reference.theta_parts and engine == reference


def test_fold_refuses_as_the_reference_does(cp1, neg2_params, monkeypatch):
    # Tables built directly, so never validated: each refusal of the
    # induction, with its full text, is the reference's.  The last cp1 table
    # folds a - correction into the bucket at level -1 next to xi's term
    # (q2,1,0,+), whose own target stays at level 1: the bucket's - check
    # runs before any of its targets is folded, so the refusal names the -
    # term and not the level.
    xi = cp1.cycles["xi0"]
    two = build_chain(cp1.bundle, [G("q0", 0, 0, "+"), G("q2", 1, 0, "+")], xi.floor)
    entry = HigherDifferentialEntry
    cases = [
        (FilteredDifferential(cp1.bundle, (entry(2, G("q0", 1, 0, "-"), G("q2", 1, 0, "-")),)), xi),
        (FilteredDifferential(cp1.bundle, (entry(2, G("q0", 1, 0, "-"), G("q0", 0, 0, "+")),)), xi),
        (FilteredDifferential(neg2_params, (entry(2, G("q0", 1, 0, "-"), G("q0", 0, 1, "+")),)),
         build_chain(neg2_params, [G("q0", 0, 0, "+")], Fraction(-100))),
        (FilteredDifferential(cp1.bundle, (entry(2, G("q0", 1, 0, "-"), G("q2", 1, 0, "-")),
                                           entry(-2, G("q2", 2, 0, "-"), G("q0", 0, 0, "+")))), two),
    ]
    texts = [(_outcome(d, xi), _reference_outcome(d, xi)) for d, xi in cases]
    real = vanishing.level_floor
    monkeypatch.setattr(vanishing, "level_floor", lambda *args: real(*args)._replace(l_min=0))
    d = load_table(cp1.bundle, cp1.entries)
    texts.append((_outcome(d, xi), _reference_outcome(d, xi)))
    refused = "higher-differential table inconsistent with the level induction at level -1: "
    assert [engine for engine, _ in texts] == [reference for _, reference in texts] == [
        refused + "not d0-closed: chain contains - generators: (q2,1,0,-)",
        "higher differential failed to drop the level at 1",
        "correction terms survived below the certified stop level -1: levels [-3]",
        refused + "not d0-closed: chain contains - generators: (q2,1,0,-)",
        "correction terms survived below the certified stop level 0: levels [-1]",
    ]


@pytest.mark.parametrize("name", CASE_SCENARIOS)
def test_primitive_drop_report_partitions_the_residual(name):
    scenario = load_scenario(scenario_path(name))
    params, xi = scenario.bundle, scenario.cycles["xi0"]
    window = _default_window(params, xi)  # as `primitive --random-table` samples
    for seed in range(40):
        d = random_admissible_table(params, seed, (xi.degree, xi.degree + 2), xi.floor, *window)
        result = find_primitive(d, xi)
        untruncated = _raw_step(d, result.theta.terms) ^ xi.terms
        assert_drop_partition(result.residual.terms, result.dropped, untruncated)


@pytest.mark.parametrize("name", CASE_SCENARIOS)
def test_results_do_not_depend_on_the_level_bound_memo(name):
    scenario = load_scenario(scenario_path(name))
    params, xi = scenario.bundle, scenario.cycles["xi0"]
    window = _default_window(params, xi)  # as `primitive --random-table` samples
    for seed in range(20):
        d = random_admissible_table(params, seed, (xi.degree, xi.degree + 2), xi.floor, *window)
        vanishing._certified_bound.cache_clear()
        cold = find_primitive(d, xi)
        assert find_primitive(d, xi) == cold
        # The CLI prints each part as a chain at theta's degree and floor.
        rendered = cli._labelled_parts(cold)
        assert [part.terms for _, part in rendered] == [terms for _, terms in cold.theta_parts]
        for _, part in rendered:
            assert (part.degree, part.floor) == (xi.degree + 2, xi.floor + params.tau)
            r = apply_d0(params, part)
            assert d0_primitive(params, r).terms == _fiber_primitive(params, r.terms) == part.terms


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
    assert check.chain.terms == {G("q2", 1, 0, "+")}


def test_verify_unconditional_on_non_closed_input(cp1_params):
    d = load_table(cp1_params, [])
    xi = build_chain(cp1_params, [G("q0", 1, 0, "-")], Fraction(-1))  # not closed
    theta = zero_chain(7, Fraction(-1))
    check = verify_primitive(d, xi, theta)
    assert check.chain == xi  # residual is d(0) + xi


def test_verify_sums_before_it_truncates(cp1_params):
    # d(theta) + xi is truncated once: a term below xi's floor that both
    # summands hold cancels, and is neither kept nor dropped.
    d = load_table(cp1_params, [])
    g = G("q0", 1, 0, "-")
    h = g.fiber_partner()
    floor = action(cp1_params, h) + Fraction(1, 100)  # h lies below it
    xi = Chain(grading(cp1_params, h), floor, frozenset({h}))
    theta = Chain(xi.degree + 2, floor + cp1_params.tau, frozenset({g}))
    assert verify_primitive(d, xi, theta) == (zero_chain(xi.degree, floor), ())
    bare = verify_primitive(d, xi._replace(terms=frozenset()), theta)
    assert bare == (zero_chain(xi.degree, floor), (h,))


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
            assert check.chain.is_zero
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


def _random_case(draw, kind: str):
    """A supported random base of the kind, a seeded table on degrees
    (degree, degree + 2, degree + 4) and the sampling window (floor -20)."""
    params = draw_bundle(draw, kind)
    assume(params.refusal is None)
    degree = 2 * draw(st.integers(-3, 3)) + 1
    pad = params.dim_m + 2 * abs(params.level_step) + 2
    window = (Fraction(-20), -pad, pad)
    d = random_admissible_table(params, draw(st.integers(0, 999)),
                                (degree, degree + 2, degree + 4), *window)
    return params, d, degree, window


def _boundary_of(draw, params, d, degree, window):
    """A random boundary xi = d(eta) on the case's window, as (xi, eta)."""
    return random_boundary(params, d, draw(st.integers(0, 999)), degree, *window, size=5)


@pytest.mark.parametrize("kind", BUNDLE_KINDS)
@settings(max_examples=40, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(data=st.data())
def test_primitive_on_random_bundles_checked_by_the_checker(kind, data):
    # The kind is fixed first, so every run covers every case tag.  A seeded
    # table and a known boundary xi = d(eta) on a random bundle; the checker,
    # not the engine, confirms that the table obeys the six rules and squares
    # to zero at shifts -1, 0 and 1, that d(theta) = xi above the floor, that
    # theta lies at or above floor + tau and, outside the very-negative case,
    # at or above the stop level, and in that case each class report's counts
    # and largest gap.  Bundles the algorithm refuses are skipped.
    # A failure is shrunk but not explained: the explain phase traces every
    # line of each replayed induction, which doubled the time of a failing run.
    tag = BUNDLE_KINDS[kind][0]
    params, d, degree, window = _random_case(data.draw, kind)
    assert params.case.tag is tag
    tau = params.tau
    base = ck_base(params)
    assert ck.table_violations(base, d.entries) == []
    assert ck.square_defects(base, d.entries, shifts=(-1, 0, 1)) == []
    for _ in range(3):
        xi, _ = _boundary_of(data.draw, params, d, degree, window)
        result = find_primitive(d, xi)
        theta = result.theta.terms
        assert ck.boundary_above(base, d.entries, theta, xi.floor) == xi.terms
        assert all(ck.action(base, g) >= xi.floor + tau for g in theta)
        if tag is not CaseTag.C_VERY_NEGATIVE:
            assert all(ck.level(base, g) >= result.stop_level for g in theta)
            continue
        assert [rep.sphere for rep in result.class_reports] == sorted({g[2] for g in xi.terms})
        for rep in result.class_reports:
            xs = [ck.action(base, g) for g in xi.terms if g[2] == rep.sphere]
            gaps = [min(abs(ck.action(base, g) - x) for x in xs)
                    for g in theta if g[2] == rep.sphere]
            assert (rep.cycle_terms, rep.theta_terms) == (len(xs), len(gaps))
            assert rep.max_gap == (max(gaps) if gaps else None)


# --- the Z/2 laws of the construction ------------------------------------------
#
# When find_primitive succeeds, theta is a function of xi that is linear over
# Z/2, commutes with refining the floor (up to xi's least action) and with
# the Novikov shift, and differs from any primitive of xi by a cycle.  The
# laws hold at any size, and the first three need no oracle, so a fold that
# loses a cancellation, a bucket kept between calls, a wrong floor test or a
# wrong shift breaks one of them.


@pytest.mark.parametrize("kind", BUNDLE_KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_theta_is_linear_over_z2(kind, data):
    params, d, degree, window = _random_case(data.draw, kind)
    (xi1, _), (xi2, _) = (_boundary_of(data.draw, params, d, degree, window) for _ in range(2))
    xi, dropped = add(params, xi1, xi2)
    assert not dropped
    theta = find_primitive(d, xi).theta
    assert theta.terms == find_primitive(d, xi1).theta.terms ^ find_primitive(d, xi2).theta.terms


def _fold_target_case(draw, params, window):
    """A one-entry table and a cycle xi whose one fold target lies under
    xi's least action, as (table, xi).

    The base gains a point of index 0 at value 1/100 and one of index 2 at
    99/100, and the entry runs from a - generator s at the first to a +
    generator t at the second, two levels down, with t's action under that
    of d0(s).  Then xi = d(s + u), u the fiber primitive of t, is d0(s): its
    induction folds t, and u, which kills t, is a theta term that the floor
    at xi's least action cuts.  u is no table source, so the cut leaves
    nothing of its table image above the floor.  The pair at sphere class 0
    and cover 0 has t 98/100*(tau+1) under d0(s), more than tau for every
    tau the kinds draw (at most 3), so every base has one; the entry is
    drawn from all such pairs on the window.
    """
    points = (CritPoint("top", 0, Fraction(1, 100)), CritPoint("bottom", 2, Fraction(99, 100)))
    params = BundleParams(params.dim_m, params.tau, params.morse + points, params.nu, params.c)
    degree = params.dim_m - 3  # the degree of d0(s) and t
    pairs = [e for e in decoded_candidates(params, (degree, degree + 2), *window)
             if (e.source.base, e.source.sign) == ("top", "-")
             and (e.target.base, e.target.sign) == ("bottom", "+")
             and action(params, e.target) < action(params, e.source) - params.tau]
    entry = draw(st.sampled_from(pairs))
    d = load_table(params, [entry])
    xi, _ = apply_total(d, build_chain(params, [entry.source, entry.target.fiber_partner()], window[0]))
    return d, xi


@pytest.mark.parametrize("kind", BUNDLE_KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_theta_commutes_with_refining_the_floor(kind, data):
    # xi at floor f, for any f from -20 up to xi's least action, has the
    # primitive theta(xi at -20) truncated at f + tau.  The floors run
    # through the actions of theta(xi at -20), less tau, so the truncations
    # may cut terms; a sampled table seldom places a fold target under a
    # random boundary's least action, so each example also checks a cycle
    # whose floors cut theta on every kind.  A floor above a term of xi is
    # left out: there a kept theta term may only cancel the table image of a
    # dropped one, so the primitive of what is left need not be a truncation.
    params, d, degree, window = _random_case(data.draw, kind)
    xi_deep, _ = _boundary_of(data.draw, params, d, degree, window)
    for d, xi_deep in [(d, xi_deep), _fold_target_case(data.draw, params, window)]:
        theta_deep = find_primitive(d, xi_deep).theta
        least = min((action(d.params, g) for g in xi_deep.terms), default=Fraction(0))
        floors = {least} | {action(d.params, g) - d.params.tau for g in theta_deep.terms}
        cut = 0
        for f in sorted(f for f in floors if f <= least):
            expected, dropped = truncate(d.params, theta_deep._replace(floor=f + d.params.tau))
            assert find_primitive(d, xi_deep._replace(floor=f)).theta == expected
            cut += len(dropped)
    assert cut  # on the fold-target cycle, checked last


@pytest.mark.parametrize("kind", [kind for kind in BUNDLE_KINDS if kind != "aspherical"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_theta_commutes_with_the_novikov_shift(kind, data):
    params, d, degree, window = _random_case(data.draw, kind)
    xi, _ = _boundary_of(data.draw, params, d, degree, window)
    theta = find_primitive(d, xi).theta
    for a in (-1, 1, 2):
        assert find_primitive(d, scalar_shift(params, xi, a)).theta == scalar_shift(params, theta, a)


@pytest.mark.parametrize("kind", BUNDLE_KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_theta_differs_from_a_known_primitive_by_a_cycle(kind, data):
    # xi = d(eta), and d(theta) = xi above the floor, so by the checker's
    # differential theta + eta is a cycle above it.
    params, d, degree, window = _random_case(data.draw, kind)
    xi, eta = _boundary_of(data.draw, params, d, degree, window)
    theta = find_primitive(d, xi).theta.terms
    assert ck.boundary_above(ck_base(params), d.entries, theta ^ eta.terms, xi.floor) == set()


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
    assert d.params.case.tag is CaseTag.C_VERY_NEGATIVE
    assert result_a.gap_constant == (
        neg2_params.tau / 2 * neg2_params.dim_m
        + neg2_params.max_value
        - neg2_params.min_value
    )
    spheres_in_xi = {g.sphere for g in xi_a.terms}
    assert {rep.sphere for rep in result_a.class_reports} == spheres_in_xi
    for rep in result_a.class_reports:
        assert rep.gap_ok
        # the gap certificate, recomputed on exact actions
        cycle = [action(neg2_params, g) for g in xi_a.terms if g.sphere == rep.sphere]
        theta = [action(neg2_params, g) for g in result_a.theta.terms if g.sphere == rep.sphere]
        assert rep.max_gap == max(min(abs(t - c) for c in cycle) for t in theta)
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


def test_multi_class_result_is_pinned(neg4_params):
    # Four classes in one cycle; classes 0 and 1 share level -2, and the
    # labels stay class-major with levels descending within each class.
    d = random_admissible_table(neg4_params, 0, (5, 7, 9), FLOOR, -12, 12)
    xi, _ = random_boundary(neg4_params, d, 0, 5, FLOOR, -12, 12, size=6)
    assert sorted(map(str, xi.terms)) == [
        "(r0,-6,-2,+)", "(r0,0,0,+)", "(r0,3,1,+)", "(r4,5,1,+)", "(r4,8,2,+)",
    ]
    result = find_primitive(d, xi)
    assert result.ok and not result.dropped
    assert [(lv, sorted(map(str, terms))) for lv, terms in result.theta_parts] == [
        (10, ["(r0,-5,-2,-)"]),
        (6, ["(r4,-3,-2,-)"]),
        (2, ["(r0,1,0,-)"]),
        (-2, ["(r4,3,0,-)"]),
        (-2, ["(r0,4,1,-)"]),
        (-10, ["(r4,9,2,-)"]),
    ]
    # The CLI labels each part by its one class and its level, and prints it
    # as a chain at theta's degree and floor.
    rendered = cli._labelled_parts(result)
    assert [label for label, _ in rendered] == [
        "class=-2,level=10", "class=-2,level=6", "class=0,level=2",
        "class=0,level=-2", "class=1,level=-2", "class=2,level=-10",
    ]
    assert {(part.degree, part.floor) for _, part in rendered} == {(7, Fraction(-59, 2))}
    assert result.class_reports == (
        ClassReport(-2, 1, 2, Fraction(3, 4), True),
        ClassReport(0, 1, 2, Fraction(3, 4), True),
        ClassReport(1, 2, 1, Fraction(1, 4), True),
        ClassReport(2, 1, 1, Fraction(1, 2), True),
    )
    assert result.gap_constant == Fraction(3, 2)
    assert (result.level_ceiling, result.stop_level, result.bounds) == (None, None, ())


def test_class_gap_is_measured_within_the_class():
    # With tau = 3, class -3's theta term lies 9/5 in action from class -2's
    # cycle term but 3 from its own class's one: the gap stays in the class.
    params = BundleParams(
        4, Fraction(3), (CritPoint("p0", 0, Fraction(1, 20)), CritPoint("p1", 4, Fraction(1, 4))), 1, -2
    )
    d, xi = _boundary(params, [G("p0", -6, -2, "-"), G("p1", -7, -3, "-")], FLOOR)
    assert xi.terms == {G("p0", -7, -2, "+"), G("p1", -8, -3, "+")}
    assert action(params, G("p1", -7, -3, "-")) - action(params, G("p0", -7, -2, "+")) == Fraction(-9, 5)
    result = find_primitive(d, xi)
    assert result.ok and d.params.case.tag is CaseTag.C_VERY_NEGATIVE
    assert result.class_reports == (
        ClassReport(-3, 1, 1, Fraction(3), True),
        ClassReport(-2, 1, 1, Fraction(3), True),
    )


def test_class_changing_table_ends_in_an_error(neg2_params):
    # Built directly, so the table is never validated: its entry moves a
    # term from class 0 to class 1, and the stop of the cycle's classes
    # ends the run instead of a descent without end.
    entry = HigherDifferentialEntry(2, G("q0", 1, 0, "-"), G("q0", 0, 1, "+"))
    d = FilteredDifferential(neg2_params, (entry,))
    xi = build_chain(neg2_params, [G("q0", 0, 0, "+")], Fraction(-100))
    with pytest.raises(InductionError) as info:
        find_primitive(d, xi)
    assert str(info.value) == (
        "correction terms survived below the certified stop level -1: levels [-3]"
    )


def test_class_the_cycle_lacks_ends_in_an_error(neg2_params):
    # Built directly, so the table is never validated: its entry sends the
    # class-0 theta term into class 1 at a level the run still visits, so
    # theta gains a class with no cycle terms to report on.
    entry = HigherDifferentialEntry(2, G("q0", 1, 0, "-"), G("q0", -1, 1, "+"))
    d = FilteredDifferential(neg2_params, (entry,))
    xi = build_chain(neg2_params, [G("q0", 0, 0, "+")], Fraction(-100))
    with pytest.raises(InductionError) as info:
        find_primitive(d, xi)
    assert str(info.value) == "theta has terms in sphere classes the cycle lacks: [1]"


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
