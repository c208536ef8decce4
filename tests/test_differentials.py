import random
import re
from fractions import Fraction

import pytest

import checker as ck
from conftest import (
    CASE_SCENARIOS,
    assert_drop_partition,
    ck_pool,
    decoded_candidates,
    params_of,
)
from rabinowitz import (
    Chain,
    Generator,
    HigherDifferentialEntry,
    TableValidationError,
    action,
    add,
    apply_d0,
    apply_table,
    apply_total,
    build_chain,
    d0_primitive,
    enumerate_generators,
    level,
    load_table,
    random_admissible_table,
    random_chain,
    scalar_shift,
    split_by_level,
    truncate,
    validate_entry,
    zero_chain,
)
from rabinowitz.differentials import _raw_step
from rabinowitz.randomized import _load_with_repair

G = Generator
E = HigherDifferentialEntry
FLOOR = Fraction(-30)


# --- fiber differential -----------------------------------------------------


def test_apply_d0_goldens(cp1_params):
    x = build_chain(cp1_params, [G("q0", 1, 0, "-")], Fraction(0))
    assert apply_d0(cp1_params, x).terms == {G("q0", 0, 0, "+")}
    y = build_chain(cp1_params, [G("q0", 3, 2, "+")], Fraction(0))
    assert apply_d0(cp1_params, y).is_zero


def test_apply_d0_degree_floor_action(cp1_params):
    x = build_chain(cp1_params, [G("q0", 1, 0, "-")], Fraction(0))
    img = apply_d0(cp1_params, x)
    assert img.degree == x.degree - 2
    assert img.floor == x.floor - cp1_params.tau
    (src,), (tgt,) = x.terms, img.terms
    assert action(cp1_params, src) - action(cp1_params, tgt) == cp1_params.tau
    # image stays in the fiber: base and sphere class are preserved
    assert (tgt.base, tgt.sphere) == (src.base, src.sphere)
    assert level(cp1_params, tgt) == level(cp1_params, src)


def window_pool(params, degrees, lo=-8, hi=8):
    out = []
    for tm in degrees:
        out.extend(enumerate_generators(params, tm, FLOOR, lo, hi))
    return out


def test_d0_squares_to_zero_on_windows(cp1_params, aspherical4_params, neg2_params):
    for params, degrees in (
        (cp1_params, (-3, 1, 5, 9)),
        (aspherical4_params, (-1, 3, 5, 7)),
        (neg2_params, (-1, 3, 5)),
    ):
        pool = window_pool(params, degrees)
        assert pool
        for g in pool:
            x = build_chain(params, [g], FLOOR)
            assert apply_d0(params, apply_d0(params, x)).is_zero


def test_d0_primitive_golden(cp1_params):
    x = build_chain(cp1_params, [G("q0", 0, 0, "+")], Fraction(-1))
    th = d0_primitive(cp1_params, x)
    assert th.terms == {G("q0", 1, 0, "-")}
    assert th.degree == x.degree + 2
    assert th.floor == x.floor + cp1_params.tau
    assert apply_d0(cp1_params, th).terms == x.terms


def test_d0_primitive_empty(cp1_params):
    assert d0_primitive(cp1_params, zero_chain(3, Fraction(0))).is_zero


def test_d0_primitive_rejects_minus_generators(cp1_params):
    x = build_chain(cp1_params, [G("q0", 1, 0, "-")], Fraction(0))
    with pytest.raises(ValueError, match="not d0-closed"):
        d0_primitive(cp1_params, x)
    # Every - term is named, in canonical order, whatever the set's order.
    mixed = [G("q2", 1, 0, "-"), G("q0", 2, 0, "-"), G("q0", 0, 0, "+"), G("q0", 1, -1, "-"),
             G("q2", 3, 1, "-"), G("q0", 0, 2, "-"), G("q2", -1, 0, "-")]
    text = ("not d0-closed: chain contains - generators: "
            "(q0,0,2,-) (q2,3,1,-) (q0,2,0,-) (q2,1,0,-) (q2,-1,0,-) (q0,1,-1,-)")
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        d0_primitive(cp1_params, Chain(3, Fraction(-5), frozenset(mixed)))


def test_d0_round_trips_on_windows(cp1_params, aspherical4_params, neg2_params):
    for params, degrees in (
        (cp1_params, (1, 5)),
        (aspherical4_params, (3, 5)),
        (neg2_params, (3, 5)),
    ):
        for tm in degrees:
            plus = [
                g
                for g in enumerate_generators(params, tm, FLOOR, -8, 8)
                if g.sign == "+"
            ]
            if not plus:
                continue
            x = Chain(tm, FLOOR, frozenset(plus))
            assert apply_d0(params, d0_primitive(params, x)).terms == x.terms


# --- entry validation: six rules, violating and compliant -------------------


def test_rule_grading(cp1_params):
    bad = validate_entry(cp1_params, E(2, G("q0", 1, 0, "-"), G("q2", 1, 0, "-")))
    assert any(v.startswith("grading:") for v in bad)
    ok = validate_entry(cp1_params, E(2, G("q0", 1, 0, "-"), G("q2", 1, 0, "+")))
    assert ok == ()


def test_rule_level(cp1_params):
    bad = validate_entry(cp1_params, E(1, G("q0", 1, 0, "-"), G("q2", 1, 0, "+")))
    assert any(v.startswith("level:") for v in bad)
    ok = validate_entry(cp1_params, E(2, G("q0", 1, 0, "-"), G("q2", 1, 0, "+")))
    assert ok == ()


def test_rule_action(cp1_params):
    bad = validate_entry(cp1_params, E(2, G("q0", 0, 0, "+"), G("q2", 1, 0, "-")))
    assert any(v.startswith("action:") for v in bad)
    ok = validate_entry(cp1_params, E(2, G("q2", 1, 0, "-"), G("q0", 0, -1, "+")))
    assert ok == ()


def test_rule_class_preservation(neg2_params):
    bad = validate_entry(neg2_params, E(2, G("q0", 2, 0, "+"), G("q0", 1, -1, "+")))
    assert any(v.startswith("class-preservation:") for v in bad)
    # compliant very-negative entry: classes match on both sides
    ok = validate_entry(neg2_params, E(2, G("q0", 1, 0, "-"), G("q2", 1, 0, "+")))
    assert ok == ()


def test_rule_depth_cutoff(c0_params):
    bad = validate_entry(c0_params, E(3, G("q0", 1, 0, "-"), G("q2", 1, 0, "+")))
    assert any(v.startswith("depth-cutoff:") for v in bad)
    ok = validate_entry(c0_params, E(2, G("q0", 1, 0, "-"), G("q2", 1, 0, "+")))
    assert ok == ()


@pytest.mark.parametrize("name,entry,violations", [
    ("cp1", E(2, G("q0", 1, 0, "-"), G("q2", 1, 0, "x")),
     ("malformed: sign must be '+' or '-', got 'x'",)),
    ("aspherical4", E(2, G("p0", 1, 1, "-"), G("p2", 0, 0, "+")),
     ("malformed: aspherical scenario forces sphere class 0, got 1",)),
])
def test_rule_malformed(name, entry, violations):
    assert validate_entry(params_of(name), entry) == violations


def test_rule_shift_duplicate(cp1_params):
    base = E(2, G("q0", 1, 0, "-"), G("q2", 1, 0, "+"))
    shifted = E(2, G("q0", 1, 1, "-"), G("q2", 1, 1, "+"))
    with pytest.raises(TableValidationError, match="shift-duplicate") as info:
        load_table(cp1_params, [base, shifted])
    assert info.value.generators == {shifted.source, shifted.target}
    distinct = E(2, G("q2", 1, 0, "-"), G("q0", 0, -1, "+"))
    d = load_table(cp1_params, [base, distinct])
    assert len(d.entries) == 2


def test_load_empty_table(cp1_params):
    d = load_table(cp1_params, [])
    assert d.entries == ()


def test_load_normalizes_to_sphere_zero_representatives(cp1_params):
    raw = E(2, G("q0", 1, 2, "-"), G("q2", 1, 2, "+"))
    d = load_table(cp1_params, [raw])
    (stored,) = d.entries
    assert stored.source.sphere == 0 and stored.target.sphere == 0


def test_square_check_catches_unpaired_entry(cp1_params):
    # valid per-entry, but the composite through the fiber differential
    # survives: caught at load time
    bad = E(6, G("q0", 0, 0, "+"), G("q2", 2, -1, "-"))
    assert validate_entry(cp1_params, bad) == ()
    with pytest.raises(TableValidationError, match="d-squared") as info:
        load_table(cp1_params, [bad])
    assert info.value.report == (
        "d-squared: composite at (q0,1,0,-) is nonzero: (q2,2,-1,-)",
        "d-squared: composite at (q0,0,0,+) is nonzero: (q2,1,-1,+)",
    )
    assert info.value.generators == {
        G("q0", 1, 0, "-"), G("q2", 2, -1, "-"), G("q0", 0, 0, "+"), G("q2", 1, -1, "+"),
    }


def test_repair_drops_the_entry_the_square_check_names(cp1):
    # The unpaired d6 entry breaks the square check.  The d8 entry is harmless
    # but canonically last, so it survives only if the offender is chosen
    # among the entries the error names.
    bad = E(6, G("q0", 0, 0, "+"), G("q2", 2, -1, "-"))
    harmless = E(8, G("q0", 5, 0, "-"), G("q0", 6, -2, "+"))
    d = _load_with_repair(cp1.bundle, [*cp1.entries, bad, harmless])
    assert set(d.entries) == {*cp1.entries, harmless}


def test_scenario_table_loads(cp1):
    d = load_table(cp1.bundle, cp1.entries)
    assert len(d.entries) == 3


# --- application of the total differential ----------------------------------


def test_apply_total_reduces_to_d0_without_table(cp1_params):
    d = load_table(cp1_params, [])
    x = build_chain(cp1_params, [G("q0", 1, 0, "-")], Fraction(-2))
    total, dropped = apply_total(d, x)
    assert total.terms == {G("q0", 0, 0, "+")}
    assert dropped == ()


def test_apply_total_single_entry_lookup(cp1_params):
    # chain hits the entry's source: output = d0 part + table target
    d = load_table(cp1_params, [E(2, G("q0", 1, 0, "-"), G("q2", 1, 0, "+"))])
    x = build_chain(cp1_params, [G("q0", 1, 0, "-")], Fraction(-2))
    total, _ = apply_total(d, x)
    assert total.terms == {G("q0", 0, 0, "+"), G("q2", 1, 0, "+")}
    # shift-extension: same entry drives every sphere class
    y = scalar_shift(cp1_params, x, 3)
    total_y, _ = apply_total(d, y)
    assert total_y.terms == {G("q0", 0, 3, "+"), G("q2", 1, 3, "+")}


def test_apply_total_squares_to_zero_seeded(cp1_params, aspherical4_params, neg2_params):
    for params, seed in ((cp1_params, 3), (aspherical4_params, 5), (neg2_params, 8)):
        d = random_admissible_table(params, seed, (3, 5, 7), FLOOR, -10, 10)
        for k in range(6):
            x = random_chain(params, 50 + k, 7, FLOOR, -10, 10, size=5)
            once, _ = apply_total(d, x)
            twice, _ = apply_total(d, once)
            assert twice.is_zero


def test_apply_total_respects_filtration_and_action(cp1):
    params = cp1.bundle
    d = load_table(params, cp1.entries)
    x = random_chain(params, 42, 5, FLOOR, -8, 8, size=6)
    top = max(level(params, g) for g in x.terms)
    peak = max(action(params, g) for g in x.terms)
    img, _ = apply_total(d, x)
    for g in img.terms:
        assert level(params, g) <= top
        assert action(params, g) <= peak


def test_apply_total_drop_report(cp1_params):
    d = load_table(cp1_params, [])
    g = G("q0", 1, 0, "-")  # action 7/20; d0 image action -3/20
    x = build_chain(cp1_params, [g], Fraction(7, 20))
    total, dropped = apply_total(d, x)
    assert total.is_zero
    assert dropped == (G("q0", 0, 0, "+"),)


def test_apply_total_drops_only_terms_that_survive_cancellation(cp1):
    # (q2,1,0,+) is d0 of (q2,2,0,-) and the d2 image of (q0,1,0,-), so it
    # cancels mod 2 and is neither kept nor dropped.
    d = load_table(cp1.bundle, cp1.entries)
    y = build_chain(cp1.bundle, [G("q0", 1, 0, "-"), G("q2", 2, 0, "-")], Fraction(1, 4))
    image, dropped = apply_total(d, y)
    assert image.is_zero
    assert dropped == (G("q0", 0, 0, "+"),)


@pytest.mark.parametrize("name", CASE_SCENARIOS)
def test_apply_total_drop_report_partitions_the_image(name):
    params = params_of(name)
    floor = Fraction(-1)  # inside the window's actions, so images cross the floor
    for seed in range(10):
        d = random_admissible_table(params, seed, (3, 5, 7), floor, -8, 8, size=8)
        for k in range(10):
            x = random_chain(params, 1000 * seed + k, 5 + 2 * (k % 2), floor, -8, 8, size=10)
            image, dropped = apply_total(d, x)
            assert_drop_partition(image.terms, dropped, _raw_step(d, x.terms))


@pytest.mark.parametrize("name", CASE_SCENARIOS)
def test_kernel_matches_a_per_term_reference(name):
    # Sets mix chain terms and table sources, each also placed in a second
    # sphere class, so shift-extended images meet and cancel.  One
    # generator's image cannot cancel within itself (d0 keeps the level,
    # each entry drops it, and two entries with one source and one target
    # are shift-duplicates), so the sizes of the one-generator images, less
    # the size of the whole image, count the terms that cancel.
    params = params_of(name)
    floor = Fraction(-1)
    shifts = (0,) if params.aspherical else (-2, -1, 1, 3)
    images = cancelled = 0
    for seed in range(10):
        d = random_admissible_table(params, seed, (3, 5, 7), floor, -8, 8, size=8)
        sources = [e.source for e in d.entries]
        rng = random.Random(seed)
        for k in range(10):
            x = random_chain(params, 1000 * seed + k, 5 + 2 * (k % 2), floor, -8, 8, size=10)
            picked = [*x.terms, *rng.sample(sources, min(3, len(sources)))]
            gens = frozenset(
                g._replace(sphere=g.sphere + s) for g in picked for s in {0, rng.choice(shifts)}
            )
            odd = ck.differential(d.entries, gens)
            assert _raw_step(d, gens) == odd
            images += len(odd)
            cancelled += sum(len(ck.differential(d.entries, {g})) for g in gens) - len(odd)
    assert images > 0 and cancelled > 0


@pytest.mark.parametrize("name", CASE_SCENARIOS)
def test_chain_level_helpers_agree_with_apply_total(name):
    # apply_table and split_by_level stay public API off the induction's
    # path. apply_table and apply_total both run the kernel, so pin them to
    # the checker's differential instead: the table image is its image with
    # the image of d0 alone (no entries) flipped back out.
    params = params_of(name)
    floor = Fraction(-1)
    images = 0
    for seed in range(10):
        d = random_admissible_table(params, seed, (3, 5, 7), floor, -8, 8, size=8)
        for k in range(10):
            x = random_chain(params, 1000 * seed + k, 5 + 2 * (k % 2), floor, -8, 8, size=10)
            full, fiber = ck.differential(d.entries, x.terms), ck.differential((), x.terms)
            table = apply_table(d, x)
            for image, odd in ((table, full ^ fiber), (apply_total(d, x), full)):
                terms = frozenset(map(G._make, odd))
                assert image == truncate(params, Chain(x.degree - 2, x.floor, terms), x.floor)
            images += not table.chain.is_zero
            summed: frozenset[Generator] = frozenset()
            for lv, part in split_by_level(params, x).items():
                assert {level(params, g) for g in part.terms} == {lv}
                summed ^= part.terms
            assert summed == x.terms
    assert images > 0


def test_apply_total_commutes_with_shift(cp1):
    params = cp1.bundle
    d = load_table(params, cp1.entries)
    x = random_chain(params, 9, 5, FLOOR, -8, 8, size=5)
    lhs, _ = apply_total(d, scalar_shift(params, x, 2))
    rhs = scalar_shift(params, apply_total(d, x).chain, 2)
    assert lhs == rhs


def test_apply_d0_commutes_with_shift(cp1_params):
    x = random_chain(cp1_params, 11, 5, FLOOR, -8, 8, size=5)
    lhs = apply_d0(cp1_params, scalar_shift(cp1_params, x, -3))
    rhs = scalar_shift(cp1_params, apply_d0(cp1_params, x), -3)
    assert lhs == rhs


# --- level decomposition -----------------------------------------------------


def test_square_check_probes_are_complete(cp1_params, neg2_params, aspherical4_params):
    # Any validator-passing table must square to zero *everywhere*, not just at
    # the probe points the load-time check uses; sample random rule-passing
    # entry sets and compose the checker's differential twice on a window far
    # wider than the probes.
    rng = random.Random(71)
    for params in (cp1_params, neg2_params, aspherical4_params):
        cands = decoded_candidates(params, (3, 5, 7), FLOOR, -8, 8)
        pool = {g for tm in (1, 3, 5, 7, 9) for g in ck_pool(params, tm, FLOOR, -12, 12)}
        loaded = 0
        while loaded < 12:
            entries = rng.sample(cands, rng.randint(1, min(6, len(cands))))
            try:
                d = load_table(params, entries)
            except TableValidationError:
                continue
            loaded += 1
            wide = set(pool)
            shifts = (0,) if params.aspherical else (-2, 0, 2)
            for e in d.entries:
                for g in (e.source, e.target):
                    for da in shifts:
                        wide.add(G(g.base, g.cover, g.sphere + da, g.sign))
                        wide.add(G(g.base, g.cover + 1, g.sphere + da, "-"))
                        wide.add(G(g.base, g.cover - 1, g.sphere + da, "+"))
            for w in wide:
                assert not ck.differential(d.entries, ck.differential(d.entries, {w})), w


def test_split_by_level_golden(cp1_params):
    x = build_chain(
        cp1_params, [G("q0", 1, 0, "-"), G("q0", 0, 1, "-")], Fraction(0)
    )
    parts = split_by_level(cp1_params, x)
    assert sorted(parts) == [1, 5]
    assert parts[1].terms == {G("q0", 1, 0, "-")}
    assert parts[5].terms == {G("q0", 0, 1, "-")}


def test_split_by_level_homogeneous_single_bucket(neg2_params):
    x = build_chain(neg2_params, [G("q0", 0, 0, "+")], Fraction(-2))
    assert list(split_by_level(neg2_params, x)) == [1]


def test_split_then_readd(cp1_params):
    pool = enumerate_generators(cp1_params, 5, FLOOR, -8, 8)
    x = Chain(5, FLOOR, frozenset(pool))
    parts = split_by_level(cp1_params, x)
    total = zero_chain(5, FLOOR)
    for part in parts.values():
        total = add(cp1_params, total, part).chain
    assert total == x
