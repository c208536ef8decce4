from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rabinowitz import (
    Chain,
    Generator,
    action,
    add,
    apply_scalar,
    build_chain,
    canonical_terms,
    chains_equal,
    enumerate_generators,
    novikov_window_counts,
    scalar_shift,
    serialize_chain,
    truncate,
    zero_chain,
)

G = Generator
FLOOR = Fraction(-20)


def pool5(params):
    return enumerate_generators(params, 5, FLOOR, -8, 8)


def test_build_chain_rejects_mixed_degree(cp1_params):
    with pytest.raises(ValueError):
        build_chain(cp1_params, [G("q0", 1, 0, "-"), G("q0", 0, 0, "+")], FLOOR)


def test_build_chain_rejects_below_floor(cp1_params):
    with pytest.raises(ValueError):
        build_chain(cp1_params, [G("q0", 1, 0, "-")], Fraction(1))


def test_build_chain_rejects_even_degree(cp1_params):
    with pytest.raises(ValueError, match="degree must be odd"):
        build_chain(cp1_params, [], FLOOR, degree=4)


def test_build_chain_empty_needs_degree(cp1_params):
    with pytest.raises(ValueError):
        build_chain(cp1_params, [], FLOOR)
    assert build_chain(cp1_params, [], FLOOR, degree=5).is_zero


def test_add_self_cancels(cp1_params):
    x = build_chain(cp1_params, [G("q0", 1, 0, "-")], FLOOR)
    assert add(cp1_params, x, x).chain.is_zero


def test_add_disjoint_union(cp1_params):
    x = build_chain(cp1_params, [G("q0", 1, 0, "-")], FLOOR)
    y = build_chain(cp1_params, [G("q0", 2, -1, "-")], FLOOR)  # also degree 5
    total = add(cp1_params, x, y).chain
    assert total.terms == x.terms | y.terms


def test_add_degree_mismatch(cp1_params):
    x = build_chain(cp1_params, [G("q0", 1, 0, "-")], FLOOR)
    y = build_chain(cp1_params, [G("q0", 0, 0, "+")], FLOOR)
    with pytest.raises(ValueError):
        add(cp1_params, x, y)


def test_add_coarsens_floor_and_reports(cp1_params):
    # (q0,1,0,-) has action 7/20: alive above floor 0, dead above 1/2
    x = build_chain(cp1_params, [G("q0", 1, 0, "-")], Fraction(0))
    y = build_chain(cp1_params, [G("q0", 0, 1, "-")], Fraction(1, 2))  # action 17/20
    total, dropped = add(cp1_params, x, y)
    assert total.floor == Fraction(1, 2)
    assert dropped == (G("q0", 1, 0, "-"),)
    assert total.terms == y.terms


def test_truncate_refuses_refinement(cp1_params):
    x = build_chain(cp1_params, [G("q0", 1, 0, "-")], Fraction(0))
    with pytest.raises(ValueError):
        truncate(cp1_params, x, Fraction(-1))


def test_truncation_functorial(cp1_params):
    pool = pool5(cp1_params)
    x = Chain(5, FLOOR, frozenset(pool[::2]))
    y = Chain(5, FLOOR, frozenset(pool[1::3]))
    kappa = Fraction(1, 4)
    lhs = truncate(cp1_params, add(cp1_params, x, y).chain, kappa).chain
    rhs = add(
        cp1_params,
        truncate(cp1_params, x, kappa).chain,
        truncate(cp1_params, y, kappa).chain,
    ).chain
    assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_add_is_a_z2_module_on_random_chains(cp1, data):
    params = cp1.bundle
    pool = pool5(params)
    pick = st.frozensets(st.sampled_from(list(pool)), max_size=6)
    x = Chain(5, FLOOR, data.draw(pick))
    y = Chain(5, FLOOR, data.draw(pick))
    z = Chain(5, FLOOR, data.draw(pick))
    add_ = lambda a, b: add(params, a, b).chain
    assert add_(x, y) == add_(y, x)
    assert add_(add_(x, y), z) == add_(x, add_(y, z))
    assert add_(x, x).is_zero
    assert add_(x, zero_chain(5, FLOOR)) == x


def test_scalar_shift_identity(cp1_params):
    x = build_chain(cp1_params, [G("q0", 1, 0, "-")], FLOOR)
    assert scalar_shift(cp1_params, x, 0) == x


def test_scalar_shift_golden(cp1_params):
    x = build_chain(cp1_params, [G("q0", 1, 0, "-")], Fraction(0))
    y = scalar_shift(cp1_params, x, 1)
    (g,) = y.terms
    assert g == G("q0", 1, 1, "-")
    assert action(cp1_params, g) == Fraction(27, 20)
    assert y.degree == 9
    assert y.floor == Fraction(1)


def test_scalar_shift_round_trip(cp1_params):
    pool = pool5(cp1_params)
    x = Chain(5, FLOOR, frozenset(pool[:5]))
    assert scalar_shift(cp1_params, scalar_shift(cp1_params, x, 3), -3) == x


def test_scalar_shift_aspherical_guard(aspherical4_params):
    x = build_chain(aspherical4_params, [G("p0", 0, 0, "+")], FLOOR)
    assert scalar_shift(aspherical4_params, x, 0) == x
    with pytest.raises(ValueError):
        scalar_shift(aspherical4_params, x, 1)


def test_scalar_shift_commutes_with_add(cp1_params):
    pool = pool5(cp1_params)
    x = Chain(5, FLOOR, frozenset(pool[:4]))
    y = Chain(5, FLOOR, frozenset(pool[2:7]))
    lhs = scalar_shift(cp1_params, add(cp1_params, x, y).chain, 2)
    rhs = add(
        cp1_params,
        scalar_shift(cp1_params, x, 2),
        scalar_shift(cp1_params, y, 2),
    ).chain
    assert lhs == rhs


def test_scalar_shift_moves_every_action_by_exactly_nu_a0(neg2_params):
    pool = enumerate_generators(neg2_params, 3, FLOOR, -6, 6)
    x = Chain(3, FLOOR, frozenset(pool))
    shifted = scalar_shift(neg2_params, x, -2)
    before = sorted(action(neg2_params, g) for g in x.terms)
    after = sorted(action(neg2_params, g) for g in shifted.terms)
    assert [a - b for a, b in zip(after, before)] == [
        neg2_params.nu * -2
    ] * len(before)


def test_apply_scalar_unit_and_degree_mixing(cp1_params, c1_params):
    x = build_chain(cp1_params, [G("q0", 0, 0, "+")], Fraction(-10))
    assert apply_scalar(cp1_params, [0], x).chain == x
    with pytest.raises(ValueError):
        apply_scalar(cp1_params, [0, 1], x)  # shifts land in degrees 3 and 7
    with pytest.raises(ValueError):
        apply_scalar(cp1_params, [], x)
    # c = 1: shifting preserves the degree, so multi-coordinate scalars act
    y = build_chain(c1_params, [G("q0", 0, 0, "+")], Fraction(-10))
    res = apply_scalar(c1_params, [0, 2], y)
    assert res.chain.terms == {G("q0", 0, 0, "+"), G("q0", 0, 2, "+")}
    assert res.chain.floor == Fraction(-10) + 2 * c1_params.nu


def test_apply_scalar_drops_the_sum_not_the_summands(c1_params):
    # (q0,0,1,+) comes from the shifts by 0 and by 1 and cancels mod 2.
    x = build_chain(c1_params, [G("q0", 0, 0, "+"), G("q0", 0, 1, "+")], Fraction(-1))
    res = apply_scalar(c1_params, [0, 1, 5], x)
    assert res.chain.terms == {G("q0", 0, 5, "+"), G("q0", 0, 6, "+")}
    assert res.dropped == (G("q0", 0, 2, "+"), G("q0", 0, 0, "+"))


def test_chains_equal_compares_above_coarser_floor(cp1_params):
    shared = G("q0", 0, 1, "-")  # action 17/20
    low = G("q0", 1, 0, "-")     # action 7/20
    x = build_chain(cp1_params, [shared, low], Fraction(0))
    y = build_chain(cp1_params, [shared], Fraction(1, 2))
    assert chains_equal(cp1_params, x, y)
    assert x != y  # structural equality still distinguishes them
    z = build_chain(cp1_params, [low], Fraction(0))
    assert not chains_equal(cp1_params, x, z)


def test_novikov_window_counts(cp1_params):
    empty = zero_chain(5, Fraction(-1))
    assert novikov_window_counts(cp1_params, empty, Fraction(5)).action_count == 0
    x = build_chain(cp1_params, [G("q0", 1, 0, "-")], Fraction(0))
    assert novikov_window_counts(cp1_params, x, Fraction(0)).action_count == 1
    assert novikov_window_counts(cp1_params, x, Fraction(1)).action_count == 0
    levels = build_chain(
        cp1_params, [G("q0", 1, 0, "-"), G("q0", 0, 1, "-")], Fraction(0)
    )  # levels 1 and 5
    counts = novikov_window_counts(cp1_params, levels, Fraction(0), level_probe=3)
    assert counts.level_count == 1
    assert counts.lemma_applicable
    with pytest.raises(ValueError):
        novikov_window_counts(cp1_params, x, Fraction(-5))


def test_serialize_canonical_order(cp1_params):
    x = build_chain(
        cp1_params, [G("q0", 1, 0, "-"), G("q0", 0, 1, "-")], Fraction(0)
    )
    assert canonical_terms(cp1_params, x) == (G("q0", 0, 1, "-"), G("q0", 1, 0, "-"))
    assert serialize_chain(cp1_params, x) == (
        "degree=5 floor=0 terms: (q0,0,1,-) (q0,1,0,-)"
    )
