import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import checker as ck
from conftest import assert_drop_partition, ck_base
from rabinowitz import (
    Chain,
    Generator,
    action,
    add,
    build_chain,
    enumerate_generators,
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


def test_build_chain_names_the_first_bad_term_given(cp1_params):
    # Terms are checked in the order given; a missing degree is the first term's grading.
    five, three = G("q0", 1, 0, "-"), G("q0", 0, 0, "+")
    with pytest.raises(ValueError, match=r"^mixed degrees: term \(q0,0,0,\+\) has grading 3, expected 5$"):
        build_chain(cp1_params, [five, three], FLOOR)
    with pytest.raises(ValueError, match=r"^mixed degrees: term \(q0,1,0,-\) has grading 5, expected 3$"):
        build_chain(cp1_params, iter([three, five]), FLOOR)
    low, lower = G("q0", 1, 1, "-"), G("q2", 2, 1, "-")  # both of degree 9, below 3
    for first, second in ((low, lower), (lower, low)):
        with pytest.raises(ValueError, match=f"^term {re.escape(str(first))} has action"):
            build_chain(cp1_params, [first, second], Fraction(3))


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


def test_truncate_keeps_its_floor_and_drops_only_below_it(cp1_params):
    # One floor per chain: truncation keeps the chain's degree and floor, the
    # terms at or above it by the checker's actions, and reports the rest
    # once each in the checker's canonical order.  Floors include one each
    # generator's action meets exactly.
    base = ck_base(cp1_params)
    pool = pool5(cp1_params)
    for floor in sorted({FLOOR, Fraction(100)} | {ck.action(base, g) for g in pool}):
        x = Chain(5, floor, frozenset(pool))
        kept, dropped = truncate(cp1_params, x)
        assert (kept.degree, kept.floor) == (5, floor)
        assert kept.terms == {g for g in pool if ck.action(base, g) >= floor}
        assert list(dropped) == sorted(x.terms - kept.terms, key=lambda g: ck.order_key(base, g))
        assert_drop_partition(kept.terms, dropped, x.terms)


def test_truncation_functorial(cp1_params):
    pool = pool5(cp1_params)
    x = Chain(5, FLOOR, frozenset(pool[::2]))
    y = Chain(5, FLOOR, frozenset(pool[1::3]))
    kappa = Fraction(1, 4)
    lhs = truncate(cp1_params, add(cp1_params, x, y).chain._replace(floor=kappa)).chain
    rhs = add(
        cp1_params,
        truncate(cp1_params, x._replace(floor=kappa)).chain,
        truncate(cp1_params, y._replace(floor=kappa)).chain,
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


def test_serialize_canonical_order(cp1_params):
    x = build_chain(
        cp1_params, [G("q0", 1, 0, "-"), G("q0", 0, 1, "-")], Fraction(0)
    )
    assert serialize_chain(cp1_params, x) == (
        "degree=5 floor=0 terms: (q0,0,1,-) (q0,1,0,-)"
    )
