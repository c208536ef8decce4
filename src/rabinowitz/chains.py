"""Action-truncated Z/2 formal sums of generators and the Novikov module action.

A :class:`Chain` asserts that its term set is *exact above its floor* and says
nothing below: the differential never increases action, so generators below
any action level span a subcomplex and working in the quotient above the floor
is well-defined.  Every operation that can push terms below the active floor
reports the dropped terms instead of discarding them silently.

Chains are homogeneous in degree; mixed-degree data are maps degree -> Chain.
Coefficients are Z/2 throughout, so term sets combine by symmetric difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .bundle import BundleParams, CaseTag, theorem_case
from .generators import (
    Generator,
    _require_odd,
    action,
    canonical_sort,
    grading,
    level,
    validate_generator,
)


@dataclass(frozen=True)
class Chain:
    """Finitely many generators of one degree, exact above ``floor``.

    Structural equality compares (degree, floor, terms); for the floor-aware
    comparison of the truncation semantics use :func:`chains_equal`.
    """

    degree: int
    floor: Fraction
    terms: frozenset[Generator]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)


class AddResult(NamedTuple):
    chain: Chain
    dropped: tuple[Generator, ...]


class WindowCounts(NamedTuple):
    """Finiteness certificate for a probe window of a chain."""

    action_count: int
    level_count: int | None
    lemma_applicable: bool


def zero_chain(degree: int, floor: Fraction) -> Chain:
    return Chain(degree, Fraction(floor), frozenset())


def build_chain(
    params: BundleParams,
    terms: Iterable[Generator],
    floor: Fraction,
    degree: int | None = None,
) -> Chain:
    """Validated constructor: odd homogeneous degree, every action >= floor."""
    if degree is not None:
        _require_odd(degree)
    floor = Fraction(floor)
    term_set = frozenset(terms)
    for g in term_set:
        validate_generator(params, g)
        d = grading(params, g)
        if degree is None:
            degree = d
        elif d != degree:
            raise ValueError(f"mixed degrees: term {g} has grading {d}, expected {degree}")
        a = action(params, g)
        if a < floor:
            raise ValueError(f"term {g} has action {a} below the floor {floor}")
    if degree is None:
        raise ValueError("degree required for a chain with no terms")
    return Chain(degree, floor, term_set)


def truncate(params: BundleParams, x: Chain, floor: Fraction) -> AddResult:
    """Coarsen the floor, reporting the terms that fall below it."""
    floor = Fraction(floor)
    if floor < x.floor:
        raise ValueError(
            f"cannot refine a floor: chain is only exact above {x.floor}, requested {floor}"
        )
    kept = frozenset(g for g in x.terms if action(params, g) >= floor)
    dropped = canonical_sort(params, x.terms - kept)
    return AddResult(Chain(x.degree, floor, kept), dropped)


def add(params: BundleParams, x: Chain, y: Chain) -> AddResult:
    """Z/2 sum: symmetric difference of terms above the coarser floor."""
    if x.degree != y.degree:
        raise ValueError(f"degree mismatch: {x.degree} vs {y.degree}")
    floor = max(x.floor, y.floor)
    combined = Chain(x.degree, floor, x.terms ^ y.terms)
    return truncate(params, combined, floor)


def chains_equal(params: BundleParams, x: Chain, y: Chain) -> bool:
    """Equality in the truncation semantics: agree above the coarser floor."""
    if x.degree != y.degree:
        return False
    floor = max(x.floor, y.floor)
    return truncate(params, x, floor).chain.terms == truncate(params, y, floor).chain.terms


def scalar_shift(params: BundleParams, x: Chain, a0: int) -> Chain:
    """Module action of the single Novikov monomial with sphere coordinate a0.

    Every term's sphere class, and hence action, shifts by exactly nu*a0; the
    degree moves by 4*(c-1)*nu*a0 (doubled units) and the floor by nu*a0.  The
    shift is a bijection on generators, so no terms are ever dropped.
    """
    if params.aspherical:
        if a0 != 0:
            raise ValueError("aspherical scenario admits only the trivial Novikov shift")
        return x
    shift = params.nu * a0
    degree = x.degree + 4 * (params.c - 1) * shift
    terms = frozenset(Generator(g.base, g.cover, g.sphere + a0, g.sign) for g in x.terms)
    return Chain(degree, x.floor + shift, terms)


def apply_scalar(params: BundleParams, coefficients: Iterable[int], x: Chain) -> AddResult:
    """Act by a Z/2 Novikov scalar: the sum of the shifts by each coordinate.

    The scalar is a *set* of sphere coordinates (Z/2 support); duplicates in
    the input collapse.  The summands are exact above different floors, so the
    result carries the coarsest one (floor + nu * max coordinate) and reports
    what fell below.
    """
    coords = sorted(set(coefficients))
    if not coords:
        raise ValueError("empty Novikov scalar (zero) has no well-defined degree")
    shifted = [scalar_shift(params, x, a0) for a0 in coords]
    if len(shifted) == 1:
        return AddResult(shifted[0], ())
    degrees = {ch.degree for ch in shifted}
    if len(degrees) > 1:
        raise ValueError(
            "Novikov scalar mixes degrees: shifts land in degrees "
            + ", ".join(str(d) for d in sorted(degrees))
        )
    total = zero_chain(degrees.pop(), max(ch.floor for ch in shifted))
    dropped: list[Generator] = []
    for ch in shifted:
        total, lost = add(params, total, ch)
        dropped.extend(lost)
    return AddResult(total, canonical_sort(params, dropped))


def novikov_window_counts(
    params: BundleParams,
    x: Chain,
    action_probe: Fraction,
    level_probe: int | None = None,
) -> WindowCounts:
    """Count terms above an action probe (and optionally above a level probe).

    For c >= 1 with (c-1)*tau < 1 the two counts witness the same finiteness
    condition, which is what makes the level filtration usable; the flag
    records whether that equivalence applies to the scenario.
    """
    action_probe = Fraction(action_probe)
    if action_probe < x.floor:
        raise ValueError(
            f"probe {action_probe} below the floor {x.floor}: window not represented"
        )
    n_action = sum(1 for g in x.terms if action(params, g) >= action_probe)
    n_level = None
    if level_probe is not None:
        n_level = sum(1 for g in x.terms if level(params, g) >= level_probe)
    case = theorem_case(params)
    applicable = case.tag is CaseTag.C_NON_NEGATIVE and bool(case.cz_finiteness_ok)
    return WindowCounts(n_action, n_level, applicable)


def canonical_terms(params: BundleParams, x: Chain) -> tuple[Generator, ...]:
    return canonical_sort(params, x.terms)


def serialize_chain(params: BundleParams, x: Chain) -> str:
    body = " ".join(str(g) for g in canonical_terms(params, x)) or "0"
    return f"degree={x.degree} floor={x.floor} terms: {body}"
