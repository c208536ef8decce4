"""Action-truncated Z/2 formal sums of generators and the Novikov shift.

A :class:`Chain` asserts that its term set is *exact above its floor* and says
nothing below: the differential never increases action, so generators below
any action level span a subcomplex and working in the quotient above the floor
is well-defined.  Every operation that can push terms below the active floor
computes its Z/2 result first and truncates it once: "dropped below floor"
lists the terms of that result below the floor, each once, after cancellation.

Chains are homogeneous in degree; mixed-degree data are maps degree -> Chain.
Coefficients are Z/2 throughout, so term sets combine by symmetric difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .bundle import BundleParams
from .generators import (
    Generator,
    _above_floor,
    _require_odd,
    action,
    canonical_sort,
    grading,
    validate_generator,
)


@dataclass(frozen=True)
class Chain:
    """Finitely many generators of one degree, exact above ``floor``.

    Equality is structural: it compares (degree, floor, terms).
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
    above = _above_floor(params, floor)
    term_set = frozenset(terms)
    for g in term_set:
        validate_generator(params, g)
        d = grading(params, g)
        if degree is None:
            degree = d
        elif d != degree:
            raise ValueError(f"mixed degrees: term {g} has grading {d}, expected {degree}")
        if not above(g):
            raise ValueError(f"term {g} has action {action(params, g)} below the floor {floor}")
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
    kept = frozenset(filter(_above_floor(params, floor), x.terms))
    dropped = canonical_sort(params, x.terms - kept)
    return AddResult(Chain(x.degree, floor, kept), dropped)


def add(params: BundleParams, x: Chain, y: Chain) -> AddResult:
    """Z/2 sum: symmetric difference of terms above the coarser floor."""
    if x.degree != y.degree:
        raise ValueError(f"degree mismatch: {x.degree} vs {y.degree}")
    floor = max(x.floor, y.floor)
    combined = Chain(x.degree, floor, x.terms ^ y.terms)
    return truncate(params, combined, floor)


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


def serialize_chain(params: BundleParams, x: Chain) -> str:
    body = " ".join(str(g) for g in canonical_sort(params, x.terms)) or "0"
    return f"degree={x.degree} floor={x.floor} terms: {body}"
