"""Action-truncated Z/2 formal sums of generators and the Novikov shift.

A :class:`Chain` asserts that its term set is *exact above its floor* and says
nothing below: the differential never increases action, so generators below
any action level span a subcomplex and working in the quotient above the floor
is well-defined.  A chain operation computes its Z/2 result first and
truncates it once, at the result chain's own floor; no operation takes a
second floor.  :class:`Truncated` is the one record every truncating
operation returns, ``verify_primitive`` included: the kept chain and
"dropped below floor", the terms of that result below the floor, each once,
after cancellation, in canonical order; the drop list is sorted only when it
is non-empty, and an empty one is ``()``.  To coarsen a chain ``x`` to a floor
``f >= x.floor``, call ``truncate(params, x._replace(floor=f))``.

Chains are homogeneous in degree; mixed-degree data are maps degree -> Chain.
Coefficients are Z/2 throughout, so term sets combine by symmetric difference.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .bundle import BundleParams
from .generators import (
    Generator,
    _floor_key,
    _invariants,
    _new,
    _require_odd,
    action,
    canonical_sort,
)


class Chain(NamedTuple):
    """Finitely many generators of one degree, exact above ``floor``.

    Equality is structural: it compares (degree, floor, terms).  A chain's
    size is ``len(x.terms)``.
    """

    degree: int
    floor: Fraction
    terms: frozenset[Generator]

    @property
    def is_zero(self) -> bool:
        return not self.terms


class Truncated(NamedTuple):
    """A Z/2 result truncated at its own floor, the record of every truncating
    operation: :func:`truncate` builds it, and ``add``, ``apply_table``,
    ``apply_total`` and ``verify_primitive`` return it."""

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
    """Validated constructor: odd homogeneous degree, every action >= floor.

    The terms are checked in the order given, so an error names the first
    bad one, and a missing degree is the first term's grading.
    """
    if degree is not None:
        _require_odd(degree)
    floor = Fraction(floor)
    bar = _floor_key(params, floor)
    terms = tuple(terms)
    for g in terms:
        _, d, key = _invariants(params, g)
        if degree is None:
            degree = d
        elif d != degree:
            raise ValueError(f"mixed degrees: term {g} has grading {d}, expected {degree}")
        if key < bar:
            raise ValueError(f"term {g} has action {action(params, g)} below the floor {floor}")
    if degree is None:
        raise ValueError("degree required for a chain with no terms")
    return Chain(degree, floor, frozenset(terms))


def truncate(params: BundleParams, x: Chain) -> Truncated:
    """Drop the terms of ``x`` below its own floor, reporting them in canonical order."""
    bar = _floor_key(params, x.floor)
    kept = frozenset([g for g in x.terms if _invariants(params, g)[2] >= bar])
    chain = _new(Chain, (x.degree, x.floor, kept))
    if len(kept) < len(x.terms):
        return _new(Truncated, (chain, canonical_sort(params, x.terms - kept)))
    return _new(Truncated, (chain, ()))


def add(params: BundleParams, x: Chain, y: Chain) -> Truncated:
    """Z/2 sum: symmetric difference of terms above the coarser floor."""
    if x.degree != y.degree:
        raise ValueError(f"degree mismatch: {x.degree} vs {y.degree}")
    return truncate(params, Chain(x.degree, max(x.floor, y.floor), x.terms ^ y.terms))


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
    terms = frozenset([_new(Generator, (q, n, a + a0, sign)) for q, n, a, sign in x.terms])
    return Chain(degree, x.floor + shift, terms)


def serialize_chain(params: BundleParams, x: Chain) -> str:
    body = " ".join(str(g) for g in canonical_sort(params, x.terms)) or "0"
    return f"degree={x.degree} floor={x.floor} terms: {body}"
