"""The vanishing mechanism: build a primitive for any closed chain, verifiably.

Given a closed chain xi, the engine constructs theta with d(theta) = xi by
descending induction over the filtration level: the top slice of xi is killed
by the fiber differential's explicit primitive, and each lower slice is first
corrected by the higher differentials of the already-built theta parts before
being fed to the same primitive.  The remainder is level buckets of bare
generators, corrected through the differential's one Z/2 kernel under one
level check.  Termination is certified by level bounds that are themselves
checked against exhaustive enumeration; each bound is certified once per
(bundle, degree, floor) in a process.

In the very-negative regime (2*c*nu <= -dim_M) the differential preserves
sphere classes, so the cycle splits into finitely supported class components
and the same induction runs independently per class; the run then also reports
the class-wise term counts and the action-gap certificate with the uniform
constant C = tau/2 * dim_M + max f - min f.

Every run re-verifies its own output: the residual d(theta) + xi, truncated at
the cycle's floor, is computed unconditionally and must be empty.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import Iterable, NamedTuple

from .bundle import BundleParams, CaseTag, TheoremCase
from .chains import Chain, serialize_chain, truncate, zero_chain
from .differentials import FilteredDifferential, _by_level, _fiber_primitive, _raw_step, apply_total
from .generators import (
    Generator,
    _invariants,
    _least_level,
    _level_above,
    enumerate_generators,
    level,
)


class NotClosedError(ValueError):
    """The supplied chain is not a cycle; carries its differential image."""

    def __init__(self, image: Chain, message: str):
        super().__init__(message)
        self.image = image


class InductionError(RuntimeError):
    """A correction term failed to be d0-closed (or a certified bound broke).

    The level induction proves closedness of every correction term from
    d-squared = 0 and the filtration, so a violation can only come from a
    table that is inconsistent beyond its validated window.
    """


class LevelBound(NamedTuple):
    """Certified statement: no generator of ``degree`` with action >= ``floor``
    has level below ``l_min``; the certificate is an exhaustive enumeration of
    the window just underneath."""

    degree: int
    floor: Fraction
    l_min: int
    certificate_window: tuple[int, int]


class VerifyResult(NamedTuple):
    residual: Chain
    dropped: tuple[Generator, ...]


class ClassReport(NamedTuple):
    """Per-sphere-class certificate of a very-negative run."""

    sphere: int
    cycle_terms: int
    theta_terms: int
    max_gap: Fraction | None     # max over theta terms of the distance to the
    gap_ok: bool                 # nearest cycle term in the same class


class PrimitiveResult(NamedTuple):
    case: TheoremCase
    theta: Chain
    theta_parts: tuple[tuple[str, Chain], ...]
    residual: Chain
    dropped: tuple[Generator, ...]
    level_ceiling: int | None = None
    stop_level: int | None = None
    bounds: tuple[LevelBound, ...] = ()
    gap_constant: Fraction | None = None
    class_reports: tuple[ClassReport, ...] = ()

    @property
    def ok(self) -> bool:
        return self.residual.is_zero


def level_ceiling(params: BundleParams, x: Chain) -> int:
    """Largest level the induction starts from.

    For c = 0 the level range is a priori [-dim_M/2, dim_M/2] and the start is
    pinned at the top of that range regardless of the chain; otherwise it is
    the maximal level among the terms.
    """
    return _start_level(params, (level(params, g) for g in x.terms))


def _start_level(params: BundleParams, levels: Iterable[int]) -> int:
    """The rule behind :func:`level_ceiling`, given the terms' levels; a chain's
    levels are read only when the start is not pinned."""
    case = params.case
    if case.tag not in (CaseTag.C_NON_NEGATIVE, CaseTag.ASPHERICAL):
        raise ValueError(f"level ceiling undefined in case {case.tag.value}")
    if not params.aspherical and params.c == 0:
        return params.dim_m // 2
    top = max(levels, default=None)
    if top is None:
        raise ValueError("level ceiling of the zero chain is undefined (handle xi = 0 upstream)")
    return top


def level_floor(params: BundleParams, twice_mu: int, action_floor: Fraction) -> LevelBound:
    """Certified lower level bound for one degree above an action floor.

    The refusals are checked on every call.  The bound itself is certified
    once per (bundle, degree, floor) in a process and then shared, which is
    safe because a :class:`LevelBound` is an immutable named tuple.
    """
    case = params.case
    if case.tag not in (CaseTag.ASPHERICAL, CaseTag.C_NON_NEGATIVE):
        raise ValueError(f"level floor undefined in case {case.tag.value}")
    if case.cz_finiteness_ok is False:
        raise ValueError(
            f"(c-1)*tau = {(params.c - 1) * params.tau} >= 1: "
            "the action floor does not bound levels in this scenario"
        )
    return _certified_bound(params, twice_mu, action_floor.numerator, action_floor.denominator)


@lru_cache(maxsize=128)
def _certified_bound(params: BundleParams, twice_mu: int, num: int, den: int) -> LevelBound:
    """The memo behind :func:`level_floor`, keyed on the floor's integer pair:
    hashing a ``Fraction`` costs a modular inverse per lookup.  A failed
    certificate raises, and ``lru_cache`` caches no exception, so it fails
    again on every call."""
    action_floor = Fraction(num, den)
    l_min = _least_level(params, twice_mu, action_floor)
    span = params.dim_m + 1 + params.level_step
    window = (l_min - span, l_min - 1)
    witnesses = enumerate_generators(params, twice_mu, action_floor, *window)
    if witnesses:
        raise InductionError(
            f"level bound certificate failed: found {witnesses[0]} below l_min={l_min}"
        )
    return LevelBound(twice_mu, action_floor, l_min, window)


def verify_primitive(d: FilteredDifferential, xi: Chain, theta: Chain) -> VerifyResult:
    """Unconditional check: d(theta) + xi, truncated once at xi's floor.

    "Dropped below floor" lists the terms of the Z/2 sum d(theta) + xi that lie
    below xi's floor, each once, after cancellation.
    """
    if theta.degree != xi.degree + 2:
        raise ValueError(
            f"degree mismatch: theta has degree {theta.degree}, expected {xi.degree + 2}"
        )
    raw = Chain(xi.degree, xi.floor, _raw_step(d, theta.terms) ^ xi.terms)
    return VerifyResult(*truncate(d.params, raw, xi.floor))


def _descend(
    d: FilteredDifferential, pending: dict[int, set[Generator]], floor: Fraction, stop: int
) -> list[tuple[int, frozenset[Generator]]]:
    """Shared level induction: theta parts for a chain, highest level first.

    ``pending`` is the chain's terms in level buckets (:func:`_by_level`),
    and the induction consumes it as its remainder.  Only levels that hold
    terms are visited, each once, popped from a max-heap of the pending
    levels.  A level is pushed when its bucket is created, and folds only
    create levels below the current one.  A correction r_l must consist of +
    generators, and its fiber primitive theta_l is the next theta part.
    d(theta_l) + r_l from the one kernel ``_raw_step`` is theta_l's table
    image; its terms above ``floor`` are folded into the buckets, and one
    still at level >= l is refused.  A nonzero correction below ``stop``
    breaks the certified bound.  Theta parts are bare sets until
    :func:`find_primitive` wraps them in chains.
    """
    params = d.params
    level_above = _level_above(params, floor)
    heap = [-lv for lv in pending]  # a max-heap of the pending levels
    heapify(heap)
    theta: list[tuple[int, frozenset[Generator]]] = []
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
        for g in _raw_step(d, th) ^ terms:
            lv = level_above(g)
            if lv is None:
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


def find_primitive(d: FilteredDifferential, xi: Chain) -> PrimitiveResult:
    """Construct theta with d(theta) = xi above the floor, case by case.

    Rejects scenarios outside the supported cases, non-closed cycles (the
    differential image travels with the error), and c >= 1 scenarios with
    (c-1)*tau >= 1 where the level bounds are unavailable.  In the
    very-negative regime the induction runs independently per sphere class.
    """
    params = d.params
    case = params.case
    if params.refusal is not None:
        raise ValueError(params.refusal)
    image, _ = apply_total(d, xi)
    if not image.is_zero:
        raise NotClosedError(
            image, "input chain is not closed; its differential is " + serialize_chain(params, image)
        )
    theta_floor = xi.floor + params.tau
    if xi.is_zero:
        return PrimitiveResult(
            case,
            zero_chain(xi.degree + 2, theta_floor),
            (),
            zero_chain(xi.degree, xi.floor),
            (),
        )

    ceiling = stop = gap_bound = None
    bounds: tuple[LevelBound, ...] = ()
    if case.tag is CaseTag.C_VERY_NEGATIVE:
        half = params.dim_m // 2
        gap_bound = params.tau / 2 * params.dim_m + params.max_value - params.min_value
        by_class: dict[int, set[Generator]] = {}
        for g in xi.terms:
            by_class.setdefault(g.sphere, set()).add(g)
        # Each class stops at the least level any generator of that class has.
        components = [
            (a, by_class[a], _by_level(params, by_class[a]), params.level_step * a - half)
            for a in sorted(by_class)
        ]
    else:
        pending = _by_level(params, xi.terms)
        ceiling = _start_level(params, pending)
        bounds = (level_floor(params, xi.degree, xi.floor),
                  level_floor(params, xi.degree + 2, xi.floor))
        stop = min(b.l_min for b in bounds)
        components = [(None, xi.terms, pending, stop)]

    theta_terms: set[Generator] = set()
    labelled: list[tuple[str, Chain]] = []
    reports: list[ClassReport] = []
    for a, part, part_pending, part_stop in components:
        theta_parts = _descend(d, part_pending, xi.floor, part_stop)
        prefix = "" if a is None else f"class={a},"
        part_theta: set[Generator] = set()
        for l, th in theta_parts:
            part_theta ^= th
            labelled.append((f"{prefix}level={l}", Chain(xi.degree + 2, theta_floor, th)))
        theta_terms ^= part_theta
        if a is not None:
            # Gaps compare L*action keys; only the largest becomes a Fraction.
            xi_keys = [_invariants(params, g)[2] for g in part]
            gaps = [min(abs(_invariants(params, g)[2] - k) for k in xi_keys) for g in part_theta]
            max_gap = Fraction(max(gaps), params.action_denominator) if gaps else None
            reports.append(ClassReport(
                a, len(part), len(part_theta), max_gap,
                max_gap is None or max_gap <= gap_bound,
            ))
    theta = Chain(xi.degree + 2, theta_floor, frozenset(theta_terms))
    residual, dropped = verify_primitive(d, xi, theta)
    return PrimitiveResult(
        case,
        theta,
        tuple(labelled),
        residual,
        dropped,
        level_ceiling=ceiling,
        stop_level=stop,
        bounds=bounds,
        gap_constant=gap_bound,
        class_reports=tuple(reports),
    )
