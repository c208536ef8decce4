"""The vanishing mechanism: build a primitive for any closed chain, verifiably.

Given a closed chain xi, the engine constructs theta with d(theta) = xi by
descending induction over the filtration level: the top slice of xi is killed
by the fiber differential's explicit primitive, and each lower slice is first
corrected by the higher differentials of the already-built theta parts before
being fed to the same primitive.  The remainder is level buckets of bare
generators; d0 of each theta part is exactly the slice it kills, so only the
part's table image is folded into them.  One inline loop per level builds the
part and folds, target by target under one floor test and one level check,
the stored table targets of its terms, each shifted by its term's sphere
class.  That loop states the fiber pairing of :func:`_fiber_primitive` and
the shift of :func:`_table_image` a second time, without a call per level;
the closing verification recomputes d(theta) through both.
Theta parts are bare (level, terms) pairs; the CLI labels them and prints
them as chains.  Termination is certified by level bounds that are
themselves checked against exhaustive enumeration; each bound is certified
once per (bundle, degree, floor) in a process.

In the very-negative regime (2*c*nu <= -dim_M) the differential preserves
sphere classes, so each class component of the cycle is finitely supported
and the cycle's highest class gives the run a finite stop.  The one induction
is then reported per class: theta parts split by class, and per class the
term counts and the action-gap certificate with the uniform constant
C = tau/2 * dim_M + max f - min f, which the base computes once
(``BundleParams.gap_constant``).

Every run re-verifies its own output: the residual d(theta) + xi, truncated at
the cycle's floor, is computed unconditionally and must be empty.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .bundle import BundleParams, CaseTag
from .chains import Chain, Truncated, serialize_chain, truncate, zero_chain
from .differentials import (
    FilteredDifferential,
    _by_level,
    _fiber_primitive,
    _raw_step,
    apply_total,
)
from .generators import (
    Generator,
    _floor_key,
    _invariants,
    _new,
    enumerate_generators,
    sphere_class_floor,
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


class ClassReport(NamedTuple):
    """Per-sphere-class certificate of a very-negative run."""

    sphere: int
    cycle_terms: int
    theta_terms: int
    max_gap: Fraction | None     # max over the class's theta terms of the distance to
    gap_ok: bool                 # the nearest cycle term of the class; None if no theta term


class PrimitiveResult(NamedTuple):
    """What :func:`find_primitive` built and checked.

    ``theta_parts`` are the induction's theta parts as ``(level, terms)``
    pairs, highest level first, whose terms sum to ``theta``.  In the
    very-negative regime each part holds the terms of one sphere class, and
    the parts are class-major, levels descending within a class.  The
    residual and ``dropped`` are :func:`verify_primitive`'s record.
    """

    theta: Chain
    theta_parts: tuple[tuple[int, frozenset[Generator]], ...]
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


def level_floor(params: BundleParams, twice_mu: int, action_floor: Fraction) -> LevelBound:
    """Certified lower level bound for one degree above an action floor.

    The case refusal is checked here; (c-1)*tau >= 1 is refused by
    :func:`sphere_class_floor` inside the memo, which caches no exception.  So
    both fire on every call, before any enumeration.  The bound itself is
    certified once per (bundle, degree, floor) in a process and then shared,
    which is safe because a :class:`LevelBound` is an immutable named tuple.
    """
    if params.case.tag not in (CaseTag.ASPHERICAL, CaseTag.C_NON_NEGATIVE):
        raise ValueError(f"level floor undefined in case {params.case.tag.value}")
    return _certified_bound(params, twice_mu, action_floor.numerator, action_floor.denominator)


@lru_cache(maxsize=128)
def _certified_bound(params: BundleParams, twice_mu: int, num: int, den: int) -> LevelBound:
    """The memo behind :func:`level_floor`, keyed on the floor's integer pair:
    hashing a ``Fraction`` costs a modular inverse per lookup.  A failed
    certificate raises, and ``lru_cache`` caches no exception, so it fails
    again on every call.

    The least level: aspherical and c = 0 levels never fall below -dim_M/2;
    for c >= 1 the level rises with the sphere class, which the floor bounds
    below (:func:`sphere_class_floor`)."""
    action_floor = Fraction(num, den)
    step, l_min = params.level_step, -(params.dim_m // 2)
    if step:
        l_min += step * sphere_class_floor(params, twice_mu, action_floor)
    span = params.dim_m + 1 + step
    window = (l_min - span, l_min - 1)
    witnesses = enumerate_generators(params, twice_mu, action_floor, *window)
    if witnesses:
        raise InductionError(
            f"level bound certificate failed: found {witnesses[0]} below l_min={l_min}"
        )
    return LevelBound(twice_mu, action_floor, l_min, window)


def verify_primitive(d: FilteredDifferential, xi: Chain, theta: Chain) -> Truncated:
    """Unconditional check: d(theta) + xi, truncated once at xi's floor.

    The result is :func:`truncate`'s record, as for every truncating
    operation: the residual chain, and the terms of the Z/2 sum d(theta) + xi
    that lie below xi's floor, each once, after cancellation.
    """
    if theta.degree != xi.degree + 2:
        raise ValueError(
            f"degree mismatch: theta has degree {theta.degree}, expected {xi.degree + 2}"
        )
    raw = _new(Chain, (xi.degree, xi.floor, _raw_step(d, theta.terms) ^ xi.terms))
    return truncate(d.params, raw)


def _descend(
    d: FilteredDifferential, pending: dict[int, set[Generator]], floor: Fraction, stop: int
) -> list[tuple[int, frozenset[Generator]]]:
    """The level induction, run once per cycle in every case: theta parts,
    highest level first.

    ``pending`` is the chain's terms in level buckets (:func:`_by_level`),
    and the induction consumes it as its remainder.  Only levels that hold
    terms are visited, each once, popped from a max-heap of the pending
    levels.  A level is pushed when its bucket is created, and folds only
    create levels below the current one.  A correction r_l must consist of +
    generators: the whole bucket is checked before any of its targets is
    folded, and a - term is refused by :func:`_fiber_primitive`, where the
    refusal and its text live.  The fiber primitive theta_l of r_l, termwise
    (q, n, a, +) -> (q, n+1, a, -), is the next theta part.  d0(theta_l) =
    r_l by construction, so d(theta_l) + r_l is theta_l's table image.  One
    loop over the bucket builds each term's theta term and folds that term's
    table image target by target: its stored targets from
    ``d._by_source``, shifted by its sphere class.  The fold reads each
    target's invariants once, skips one below ``floor``
    (:func:`_floor_key`), refuses one still at level >= l, and toggles the
    rest into their buckets: a target that comes twice cancels, over Z/2.
    No image set or dict is built per part, and a level makes no call of
    :func:`_fiber_primitive` or :func:`_table_image`, whose rules the loop
    restates.  A wrong theta term or a wrong shift is caught not here
    but by :func:`find_primitive`'s closing :func:`verify_primitive`, which
    recomputes d(theta) through :func:`_raw_step` and :func:`_table_image`.
    A nonzero correction below ``stop`` breaks the bound
    :func:`find_primitive` certified for the case.  In the very-negative
    regime a part may hold terms of several sphere classes that share its
    level; :func:`find_primitive` splits it by class.
    """
    params, by_source = d.params, d._by_source
    bar = _floor_key(params, floor)
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
        # A - term anywhere in the bucket is refused before any target is folded.
        for g in terms:
            if g[3] != "+":
                try:
                    _fiber_primitive(params, terms)  # raises its refusal
                except ValueError as err:
                    raise InductionError(
                        f"higher-differential table inconsistent with the level induction at level {l}: {err}"
                    ) from None
        # Each term's theta term, and the fold of its table image: the stored
        # targets of the theta term, shifted by its sphere class.
        part = []
        for q, n, a, _ in terms:
            n += 1
            part.append(_new(Generator, (q, n, a, "-")))
            hits = by_source.get((q, n, "-"))
            if not hits:
                continue
            for g in hits:
                if a:
                    tq, tn, ta, ts = g
                    g = _new(Generator, (tq, tn, ta + a, ts))
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
        theta.append((l, frozenset(part)))
    return theta


def find_primitive(d: FilteredDifferential, xi: Chain) -> PrimitiveResult:
    """Construct theta with d(theta) = xi above the floor, case by case.

    Rejects scenarios outside the supported cases, non-closed cycles (the
    differential image travels with the error), and c >= 1 scenarios with
    (c-1)*tau >= 1 where the level bounds are unavailable.  Every case runs
    one :func:`_descend` over the cycle's level buckets down to a finite stop:
    the certified level bound, or in the very-negative regime the least level
    of the cycle's highest sphere class.  A very-negative result reports that
    run per class, with no level ceiling, stop level or bounds; a theta term in
    a class the cycle lacks has no report and raises :class:`InductionError`.
    """
    params = d.params
    if params.refusal is not None:
        raise ValueError(params.refusal)
    image, _ = apply_total(d, xi)
    if not image.is_zero:
        raise NotClosedError(
            image, "input chain is not closed; its differential is " + serialize_chain(params, image)
        )
    theta_floor = xi.floor + params.tau
    if xi.is_zero:
        return _new(PrimitiveResult, (
            zero_chain(xi.degree + 2, theta_floor), (), zero_chain(xi.degree, xi.floor), (),
            None, None, (), None, ()))

    pending = _by_level(params, xi.terms)
    very_negative = params.case.tag is CaseTag.C_VERY_NEGATIVE
    if very_negative:
        # The differential keeps sphere classes, so the run ends at the least
        # level of the cycle's highest class, its lowest in level.
        stop = params.level_step * max(g.sphere for g in xi.terms) - params.dim_m // 2
    else:
        # c = 0 pins the start at the top of the level range [-dim_M/2, dim_M/2].
        ceiling = params.dim_m // 2 if params.c == 0 else max(pending)
        xi_bound = level_floor(params, xi.degree, xi.floor)
        theta_bound = level_floor(params, xi.degree + 2, xi.floor)
        bounds, stop = (xi_bound, theta_bound), min(xi_bound.l_min, theta_bound.l_min)

    theta_parts = _descend(d, pending, xi.floor, stop)
    # Each part sits at its own level, so theta is their disjoint union.
    theta_terms = frozenset().union(*[th for _, th in theta_parts])
    theta = _new(Chain, (xi.degree + 2, theta_floor, theta_terms))
    residual, dropped = verify_primitive(d, xi, theta)
    if not very_negative:
        return _new(PrimitiveResult, (
            theta, tuple(theta_parts), residual, dropped, ceiling, stop, bounds, None, ()))

    # The same run, reported per sphere class.
    split: dict[tuple[int, int], set[Generator]] = {}
    for l, th in theta_parts:
        for g in th:
            split.setdefault((g.sphere, l), set()).add(g)
    classes = {g.sphere for g in xi.terms}
    stray = sorted({a for a, _ in split} - classes)
    if stray:  # only a table that moves terms between classes gets here
        raise InductionError(f"theta has terms in sphere classes the cycle lacks: {stray}")
    parts = [(l, frozenset(split[a, l]))
             for a, l in sorted(split, key=lambda al: (al[0], -al[1]))]  # class-major
    gap_bound = params.gap_constant
    reports = []
    # Gaps compare L*action keys, each term's read once; only the largest
    # becomes a Fraction.
    key = {g: _invariants(params, g)[2] for g in xi.terms | theta.terms}
    for a in sorted(classes):
        xi_keys = [key[g] for g in xi.terms if g.sphere == a]
        gaps = [min(abs(key[g] - k) for k in xi_keys) for g in theta.terms if g.sphere == a]
        max_gap = Fraction(max(gaps), params.action_denominator) if gaps else None
        reports.append(ClassReport(
            a, len(xi_keys), len(gaps), max_gap, max_gap is None or max_gap <= gap_bound,
        ))
    return _new(PrimitiveResult, (
        theta, tuple(parts), residual, dropped, None, None, (), gap_bound, tuple(reports)))
