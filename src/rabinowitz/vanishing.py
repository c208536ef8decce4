"""The vanishing mechanism: build a primitive for any closed chain, verifiably.

Given a closed chain xi, the engine constructs theta with d(theta) = xi by
descending induction over the filtration level: the top slice of xi is killed
by the fiber differential's explicit primitive, and each lower slice is first
corrected by the higher differentials of the already-built theta parts before
being fed to the same primitive.  Termination is certified per run by level
bounds that are themselves checked against exhaustive enumeration.

In the very-negative regime (2*c*nu <= -dim_M) the differential preserves
sphere classes, so the cycle splits into finitely supported class components
and the same induction runs independently per class; the run then also reports
the class-wise term counts and the action-gap certificate with the uniform
constant C = tau/2 * dim_M + max f - min f.

Every run re-verifies its own output: the residual d(theta) + xi, truncated at
the cycle's floor, is computed unconditionally and must be empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .bundle import BundleParams, CaseTag, TheoremCase, theorem_case
from .chains import Chain, add, serialize_chain, zero_chain
from .differentials import (
    FilteredDifferential,
    apply_d0,
    apply_table,
    apply_total,
    d0_primitive,
    split_by_level,
)
from .generators import (
    Generator,
    action,
    canonical_sort,
    enumerate_generators,
    level,
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


@dataclass(frozen=True)
class LevelBound:
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


@dataclass(frozen=True)
class ClassReport:
    """Per-sphere-class certificate of a very-negative run."""

    sphere: int
    cycle_terms: int
    theta_terms: int
    max_gap: Fraction | None     # max over theta terms of the distance to the
    gap_ok: bool                 # nearest cycle term in the same class


@dataclass(frozen=True)
class PrimitiveResult:
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
    case = theorem_case(params)
    if case.tag not in (CaseTag.C_NON_NEGATIVE, CaseTag.ASPHERICAL):
        raise ValueError(f"level ceiling undefined in case {case.tag.value}")
    if not params.aspherical and params.c == 0:
        return params.dim_m // 2
    if x.is_zero:
        raise ValueError("level ceiling of the zero chain is undefined (handle xi = 0 upstream)")
    return max(level(params, g) for g in x.terms)


def level_floor(params: BundleParams, twice_mu: int, action_floor: Fraction) -> LevelBound:
    """Certified lower level bound for one degree above an action floor."""
    action_floor = Fraction(action_floor)
    case = theorem_case(params)
    half = params.dim_m // 2
    if case.tag is CaseTag.ASPHERICAL:
        l_min, span = -half, params.dim_m + 1
    elif case.tag is CaseTag.C_NON_NEGATIVE and params.c == 0:
        l_min, span = -half, params.dim_m + 1
    elif case.tag is CaseTag.C_NON_NEGATIVE and params.c >= 1:
        if not case.cz_finiteness_ok:
            raise ValueError(
                f"(c-1)*tau = {(params.c - 1) * params.tau} >= 1: "
                "the action floor does not bound levels in this scenario"
            )
        a_min = sphere_class_floor(params, twice_mu, action_floor)
        l_min = -half + 2 * params.c * params.nu * a_min
        span = params.dim_m + 2 * params.c * params.nu + 1
    else:
        raise ValueError(f"level floor undefined in case {case.tag.value}")
    window = (l_min - span, l_min - 1)
    witnesses = enumerate_generators(params, twice_mu, action_floor, *window)
    if witnesses:
        raise InductionError(
            f"level bound certificate failed: found {witnesses[0]} below l_min={l_min}"
        )
    return LevelBound(twice_mu, action_floor, l_min, window)


def verify_primitive(d: FilteredDifferential, xi: Chain, theta: Chain) -> VerifyResult:
    """Unconditional check: d(theta) + xi truncated at xi's floor."""
    if theta.degree != xi.degree + 2:
        raise ValueError(
            f"degree mismatch: theta has degree {theta.degree}, expected {xi.degree + 2}"
        )
    work = Chain(theta.degree, xi.floor, theta.terms)
    image, dropped = apply_total(d, work)
    residual, lost = add(d.params, image, xi)
    return VerifyResult(residual, canonical_sort(d.params, set(dropped) | set(lost)))


def _descend(
    d: FilteredDifferential, x: Chain, stop: int
) -> tuple[list[tuple[int, Chain]], list[Generator]]:
    """Shared level induction: theta parts for x, highest level first.

    Only levels that hold terms are visited.  Each correction term r = x_part +
    (higher differentials of the theta parts already built) must consist of +
    generators only; its canonical fiber primitive becomes the next theta
    part.  A nonzero correction below ``stop`` breaks the certified bound.
    """
    params = d.params
    pending = {lv: set(part.terms) for lv, part in split_by_level(params, x).items()}
    theta: list[tuple[int, Chain]] = []
    dropped: list[Generator] = []
    while pending:
        l = max(pending)
        terms = pending.pop(l)
        if not terms:
            continue
        if l < stop:
            leftovers = sorted([l] + [lv for lv, gens in pending.items() if gens])
            raise InductionError(
                f"correction terms survived below the certified stop level {stop}: levels {leftovers}"
            )
        r = Chain(x.degree, x.floor, frozenset(terms))
        try:
            th = d0_primitive(params, r)
        except ValueError as err:
            raise InductionError(
                f"higher-differential table inconsistent with the level induction at level {l}: {err}"
            ) from None
        # d0 of the primitive must reproduce r on the nose.
        if apply_d0(params, th).terms != r.terms:
            raise InductionError(f"fiber primitive round-trip failed at level {l}")
        theta.append((l, th))
        image, lost = apply_table(d, Chain(th.degree, x.floor, th.terms))
        dropped.extend(lost)
        for lv, part in split_by_level(params, image).items():
            if lv >= l:
                raise InductionError(f"higher differential failed to drop the level at {l}")
            pending[lv] = pending.get(lv, set()) ^ set(part.terms)
    return theta, dropped


def find_primitive(d: FilteredDifferential, xi: Chain) -> PrimitiveResult:
    """Construct theta with d(theta) = xi above the floor, case by case.

    Rejects scenarios outside the supported cases, non-closed cycles (the
    differential image travels with the error), and c >= 1 scenarios with
    (c-1)*tau >= 1 where the level bounds are unavailable.  In the
    very-negative regime the induction runs independently per sphere class.
    """
    params = d.params
    case = theorem_case(params)
    if case.tag is CaseTag.NOT_APPLICABLE:
        raise ValueError("scenario matches no supported case; refusing to run")
    if case.tag is CaseTag.C_NON_NEGATIVE and params.c >= 1 and not case.cz_finiteness_ok:
        raise ValueError(
            f"(c-1)*tau = {(params.c - 1) * params.tau} >= 1: pick a smaller tau"
        )
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
            (a, Chain(xi.degree, xi.floor, frozenset(by_class[a])),
             2 * params.c * params.nu * a - half)
            for a in sorted(by_class)
        ]
    else:
        ceiling = level_ceiling(params, xi)
        bounds = (level_floor(params, xi.degree, xi.floor),
                  level_floor(params, xi.degree + 2, xi.floor))
        stop = min(b.l_min for b in bounds)
        components = [(None, xi, stop)]

    theta_terms: set[Generator] = set()
    labelled: list[tuple[str, Chain]] = []
    reports: list[ClassReport] = []
    dropped: list[Generator] = []
    for a, part, part_stop in components:
        theta_parts, drops = _descend(d, part, part_stop)
        dropped.extend(drops)
        prefix = "" if a is None else f"class={a},"
        part_theta: set[Generator] = set()
        for l, th in theta_parts:
            part_theta ^= th.terms
            labelled.append((f"{prefix}level={l}", th))
        theta_terms ^= part_theta
        if a is not None:
            xi_actions = [action(params, g) for g in part.terms]
            gaps = [min(abs(action(params, g) - av) for av in xi_actions) for g in part_theta]
            max_gap = max(gaps) if gaps else None
            reports.append(ClassReport(
                a, len(part), len(part_theta), max_gap,
                max_gap is None or max_gap <= gap_bound,
            ))
    theta = Chain(xi.degree + 2, theta_floor, frozenset(theta_terms))
    residual, res_drops = verify_primitive(d, xi, theta)
    return PrimitiveResult(
        case,
        theta,
        tuple(labelled),
        residual,
        canonical_sort(params, set(dropped) | set(res_drops)),
        level_ceiling=ceiling,
        stop_level=stop,
        bounds=bounds,
        gap_constant=gap_bound,
        class_reports=tuple(reports),
    )
