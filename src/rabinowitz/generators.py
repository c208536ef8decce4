"""Generators of the chain complex and their exact index/action arithmetic.

A generator ``(base, cover, sphere, sign)`` is one of the two signed critical
points on the circle of capped Reeb orbits over the base critical point
``base``: the ``cover``-fold fiber orbit (``cover = 0`` encodes the constant
orbits), capped by the fiber disk glued to a sphere of omega-area
``nu * sphere``.  The Lagrange multiplier ``eta = cover - f(base)`` is always
derived, never stored, so the integrality constraint ``eta + f(base) in Z``
holds by construction.

Gradings are half-integers; we store them doubled (``twice_mu``), so every
grading is an odd ``int`` and all arithmetic stays integral.  The closed
formulas used throughout:

    action          = tau*n + nu*a - (tau+1)*f(q)
    cz_fiber_disk   = 2n + 2*(c-1)*nu*a
    twice_mu        = 2*cz_fiber_disk - 2*morse_index + dim_M -+ 1   (+1 for '+')
    cz_base (level) = -morse_index + dim_M/2 + 2*c*nu*a
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .bundle import BundleParams

SIGNS = ("+", "-")


@dataclass(frozen=True, order=True)
class Generator:
    base: str
    cover: int    # n: iteration count of the fiber orbit, any integer
    sphere: int   # a: sphere class coordinate, omega-area nu*a
    sign: str     # '+' or '-': max/min of the perfect Morse function on the circle

    def __str__(self) -> str:
        return f"({self.base},{self.cover},{self.sphere},{self.sign})"

    def fiber_partner(self) -> Generator:
        """The other end of the fiber pairing (q, n, a, -) <-> (q, n-1, a, +)."""
        minus = self.sign == "-"
        cover = self.cover - 1 if minus else self.cover + 1
        return Generator(self.base, cover, self.sphere, "+" if minus else "-")


class ProjectedGenerator(NamedTuple):
    """Image of a generator downstairs: cover and sign are forgotten."""

    base: str
    sphere: int
    cz_base: int


class InfiniteSliceError(ValueError):
    """Requested enumeration window provably contains infinitely many generators."""


def validate_generator(params: BundleParams, g: Generator) -> None:
    params.crit(g.base)  # raises KeyError for unknown ids
    if g.sign not in SIGNS:
        raise ValueError(f"sign must be '+' or '-', got {g.sign!r}")
    if params.aspherical and g.sphere != 0:
        raise ValueError(f"aspherical scenario forces sphere class 0, got {g.sphere}")


def eta(params: BundleParams, g: Generator) -> Fraction:
    """Lagrange multiplier of the critical point: cover - f(base)."""
    return Fraction(g.cover) - params.crit(g.base).value


def action(params: BundleParams, g: Generator) -> Fraction:
    """tau*n + nu*a - (tau+1)*f(q), exactly."""
    cp = params.crit(g.base)
    omega_a = 0 if params.aspherical else params.nu * g.sphere
    return params.tau * g.cover + omega_a - (params.tau + 1) * cp.value


def cz_fiber_disk(params: BundleParams, n: int, a: int) -> int:
    """Conley-Zehnder index upstairs w.r.t. the fiber-disk capping plus sphere a.

    Equals 2n for a = 0 (in particular 0 for the constant orbits with trivial
    capping) and picks up twice the total-space Chern number 2*(c-1)*nu*a of
    the attached sphere otherwise.
    """
    if params.aspherical:
        if a != 0:
            raise ValueError("aspherical scenario forces sphere class 0")
        return 2 * n
    return 2 * n + 2 * (params.c - 1) * params.nu * a


def cz_flat_capping(params: BundleParams, n: int) -> int:
    """Conley-Zehnder index w.r.t. a capping inside the hypersurface: 2*c*n.

    Such cappings exist only for the covers that are contractible in the
    hypersurface, i.e. nonzero multiples of nu.
    """
    if params.aspherical:
        raise ValueError("no cover is contractible in the hypersurface (aspherical base)")
    if n == 0 or n % params.nu:
        raise ValueError(
            f"cover {n} is not contractible in the hypersurface (needs n in {params.nu}*Z, n != 0)"
        )
    return 2 * params.c * n


def grading(params: BundleParams, g: Generator) -> int:
    """Doubled half-integer grading; always odd."""
    cp = params.crit(g.base)
    s = 1 if g.sign == "+" else -1
    return 2 * cz_fiber_disk(params, g.cover, g.sphere) - 2 * cp.index + params.dim_m + s


def project_to_base(params: BundleParams, g: Generator) -> ProjectedGenerator:
    """Project to the base critical point with its capping; cover and sign drop."""
    cp = params.crit(g.base)
    c_term = 0 if params.aspherical else 2 * params.c * params.nu * g.sphere
    return ProjectedGenerator(g.base, g.sphere, -cp.index + params.dim_m // 2 + c_term)


def level(params: BundleParams, g: Generator) -> int:
    """Filtration level: the downstairs Conley-Zehnder index of the projection."""
    return project_to_base(params, g).cz_base


def sort_key(params: BundleParams, g: Generator):
    """Canonical order: level desc, action desc, base id, cover, sign."""
    return (-level(params, g), -action(params, g), g.base, g.cover, g.sign)


def canonical_sort(params: BundleParams, gens: Iterable[Generator]) -> tuple[Generator, ...]:
    return tuple(sorted(gens, key=lambda g: sort_key(params, g)))


def sphere_class_floor(params: BundleParams, twice_mu: int, action_floor: Fraction) -> int:
    """Least sphere class a generator of the given degree can have above the floor.

    Solving the action formula for the sphere coordinate gives
    ``nu*a >= (kappa - (mu+e)/2*tau + (tau+1)*f(q)) / (1 - (c-1)*tau)`` with
    ``e = morse_index - dim_M/2 -+ 1/2``; minimizing the right-hand side over
    ``|e| <= dim_M/2 + 1/2`` and over critical values yields a bound valid for
    every generator.  Requires ``(c - 1) * tau < 1`` so the divisor is positive
    (automatic for c <= 1).
    """
    if params.aspherical:
        raise ValueError("sphere classes are trivial in aspherical scenarios")
    slope = 1 - (params.c - 1) * params.tau
    if slope <= 0:
        raise ValueError(
            f"(c-1)*tau = {(params.c - 1) * params.tau} >= 1: "
            "action no longer controls the sphere class"
        )
    # (mu + e_max)/2 * tau with doubled mu: (twice_mu + dim_M + 1) * tau / 4
    peak = (twice_mu + params.dim_m + 1) * params.tau / 4
    bound = (Fraction(action_floor) - peak + (params.tau + 1) * params.min_value) / slope
    per_nu = bound / params.nu
    return -((-per_nu.numerator) // per_nu.denominator)  # ceil


def _require_odd(twice_mu: int) -> None:
    if twice_mu % 2 == 0:
        raise ValueError(f"degree must be odd (doubled half-integer grading), got {twice_mu}")


def _degree_quarter(params: BundleParams, twice_mu: int, cp, sign: str) -> int | None:
    """(n + (c-1)*nu*a) pinned by the degree, or None if parity rules it out."""
    s = 1 if sign == "+" else -1
    num = twice_mu + 2 * cp.index - params.dim_m - s
    if num % 4:
        return None
    return num // 4


def _class_zero_slice(
    params: BundleParams, twice_mu: int, action_floor: Fraction, lo: int, hi: int
) -> tuple[Generator, ...]:
    """Sphere-class-0 generators of one degree above the floor, levels in [lo, hi].

    With the class fixed the degree pins the cover, so the slice is finite.
    """
    found: list[Generator] = []
    for cp in params.morse:
        for sign in SIGNS:
            quarter = _degree_quarter(params, twice_mu, cp, sign)
            if quarter is None:
                continue
            g = Generator(cp.name, quarter, 0, sign)
            if lo <= level(params, g) <= hi and action(params, g) >= action_floor:
                found.append(g)
    return canonical_sort(params, found)


def _resolve_window(
    params: BundleParams,
    twice_mu: int,
    action_floor: Fraction,
    level_lo: int | None,
    level_hi: int | None,
) -> tuple[int, int]:
    half = params.dim_m // 2
    if params.aspherical or params.c == 0:
        lo = -half if level_lo is None else level_lo
        hi = half if level_hi is None else level_hi
        return lo, hi
    shift = 2 * params.c * params.nu
    if params.c >= 1:
        if level_hi is None:
            raise InfiniteSliceError(
                "infinite slice: no upper level bound and c >= 1 "
                "(sphere class unbounded above at any action floor)"
            )
        if level_lo is None:
            try:
                a_min = sphere_class_floor(params, twice_mu, action_floor)
            except ValueError as err:
                raise InfiniteSliceError(f"infinite slice: {err}") from None
            level_lo = -half + shift * a_min
        return level_lo, level_hi
    # c <= -1: levels decrease with the sphere class, so the roles swap.
    if level_lo is None:
        raise InfiniteSliceError(
            "infinite slice: no lower level bound and c <= -1 "
            "(sphere class unbounded above at any action floor)"
        )
    if level_hi is None:
        level_hi = half + shift * sphere_class_floor(params, twice_mu, action_floor)
    return level_lo, level_hi


def enumerate_generators(
    params: BundleParams,
    twice_mu: int,
    action_floor: Fraction,
    level_lo: int | None = None,
    level_hi: int | None = None,
) -> tuple[Generator, ...]:
    """All generators of one degree with action >= floor and level in a window.

    Missing window ends are derived where the scenario permits (aspherical and
    c = 0 levels are a priori bounded; for other c one side follows from the
    action floor via :func:`sphere_class_floor`); windows that provably contain
    infinitely many generators raise :class:`InfiniteSliceError`.  The result
    is in canonical order: level desc, action desc, base id, cover, sign.
    """
    _require_odd(twice_mu)
    action_floor = Fraction(action_floor)
    lo, hi = _resolve_window(params, twice_mu, action_floor, level_lo, level_hi)
    if lo > hi:
        return ()
    if params.aspherical:
        return _class_zero_slice(params, twice_mu, action_floor, lo, hi)
    half = params.dim_m // 2
    found: list[Generator] = []
    for cp in params.morse:
        for sign in SIGNS:
            quarter = _degree_quarter(params, twice_mu, cp, sign)
            if quarter is None:
                continue
            if params.c == 0:
                # Level ignores the sphere class entirely; once a critical
                # point sits in the window every sphere class contributes.
                if lo <= -cp.index + half <= hi:
                    raise InfiniteSliceError(
                        "infinite slice: c = 0 leaves the sphere class "
                        f"unconstrained for critical point {cp.name!r}"
                    )
            else:
                den = 2 * params.c * params.nu
                for lv in range(lo, hi + 1):
                    q, r = divmod(lv + cp.index - half, den)
                    if r:
                        continue
                    a = q
                    n = quarter - (params.c - 1) * params.nu * a
                    g = Generator(cp.name, n, a, sign)
                    if action(params, g) >= action_floor:
                        found.append(g)
    return canonical_sort(params, found)
