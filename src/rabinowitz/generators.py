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

Comparisons run on integers: :func:`_invariants` reads the point's row of
integer coefficients cached on :class:`BundleParams` and returns (level,
twice_mu, L*action), L = ``params.action_denominator``, as three linear forms
in (cover, sphere); :func:`_level_above` holds the one floor test, and
:func:`_above_floor` is its predicate form.
:func:`enumerate_generators` runs one path for every case: each
sphere-class-0 generator of the degree starts a slice of fixed degree, and its
level window and action floor are solved for the sphere class on integers.  The
case enters only through ``params.level_step`` (2*c*nu, 0 when aspherical) and
the single sphere class of an aspherical base.
:func:`action` still returns the exact ``Fraction``, built only where a report
prints an action or an error message quotes one.  A :class:`Generator` is a
named tuple, so building, hashing and ordering one is tuple work.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf
from typing import Callable, Iterable, Iterator, NamedTuple

from .bundle import BundleParams

SIGNS = ("+", "-")


class Generator(NamedTuple):
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


def _invariants(params: BundleParams, g: Generator) -> tuple[int, int, int]:
    """(level, twice_mu, L*action) of ``g`` from its point's coefficient row."""
    base, n, a, sign = g
    lv, mu, key, k_n, l_a, m_a, k_a = params.rows[base]
    mu += 4 * n + (1 if sign == "+" else -1)
    key += k_n * n
    if not a:
        return lv, mu, key
    if l_a is None:
        raise ValueError("aspherical scenario forces sphere class 0")
    return lv + l_a * a, mu + m_a * a, key + k_a * a


def _level_above(params: BundleParams, floor: Fraction) -> Callable[[Generator], int | None]:
    """``g -> level(g)`` if ``action(g) >= floor``, else None: the one floor test,
    decided on the integer action key with one invariants lookup."""
    bar, den = floor.numerator * params.action_denominator, floor.denominator

    def level_above(g: Generator) -> int | None:
        lv, _, key = _invariants(params, g)
        return lv if key * den >= bar else None

    return level_above


def _above_floor(params: BundleParams, floor: Fraction) -> Callable[[Generator], bool]:
    """The predicate ``action(g) >= floor``."""
    level_above = _level_above(params, floor)
    return lambda g: level_above(g) is not None


def action(params: BundleParams, g: Generator) -> Fraction:
    """tau*n + nu*a - (tau+1)*f(q), exactly."""
    return Fraction(_invariants(params, g)[2], params.action_denominator)


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
    return _invariants(params, g)[1]


def level(params: BundleParams, g: Generator) -> int:
    """Filtration level: the downstairs Conley-Zehnder index of the projection."""
    return _invariants(params, g)[0]


def sort_key(params: BundleParams, g: Generator):
    """Canonical order: level desc, action desc, base id, cover, sign."""
    lv, _, key = _invariants(params, g)
    return (-lv, -key, g.base, g.cover, g.sign)


def canonical_sort(params: BundleParams, gens: Iterable[Generator]) -> tuple[Generator, ...]:
    return tuple(sorted(gens, key=lambda g: sort_key(params, g)))


def sphere_class_floor(params: BundleParams, twice_mu: int, action_floor: Fraction) -> int:
    """Least sphere class a generator of the given degree can have above the floor.

    Solving the action formula for the sphere coordinate gives
    ``nu*a >= (kappa - (mu+e)/2*tau + (tau+1)*f(q)) / (1 - (c-1)*tau)`` with
    ``e = morse_index - dim_M/2 -+ 1/2``; minimizing the right-hand side over
    ``|e| <= dim_M/2 + 1/2`` and over critical values yields a bound valid for
    every generator.  Requires ``(c - 1) * tau < 1`` so the divisor is positive
    (automatic for c <= 1).  The ceiling is taken on integers: both sides are
    scaled by 4*L*q for the floor p/q, with L*tau = ``params.tau_key``.
    """
    if params.aspherical:
        raise ValueError("sphere classes are trivial in aspherical scenarios")
    scale, k_n = params.action_denominator, params.tau_key
    slope = scale - (params.c - 1) * k_n  # L * (1 - (c-1)*tau)
    if slope <= 0:
        raise ValueError(
            f"(c-1)*tau = {(params.c - 1) * params.tau} >= 1: "
            "action no longer controls the sphere class"
        )
    p, q = action_floor.numerator, action_floor.denominator
    # (mu + e_max)/2 * tau with doubled mu is (twice_mu + dim_M + 1) * k_n / 4L
    num = 4 * scale * p - q * ((twice_mu + params.dim_m + 1) * k_n - 4 * params.min_key)
    return -(-num // (4 * q * params.nu * slope))  # ceil


def _require_odd(twice_mu: int) -> None:
    if twice_mu % 2 == 0:
        raise ValueError(f"degree must be odd (doubled half-integer grading), got {twice_mu}")


def _class_zero_of_degree(params: BundleParams, twice_mu: int) -> Iterator[Generator]:
    """Sphere-class-0 generators of one degree: it pins the cover, parity the sign."""
    for cp in params.morse:
        for sign, s in (("+", 1), ("-", -1)):
            num = twice_mu + 2 * cp.index - params.dim_m - s
            if num % 4 == 0:
                yield Generator(cp.name, num // 4, 0, sign)


def _least_level(params: BundleParams, twice_mu: int, action_floor: Fraction) -> int:
    """Least level a generator of one degree can have above the floor (c >= 0).

    Aspherical and c = 0 levels never fall below -dim_M/2; for c >= 1 the
    level rises with the sphere class, which the floor bounds below.
    """
    step, half = params.level_step, params.dim_m // 2
    return -half + step * sphere_class_floor(params, twice_mu, action_floor) if step else -half


def enumerate_generators(
    params: BundleParams,
    twice_mu: int,
    action_floor: Fraction,
    level_lo: int | None = None,
    level_hi: int | None = None,
) -> tuple[Generator, ...]:
    """All generators of one degree with action >= floor and level in a window.

    Each sphere-class-0 generator of the degree starts one slice n = n0 +
    (1-c)*nu*a along which the degree is fixed and level and L*action are
    linear in the sphere class a; the level window and the action floor are
    solved for a exactly on integers.  Missing window ends are derived where
    the case permits: levels lie in [-dim_M/2, dim_M/2] when the level step
    2*c*nu is 0 (aspherical, c = 0), and the end on the floor's side follows
    from :func:`sphere_class_floor` otherwise.  A window that provably holds
    infinitely many generators raises :class:`InfiniteSliceError`: the other
    end is missing, or c = 0 and a critical point sits in the window.  The
    result is in canonical order: level desc, action desc, base id, cover, sign.
    """
    _require_odd(twice_mu)
    action_floor = Fraction(action_floor)
    step, half = params.level_step, params.dim_m // 2
    if step > 0 and level_hi is None:
        raise InfiniteSliceError(
            "infinite slice: no upper level bound and c >= 1 "
            "(sphere class unbounded above at any action floor)"
        )
    if step < 0 and level_lo is None:
        raise InfiniteSliceError(
            "infinite slice: no lower level bound and c <= -1 "
            "(sphere class unbounded above at any action floor)"
        )
    if level_lo is None:
        try:
            level_lo = _least_level(params, twice_mu, action_floor)
        except ValueError as err:
            raise InfiniteSliceError(f"infinite slice: {err}") from None
    if level_hi is None:  # step < 0: levels fall as the floor-bounded class rises
        level_hi = (half + step * sphere_class_floor(params, twice_mu, action_floor)
                    if step else half)
    bar, den = action_floor.numerator * params.action_denominator, action_floor.denominator
    if params.aspherical:
        classes, cover_step, slope = (0, 0), 0, 0
    else:
        classes, cover_step = (-inf, inf), (1 - params.c) * params.nu
        slope = (params.nu * params.action_denominator + cover_step * params.tau_key) * den
    found: list[Generator] = []
    for g0 in _class_zero_of_degree(params, twice_mu):
        lv0, _, key0 = _invariants(params, g0)
        a_lo, a_hi = classes
        # The classes a with coef*a >= rhs: level >= lo, level <= hi, action >= floor.
        bounds = ((step, level_lo - lv0), (-step, lv0 - level_hi), (slope, bar - key0 * den))
        for coef, rhs in bounds:
            if coef > 0:
                a_lo = max(a_lo, -(-rhs // coef))
            elif coef < 0:
                a_hi = min(a_hi, rhs // coef)
            elif rhs > 0:
                a_lo, a_hi = inf, -inf  # no class at all
        if a_lo > a_hi:
            continue
        if a_hi - a_lo == inf:  # level step 0, so c = 0 with the point in the window
            raise InfiniteSliceError(
                "infinite slice: c = 0 leaves the sphere class "
                f"unconstrained for critical point {g0.base!r}"
            )
        found += [Generator(g0.base, g0.cover + cover_step * a, a, g0.sign)
                  for a in range(a_lo, a_hi + 1)]
    return canonical_sort(params, found)
