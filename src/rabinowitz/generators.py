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

Comparisons run on integers.  ``params.rows`` holds, per critical point, the
one table of these formulas: integer coefficients that make (level, twice_mu,
L*action), L = ``params.action_denominator``, three linear forms in (cover,
sphere).  :func:`_invariants` reads a row forward; :func:`_floor_key` holds
the one floor test, as the least key at or above a floor.
:func:`_invariants` is also the one check of what a generator is: it
refuses an unknown critical point id, a sign other than '+' or '-' and a
nonzero sphere class on an aspherical base, so every invariant, order and
report refuses them with the same named error.
:func:`enumerate_generators` solves each row for one slice of fixed degree:
the degree pins the class-0 cover and sign, and the level window and action
floor are solved for the sphere class on integers; a missing end of the
window is no constraint.  The case enters only through the row's per-class
coefficients, which are absent on an aspherical base (one class).
:func:`action` still returns the exact ``Fraction``, built only where a report
prints an action or an error message quotes one.  A :class:`Generator` is a
named tuple, so hashing and ordering one is tuple work.  Building one is
not: the ``__new__`` that NamedTuple generates is a Python function, which
only checks the field count and calls ``tuple.__new__``, at about 1.7 times
that call's cost.  So every construction site that runs once per term
(enumeration, the fiber pairing, the Novikov shift, the table image, table
normalization and sampling, the induction's theta parts) calls :data:`_new`,
which is ``tuple.__new__``, on a field tuple it writes out in full.  So do
the kernel's per-call records, which are most of the fixed cost of a level
induction that visits few levels: ``truncate``'s ``Chain`` and
``Truncated``, the raw chains of ``apply_total``, ``apply_table`` and
``verify_primitive``, the induction's theta chain and every
``PrimitiveResult``, defaulted fields included.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import inf
from typing import Iterable, NamedTuple

from .bundle import BundleParams

# ``_new(cls, (field, ...))`` builds a named tuple of class ``cls`` without
# the Python-level ``__new__`` that NamedTuple generates (about 190 ns against
# 320 ns per Generator on CPython 3.11).  Its one check, the field count, is
# met by writing every field out at each call site.
_new = tuple.__new__


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
        return _new(Generator, (self.base, cover, self.sphere, "+" if minus else "-"))


class InfiniteSliceError(ValueError):
    """Requested enumeration window provably contains infinitely many generators."""


def eta(params: BundleParams, g: Generator) -> Fraction:
    """Lagrange multiplier of the critical point: cover - f(base)."""
    _invariants(params, g)  # refuses what is not a generator
    return Fraction(g.cover) - params.crit(g.base).value


def _invariants(params: BundleParams, g: Generator) -> tuple[int, int, int]:
    """(level, twice_mu, L*action) of ``g`` from its point's coefficient row.

    This is the one check of what a generator is, and it refuses, in this
    order: an unknown critical point id (``KeyError``), a sign other than
    '+' or '-', and a nonzero sphere class on an aspherical base (both
    ``ValueError``).  Every invariant, report and table rule reads a
    generator through here.
    """
    base, n, a, sign = g
    lv, mu, key, k_n, l_a, m_a, k_a, _ = params.rows[base]
    if sign == "+":
        mu += 4 * n + 1
    elif sign == "-":
        mu += 4 * n - 1
    else:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    key += k_n * n
    if not a:
        return lv, mu, key
    if l_a is None:
        raise ValueError(f"aspherical scenario forces sphere class 0, got {a}")
    return lv + l_a * a, mu + m_a * a, key + k_a * a


def _floor_key(params: BundleParams, floor: Fraction) -> int:
    """The least L*action key at or above ``floor``.  A generator has action
    >= ``floor`` exactly when its integer key is >= this integer, so this is
    the one statement of the floor test: ``truncate``, ``build_chain``, the
    level induction's fold and :func:`enumerate_generators` compare keys with
    it."""
    return -(-floor.numerator * params.action_denominator // floor.denominator)


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


def _uncontrolled(params: BundleParams) -> str:
    return f"(c-1)*tau = {(params.c - 1) * params.tau} >= 1: action no longer controls the sphere class"


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
    per_class = (1 - (params.c - 1) * params.tau) * params.nu
    if per_class <= 0:
        raise ValueError(_uncontrolled(params))
    peak = Fraction(twice_mu + params.dim_m + 1, 4) * params.tau
    return math.ceil((action_floor - peak + (params.tau + 1) * params.min_value) / per_class)


def _require_odd(twice_mu: int) -> None:
    if twice_mu % 2 == 0:
        raise ValueError(f"degree must be odd (doubled half-integer grading), got {twice_mu}")


def enumerate_generators(
    params: BundleParams,
    twice_mu: int,
    action_floor: Fraction,
    level_lo: int | None = None,
    level_hi: int | None = None,
) -> tuple[Generator, ...]:
    """All generators of one degree with action >= floor and level in a window.

    Each row of ``params.rows`` gives one slice: the degree pins the cover n0
    and sign at sphere class 0, and along n = n0 - m_a/4*a = n0 + (1-c)*nu*a
    the degree is fixed while level and L*action are linear in the sphere
    class a; the level window and the action floor are solved for a exactly
    on integers.  A missing end of the window is no constraint.  A slice that
    holds infinitely many generators raises
    :class:`InfiniteSliceError`: one unbounded above in the sphere class
    names the window end its case misses (the upper for c >= 1, the lower for
    c <= -1, any for c = 0), and one unbounded below only names
    (c-1)*tau >= 1.  The result is in canonical order: level desc, action
    desc, base id, cover, sign.
    """
    _require_odd(twice_mu)
    bar = _floor_key(params, Fraction(action_floor))
    # Along a slice the degree m0 + 4n + m_a*a -+ 1 is fixed, so the cover
    # moves by -m_a/4 per class; every row shares (k_n, l_a, m_a, k_a).
    _, _, _, k_n, step, m_a, k_a, _ = next(iter(params.rows.values()), (None,) * 8)
    if step is None:  # aspherical: the one class 0
        classes, step, cover_step, slope = (0, 0), 0, 0, 0
    else:
        classes, cover_step = (-inf, inf), -m_a // 4
        slope = k_a + cover_step * k_n
    found: list[Generator] = []
    for lv0, m0, k0, _, _, _, _, cp in params.rows.values():
        # The degree pins the class-0 cover n0 and, by its parity, the sign.
        n0, r = divmod(twice_mu - m0 + 1, 4)
        if r % 2:  # an odd dim_M: no generator has an odd degree
            continue
        sign = "+" if r else "-"
        a_lo, a_hi = classes
        # The classes a with coef*a >= rhs: action >= floor, level >= lo, level <= hi;
        # a missing end is 0*a >= 0, no constraint.
        bounds = ((slope, bar - k0 - k_n * n0),
                  (0, 0) if level_lo is None else (step, level_lo - lv0),
                  (0, 0) if level_hi is None else (-step, lv0 - level_hi))
        for coef, rhs in bounds:
            if coef > 0:
                a_lo = max(a_lo, -(-rhs // coef))
            elif coef < 0:
                a_hi = min(a_hi, rhs // coef)
            elif rhs > 0:
                a_lo, a_hi = inf, -inf  # no class at all
        if a_lo > a_hi:
            continue
        if a_hi == inf:  # the case's window end is missing, or c = 0 keeps the level
            if not step:
                raise InfiniteSliceError(
                    f"infinite slice: c = 0 leaves the sphere class unconstrained for critical point {cp.name!r}"
                )
            end = "no upper level bound and c >= 1" if step > 0 else "no lower level bound and c <= -1"
            raise InfiniteSliceError(f"infinite slice: {end} (sphere class unbounded above at any action floor)")
        if a_lo == -inf:
            raise InfiniteSliceError(f"infinite slice: {_uncontrolled(params)}")
        found += [_new(Generator, (cp.name, n0 + cover_step * a, a, sign)) for a in range(a_lo, a_hi + 1)]
    return canonical_sort(params, found)
