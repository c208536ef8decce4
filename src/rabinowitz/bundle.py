"""Scenario parameters for a negative line bundle over a closed symplectic base.

All scalars are exact :class:`fractions.Fraction`; admissibility questions
(semi-positivity, which case of the vanishing argument applies) are answered
symbolically, never with floats.  Sphere classes are coordinatized by a single
integer ``a``: the class with omega-area ``nu * a``.  In aspherical scenarios
the sphere group is trivial and ``a = 0`` everywhere.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple


class _ById(dict):
    """A dict by critical point id whose missing ids raise the one unknown-id error."""

    def __missing__(self, name: str):
        raise KeyError(f"unknown critical point id {name!r}")


class CritPoint(NamedTuple):
    """A critical point of the auxiliary Morse function on the base."""

    name: str
    index: int          # Morse index, expected in [0, dim_m]
    value: Fraction     # critical value, expected in the open interval (0, 1)


class _BundleFields(NamedTuple):
    dim_m: int
    tau: Fraction
    morse: tuple[CritPoint, ...]
    nu: int | None = None
    c: int | None = None


class BundleParams(_BundleFields):
    """Geometric scenario: base dimension, circle-bundle level, Morse data.

    ``nu``/``c`` are given together for spherical scenarios (omega takes values
    ``nu * Z`` on spheres, and the first Chern class of the base equals
    ``c * omega`` on spheres) and are both ``None`` for aspherical ones.  The
    C^2-smallness of the Morse function is an unchecked modelling assumption;
    no quantitative bound is available, so none is validated.  The per-point
    constants, their coefficient rows, the case and the case's rules (level
    step, refusal, depth cutoff) are cached, not fields, so equality, hashing
    and repr ignore them; the hash of the fields is cached too.  The fields
    live on a named-tuple base; this subclass keeps a ``__dict__`` for the
    caches.
    """

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The tuple hash of the fields, taken once: every memo keyed on the
        params hashes them, and each critical value is a ``Fraction``."""
        return tuple.__hash__(self)

    @property
    def aspherical(self) -> bool:
        return self.nu is None and self.c is None

    @cached_property
    def action_denominator(self) -> int:
        """L: every action is an integer multiple of 1/L."""
        return math.lcm(self.tau.denominator,
                        *(((self.tau + 1) * cp.value).denominator for cp in self.morse))

    @cached_property
    def points(self) -> dict[str, tuple[CritPoint, int, int]]:
        """By id: (point, its level at class 0 = -index + dim_M/2, L*(tau+1)*f(q)).

        Built in reverse, so the first of duplicate ids wins.
        """
        scale, half = (self.tau + 1) * self.action_denominator, self.dim_m // 2
        return _ById((cp.name, (cp, half - cp.index, int(scale * cp.value)))
                     for cp in reversed(self.morse))

    @cached_property
    def tau_key(self) -> int:
        """L*tau: the action key gained per cover."""
        return self.action_denominator // self.tau.denominator * self.tau.numerator

    @cached_property
    def min_key(self) -> int:
        """L*(tau+1)*min f over the critical points, an integer."""
        return int((self.tau + 1) * self.action_denominator * self.min_value)

    @cached_property
    def level_step(self) -> int:
        """Level gained per sphere class, 2*c*nu; 0 when aspherical (one class)."""
        return 0 if self.aspherical else 2 * self.c * self.nu

    @cached_property
    def rows(self) -> dict[str, tuple[int, ...]]:
        """By id: (l0, m0, k0, k_n, l_a, m_a, k_a) with level = l0 + l_a*a, twice_mu =
        m0 + 4n + m_a*a -+ 1 and L*action = k0 + k_n*n + k_a*a; aspherical: l_a = None."""
        k_n = self.tau_key
        per_a = (None,) * 3 if self.aspherical else (
            self.level_step, 4 * (self.c - 1) * self.nu, self.nu * self.action_denominator)
        return _ById((name, (lv, self.dim_m - 2 * cp.index, -key, k_n, *per_a))
                     for name, (cp, lv, key) in self.points.items())

    def crit(self, name: str) -> CritPoint:
        return self.points[name][0]

    @cached_property
    def case(self) -> TheoremCase:
        return theorem_case(self)

    @cached_property
    def refusal(self) -> str | None:
        """Why the vanishing algorithm refuses to run here, or None if it runs."""
        if self.case.tag is CaseTag.NOT_APPLICABLE:
            return "scenario matches no supported case; refusing to run"
        if self.case.cz_finiteness_ok is False:
            return f"(c-1)*tau = {(self.c - 1) * self.tau} >= 1: pick a smaller tau"
        return None

    @cached_property
    def depth_cutoff(self) -> int | None:
        """Largest admissible differential drop: dim_M when c = 0 (levels span
        only dim_M there), else None (no cutoff)."""
        return self.dim_m if self.c == 0 else None

    @cached_property
    def min_value(self) -> Fraction:
        return min(cp.value for cp in self.morse)

    @cached_property
    def max_value(self) -> Fraction:
        return max(cp.value for cp in self.morse)


class CaseTag(Enum):
    ASPHERICAL = "aspherical"
    C_NON_NEGATIVE = "c-nonnegative"
    C_VERY_NEGATIVE = "c-very-negative"
    NOT_APPLICABLE = "not-applicable"


class TheoremCase(NamedTuple):
    """Which branch of the vanishing argument a scenario falls into.

    For ``c >= 1`` the flag ``cz_finiteness_ok`` records whether
    ``(c - 1) * tau < 1`` holds, the hypothesis under which the Novikov
    condition is equivalent to downstairs-index finiteness; it is ``None``
    in every other case.
    """

    tag: CaseTag
    cz_finiteness_ok: bool | None = None


class SemiPositivity(NamedTuple):
    holds: bool
    reason: str


def validate(params: BundleParams) -> tuple[str, ...]:
    """Every violated scenario invariant, one line each (empty means admissible)."""
    bad: list[str] = []
    if params.dim_m < 0:
        bad.append(f"dim_M negative: {params.dim_m}")
    elif params.dim_m % 2:
        bad.append(f"dim_M odd: {params.dim_m}")
    if params.tau <= 0:
        bad.append(f"tau must be positive, got {params.tau}")
    if (params.nu is None) != (params.c is None):
        bad.append("nu and c must be given together (spherical) or both omitted (aspherical)")
    if params.nu is not None and params.nu < 1:
        bad.append(f"nu must be a positive integer, got {params.nu}")
    if not params.morse:
        bad.append("Morse data empty: at least one critical point required")
    seen: set[str] = set()
    for cp in params.morse:
        if cp.name in seen:
            bad.append(f"duplicate critical point id {cp.name!r}")
        seen.add(cp.name)
        if not 0 <= cp.index <= params.dim_m:
            bad.append(f"Morse index of {cp.name!r} outside [0, {params.dim_m}]: {cp.index}")
        if not 0 < cp.value < 1:
            bad.append(f"critical value of {cp.name!r} not in (0,1): {cp.value}")
    return tuple(bad)


def minimal_chern_number(params: BundleParams) -> int:
    """|c - 1| * nu, the minimal Chern number of the total space."""
    if params.aspherical:
        raise ValueError("minimal Chern number is undefined for aspherical scenarios")
    return abs(params.c - 1) * params.nu


def is_semi_positive(params: BundleParams) -> SemiPositivity:
    """Semi-positivity of the total space, with the clause that fired.

    Clauses, in order: aspherical base; monotone total space (c > 1);
    vanishing first Chern class of the total space (c = 1); minimal Chern
    number at least dim_E/2 - 2, i.e. |c-1|*nu >= dim_M/2 - 1.
    """
    if params.aspherical:
        return SemiPositivity(True, "symplectically aspherical")
    if params.c > 1:
        return SemiPositivity(True, f"monotone total space (c = {params.c} > 1)")
    if params.c == 1:
        return SemiPositivity(True, "first Chern class of the total space vanishes (c = 1)")
    n_e = minimal_chern_number(params)
    threshold = params.dim_m // 2 - 1
    if n_e >= threshold:
        return SemiPositivity(
            True, f"minimal Chern number {n_e} >= dim_E/2 - 2 = {threshold}"
        )
    return SemiPositivity(
        False,
        f"no clause applies: |c-1|*nu = {n_e} < dim_M/2 - 1 = {threshold} and c < 1",
    )


def theorem_case(params: BundleParams) -> TheoremCase:
    """Classify the scenario for the vanishing algorithm.

    Scenarios tagged NOT_APPLICABLE are rejected downstream, never silently
    processed.
    """
    if params.aspherical:
        return TheoremCase(CaseTag.ASPHERICAL)
    if params.c >= 1:
        return TheoremCase(
            CaseTag.C_NON_NEGATIVE, cz_finiteness_ok=(params.c - 1) * params.tau < 1
        )
    if params.c == 0 and is_semi_positive(params).holds:
        return TheoremCase(CaseTag.C_NON_NEGATIVE)
    if params.level_step <= -params.dim_m:
        return TheoremCase(CaseTag.C_VERY_NEGATIVE)
    return TheoremCase(CaseTag.NOT_APPLICABLE)
