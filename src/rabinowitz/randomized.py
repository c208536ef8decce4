"""Seed-reproducible admissible differential tables and boundary cycles.

Trajectory counts cannot be computed at a desk, so test fixtures sample them:
candidate entries are drawn from enumerated generator windows, filtered by the
structural validator, assembled into units that keep the square of the total
differential zero, and finally repaired by dropping offenders in canonical
order until the windowed square check passes.  Everything is a pure function
of (scenario, seed), which keeps reports byte-reproducible.

The building blocks mirror how the fiber differential interacts with a table:
an entry out of a - generator into a + generator is self-consistent on its
own, while an entry between + generators needs the companion entry between
the canonical fiber preimages of its endpoints.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .bundle import BundleParams, theorem_case
from .chains import Chain
from .differentials import (
    FilteredDifferential,
    HigherDifferentialEntry,
    TableValidationError,
    apply_total,
    load_table,
    validate_entry,
)
from .generators import Generator, _class_zero_slice, enumerate_generators, level


def _pool(
    params: BundleParams,
    degree: int,
    floor: Fraction,
    level_lo: int,
    level_hi: int,
) -> tuple[Generator, ...]:
    """Finite sampling pool for one degree.

    Enumeration does the work except when c = 0, where any level window meeting
    the feasible range holds infinitely many generators; there the pool is the
    slice of shift-orbit representatives (sphere class 0), which is all a table
    needs since entries are stored on representatives anyway.
    """
    if params.aspherical or params.c != 0:
        return enumerate_generators(params, degree, floor, level_lo, level_hi)
    return _class_zero_slice(params, degree, floor, level_lo, level_hi)


def _candidate_entries(
    params: BundleParams,
    degrees: tuple[int, ...],
    floor: Fraction,
    level_lo: int,
    level_hi: int,
) -> list[HigherDifferentialEntry]:
    """All single-entry-valid table lines on the enumerated window."""
    case = theorem_case(params)
    pool: dict[int, tuple[Generator, ...]] = {
        deg: _pool(params, deg, floor, level_lo, level_hi) for deg in degrees
    }
    out: list[HigherDifferentialEntry] = []
    for deg in degrees:
        if deg - 2 not in pool:
            continue
        for src in pool[deg]:
            for tgt in pool[deg - 2]:
                drop = level(params, src) - level(params, tgt)
                if drop < 1:
                    continue
                entry = HigherDifferentialEntry(drop, src, tgt)
                if not validate_entry(params, case, entry):
                    out.append(entry)
    return out


def _lift(entry: HigherDifferentialEntry) -> HigherDifferentialEntry:
    """Companion entry between the fiber preimages of a +-to-+ entry."""
    return HigherDifferentialEntry(
        entry.drop, entry.source.fiber_partner(), entry.target.fiber_partner()
    )


def random_admissible_table(
    params: BundleParams,
    seed: int,
    degrees: tuple[int, ...],
    floor: Fraction,
    level_lo: int,
    level_hi: int,
    size: int = 6,
) -> FilteredDifferential:
    """A validated table sampled reproducibly from the given window.

    Units are added greedily while their endpoints stay disjoint from earlier
    ones (so no accidental composites arise); the result is then passed through
    the full validator, with a canonical-order repair loop as a safety net.
    """
    rng = random.Random(seed)
    candidates = _candidate_entries(params, degrees, Fraction(floor), level_lo, level_hi)
    candidates.sort(key=lambda e: e.order_key(params))
    rng.shuffle(candidates)
    chosen: list[HigherDifferentialEntry] = []
    used: set[Generator] = set()
    for entry in candidates:
        if len(chosen) >= size:
            break
        unit = [entry]
        if entry.source.sign == "+":
            if entry.target.sign != "+":
                continue  # needs a fiber companion that does not exist
            unit.append(_lift(entry))
        elif entry.target.sign == "-":
            continue  # a bare -to- entry never squares to zero on its own
        endpoints = {e.source for e in unit} | {e.target for e in unit}
        if endpoints & used:
            continue
        chosen.extend(unit)
        used |= endpoints
    return _load_with_repair(params, chosen)


def _load_with_repair(
    params: BundleParams, entries: list[HigherDifferentialEntry]
) -> FilteredDifferential:
    """Drop square-check offenders (canonically last first) until the table loads."""
    work = list(entries)
    while True:
        try:
            return load_table(params, work)
        except TableValidationError as err:
            if not work:
                raise
            offenders = [
                e
                for e in work
                if any(str(e.source) in line or str(e.target) in line for line in err.report)
            ]
            victim = max(offenders or work, key=lambda e: e.order_key(params))
            work.remove(victim)


def random_chain(
    params: BundleParams,
    seed: int,
    degree: int,
    floor: Fraction,
    level_lo: int,
    level_hi: int,
    size: int = 4,
) -> Chain:
    """Reproducible chain of up to ``size`` terms from the enumerated window."""
    rng = random.Random(seed)
    pool = list(_pool(params, degree, Fraction(floor), level_lo, level_hi))
    take = min(size, len(pool))
    terms = frozenset(rng.sample(pool, take)) if take else frozenset()
    return Chain(degree, Fraction(floor), terms)


def random_boundary(
    params: BundleParams,
    d: FilteredDifferential,
    seed: int,
    degree: int,
    floor: Fraction,
    level_lo: int,
    level_hi: int,
    size: int = 4,
) -> tuple[Chain, Chain]:
    """A known-exact cycle: (xi, eta) with xi the differential of eta.

    Closedness of xi above the floor is automatic from the validated square
    of the differential; the pair is the oracle for primitive searches.
    """
    eta = random_chain(params, seed, degree + 2, floor, level_lo, level_hi, size)
    xi, _ = apply_total(d, eta)
    return xi, eta
