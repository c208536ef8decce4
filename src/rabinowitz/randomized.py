"""Seed-reproducible admissible differential tables and boundary cycles.

Trajectory counts cannot be computed at a desk, so test fixtures sample them:
candidate entries are the pairs of enumerated generators the per-entry rules
admit, assembled greedily into units with disjoint endpoints, then loaded
through the full validator.  Disjoint units do not make the square of the
total differential zero, since a table acts on whole Novikov shift orbits, so
a load often fails the windowed square check; each failed load then removes
one entry, as :func:`_load_with_repair` describes, until the table loads.
Everything is a pure function of (scenario, seed), which keeps reports
byte-reproducible.

A candidate is one integer code over the window's generators in canonical
order, so the seeded shuffle permutes plain ints; only the codes the greedy
loop reads are decoded into entries.  :func:`_shuffled` permutes them with
``random.Random(seed).shuffle``'s own loop and draws, inlined and walked in
runs of indices whose draws take the same number of bits; a test pins the
two together.  Its draws depend only on the list's length, so a seeded table
depends on the candidates and their order, not on how they are stored.

Fixtures sample many seeds on one window, so the pools and the candidate
codes are built once per (params, degrees, floor, level window) and
memoised; ``BundleParams`` is frozen and hashable by value, so an equal base
built elsewhere finds the same entry.  Both memos are bounded, like every
``lru_cache`` in the package.  Every cached value is a tuple: all callers
get the same object, so a mutable one would let one sample's shuffle reorder
the next one's candidates.  The public entry points turn degrees into a
tuple and the floor into a ``Fraction`` before the lookup, so a list of
degrees still works.

The unit rule: a unit's target is a + generator, and a + source brings its
fiber companion, the entry between the canonical fiber preimages of its ends,
without which the fiber differential makes the square nonzero at once.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

from .bundle import BundleParams, CaseTag
from .chains import Chain
from .differentials import (
    FilteredDifferential,
    HigherDifferentialEntry,
    TableValidationError,
    apply_total,
    load_table,
)
from .generators import Generator, _new, enumerate_generators, sort_key


@lru_cache(maxsize=128)
def _pool(
    params: BundleParams,
    degree: int,
    floor: Fraction,
    level_lo: int,
    level_hi: int,
) -> tuple[Generator, ...]:
    """Finite sampling pool for one degree: the enumerated window.

    For c = 0, where any level window meeting the feasible range holds
    infinitely many generators, the window is enumerated on the base's
    aspherical twin, which yields the sphere-class-0 shift-orbit
    representatives: all a table needs, since entries are stored on
    representatives anyway.  At class 0 the twin has the same levels,
    gradings and action keys.  Every other base, aspherical included, is
    enumerated as it is, with the rows it has already built.
    """
    if params.c == 0:
        params = BundleParams(params.dim_m, params.tau, params.morse)
    return enumerate_generators(params, degree, floor, level_lo, level_hi)


@lru_cache(maxsize=32)
def _candidate_entries(
    params: BundleParams,
    degrees: tuple[int, ...],
    floor: Fraction,
    level_lo: int,
    level_hi: int,
) -> tuple[tuple[int, ...], tuple[Generator, ...]]:
    """All single-entry-valid table lines on the window, as ascending integer codes.

    ``gens`` merges the per-degree pools in canonical order; with M = len(gens)
    the line (drop, gens[s], gens[t]) has code (drop*M + s)*M + t, so ascending
    codes follow the canonical table order (drop, source key, target key).
    Pools are per degree, so the grading rule holds.  Per degree (and sphere
    class, when the case preserves it) the targets a source may reach by the
    level and depth rules are one slice of canonical order; the action rule is
    an integer test on the sort keys (-level, -L*action, ...).
    """
    same_class = params.case.tag is CaseTag.C_VERY_NEGATIVE
    max_drop = params.depth_cutoff
    keyed = sorted((sort_key(params, g), deg, g) for deg in degrees
                   for g in _pool(params, deg, floor, level_lo, level_hi))
    gens = tuple(g for _, _, g in keyed)
    m = len(gens)
    mm = m * m
    # With key = sort_key, code = (s*M - key_s[0]*M*M) + (t + key_t[0]*M*M).
    targets: dict[tuple, tuple[list[int], list[tuple[int, int]]]] = {}
    for t, (key, deg, g) in enumerate(keyed):
        neg_levels, rows = targets.setdefault((deg, g.sphere if same_class else None), ([], []))
        neg_levels.append(key[0])
        rows.append((key[1], t + key[0] * mm))
    codes: list[int] = []
    for s, (key, deg, g) in enumerate(keyed):
        found = targets.get((deg - 2, g.sphere if same_class else None))
        if found is None:
            continue
        neg_levels, rows = found
        first = bisect_right(neg_levels, key[0])
        last = len(rows) if max_drop is None else bisect_right(neg_levels, key[0] + max_drop)
        base, neg_action = s * m - key[0] * mm, key[1]
        codes += [base + part for key_t, part in rows[first:last] if key_t >= neg_action]
    codes.sort()
    return tuple(codes), gens


def _decode(code: int, gens: tuple[Generator, ...]) -> HigherDifferentialEntry:
    """The table line of one candidate code."""
    rest, t = divmod(code, len(gens))
    drop, s = divmod(rest, len(gens))
    return _new(HigherDifferentialEntry, (drop, gens[s], gens[t]))


def _shuffled(items: tuple[int, ...], seed: int) -> list[int]:
    """A copy of ``items`` permuted as ``random.Random(seed).shuffle`` would.

    This is the stdlib's Fisher-Yates loop with its ``_randbelow`` draw
    inlined: for each ``i`` it draws ``k = (i + 1).bit_length()`` random bits
    until they fall at or below ``i``.  That ``k`` is the same for every ``i``
    from ``2**(k-1) - 1`` up to ``2**k - 2``, so the loop walks the indices in
    runs of equal bit length and computes ``k`` once per run, not once per
    draw.  The draws themselves are the stdlib's, one ``getrandbits`` call
    each, and every one is needed, since the last fixes ``x[0]``; what the
    inlining saves is the Python call of ``_randbelow`` and its arithmetic
    per draw, which is most of a stock shuffle's time.
    """
    x = list(items)
    getrandbits = random.Random(seed).getrandbits
    top = len(x) - 1
    while top > 0:
        k = (top + 1).bit_length()
        low = (1 << (k - 1)) - 1  # the least i whose i + 1 has k bits
        for i in range(top, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        top = low - 1
    return x


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

    The candidate codes are shuffled by :func:`_shuffled` and decoded in that
    order; units are added greedily while their endpoints stay disjoint from
    earlier ones.  A unit's target is a + generator, and a + source brings its
    fiber companion, the entry between the fiber partners of its ends.
    Disjoint endpoints do not keep shift images of different units apart, so
    the result often fails the full validator's square check; the repair
    loop of :func:`_load_with_repair` then removes entries until the table
    loads.
    """
    shared, gens = _candidate_entries(params, tuple(degrees), Fraction(floor), level_lo, level_hi)
    codes = _shuffled(shared, seed)
    chosen: list[HigherDifferentialEntry] = []
    used: set[Generator] = set()
    for code in codes:
        if len(chosen) >= size:
            break
        entry = drop, source, target = _decode(code, gens)
        if target.sign == "-":
            continue
        unit = [entry]
        if source.sign == "+":
            unit.append(_new(HigherDifferentialEntry,
                             (drop, source.fiber_partner(), target.fiber_partner())))
        endpoints = {e.source for e in unit} | {e.target for e in unit}
        if endpoints & used:
            continue
        chosen.extend(unit)
        used |= endpoints
    return _load_with_repair(params, chosen)


def _load_with_repair(
    params: BundleParams, entries: list[HigherDifferentialEntry]
) -> FilteredDifferential:
    """Load the table, removing one entry per failed load until it loads.

    The entry removed is the canonically last one whose source or target the
    error names, or else the canonically last entry of the whole table.  The
    error names generators of the normalized table, whose sources sit at
    sphere class 0, while ``work`` holds the sampled entries; so an entry off
    class 0 may match none, and the fallback then removes an entry the error
    did not name.
    """
    work = list(entries)
    while True:
        try:
            return load_table(params, work)
        except TableValidationError as err:
            offenders = [e for e in work if {e.source, e.target} & err.generators]
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
    pool = _pool(params, degree, Fraction(floor), level_lo, level_hi)
    take = min(size, len(pool))
    return Chain(degree, Fraction(floor), frozenset(rng.sample(pool, take)))


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
