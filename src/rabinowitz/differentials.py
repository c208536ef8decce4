"""The built-in fiber differential, external higher differentials, and their sum.

The fiber differential d0 is forced by the complex of a circle in the plane,
applied uniformly across all covers (including the constant orbits):

    d0 (q, n, a, -) = (q, n-1, a, +)        d0 (q, n, a, +) = 0

so + generators span its kernel and d0 drops the action by exactly tau per
term.  Higher differentials d_i (i >= 1) count trajectories no desk
computation can produce; they enter as external tables of (drop, source,
target) entries, validated structurally and extended equivariantly under the
Novikov shift.  The engine's contract is conditional: any table that passes
validation makes all downstream algebra hold.

Validation rules, each a rejection rule with its own id:

    grading             target grading = source grading - 2 (doubled units)
    level               target level = source level - drop, with drop >= 1
    action              target action <= source action
    class-preservation  sphere class preserved when 2*c*nu <= -dim_M
    depth-cutoff        drop <= dim_M when c = 0 (levels span only dim_M)
    shift-duplicate     entries must be distinct modulo simultaneous shift

After the per-entry rules, the square of the total differential is checked to
vanish on the finite window spanned by the table (brute composition over Z/2);
by shift-equivariance, checking shift-orbit representatives suffices.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .bundle import BundleParams, CaseTag
from .chains import AddResult, Chain, truncate
from .generators import (
    Generator,
    _invariants,
    action,
    canonical_sort,
    sort_key,
)


class HigherDifferentialEntry(NamedTuple):
    drop: int            # filtration drop i >= 1
    source: Generator
    target: Generator

    def __str__(self) -> str:
        return f"d{self.drop} {self.source} -> {self.target}"

    def order_key(self, params: BundleParams):
        """Canonical table order: drop, then source and target in canonical order."""
        return (self.drop, sort_key(params, self.source), sort_key(params, self.target))


class TableValidationError(ValueError):
    """A rejected table, from its failures: (report line, generators it names) pairs.

    ``report`` is the lines in order, ``generators`` every generator they name,
    and the message the lines joined.  A rejected entry names its own source
    and target; a failing square probe names itself and its residue.
    """

    def __init__(self, failures: list[tuple[str, tuple[Generator, ...]]]):
        self.report = tuple(line for line, _ in failures)
        self.generators = frozenset(g for _, named in failures for g in named)
        super().__init__("\n".join(self.report))


def apply_d0(params: BundleParams, x: Chain) -> Chain:
    """Fiber differential: termwise, exactly; no truncation.

    Every image term has action exactly tau below its preimage, so the result
    is exact above ``x.floor - tau``; re-truncate to ``x.floor`` on demand.
    """
    terms = frozenset(g.fiber_partner() for g in x.terms if g.sign == "-")
    return Chain(x.degree - 2, x.floor - params.tau, terms)


def _fiber_primitive(params: BundleParams, terms) -> frozenset[Generator]:
    """The canonical d0-preimage of a bare set of + generators.

    Termwise (q, n, a, +) -> (q, n+1, a, -); a - generator is refused.  This
    is the one place the rule lives: :func:`d0_primitive` wraps it in a chain
    and the level induction calls it on its bare buckets.
    """
    theta = frozenset([Generator(q, n + 1, a, "-") for q, n, a, sign in terms if sign == "+"])
    if len(theta) != len(terms):
        minus = [g for g in terms if g.sign == "-"]
        bad = " ".join(str(g) for g in canonical_sort(params, minus))
        raise ValueError(f"not d0-closed: chain contains - generators: {bad}")
    return theta


def d0_primitive(params: BundleParams, x: Chain) -> Chain:
    """The canonical preimage under d0 of a chain of + generators.

    Termwise (q, n, a, +) -> (q, n+1, a, -); applying d0 to the result gives
    back ``x`` exactly, and every new term's action is tau above its source,
    so the result is exact above ``x.floor + tau``.
    """
    return Chain(x.degree + 2, x.floor + params.tau, _fiber_primitive(params, x.terms))


def _normalize(entry: HigherDifferentialEntry) -> HigherDifferentialEntry:
    """Shift both sides so the source has sphere class 0 (orbit representative)."""
    drop, src, tgt = entry
    if src.sphere == 0:
        return entry
    return HigherDifferentialEntry(
        drop, src._replace(sphere=0), tgt._replace(sphere=tgt.sphere - src.sphere))


def validate_entry(params: BundleParams, entry: HigherDifferentialEntry) -> tuple[str, ...]:
    """Per-entry rule violations, one line per broken rule (empty = compliant)."""
    bad: list[str] = []
    ends = []
    for g in (entry.source, entry.target):
        try:
            ends.append(_invariants(params, g))
        except (KeyError, ValueError) as err:
            # args[0], since str() of a KeyError adds quotes.
            bad.append(f"malformed: {err.args[0]}")
    if bad:
        return tuple(bad)
    (ls, gs, key_s), (lt, gt, key_t) = ends
    if gt != gs - 2:
        bad.append(f"grading: target grading {gt} != source grading {gs} - 2")
    if entry.drop < 1 or lt != ls - entry.drop:
        bad.append(
            f"level: declared drop {entry.drop} but levels go {ls} -> {lt}"
            + ("" if entry.drop >= 1 else " (drop must be >= 1)")
        )
    if key_t > key_s:
        act_s, act_t = action(params, entry.source), action(params, entry.target)
        bad.append(f"action: target action {act_t} exceeds source action {act_s}")
    if params.case.tag is CaseTag.C_VERY_NEGATIVE and entry.target.sphere != entry.source.sphere:
        bad.append(
            "class-preservation: sphere class must be preserved when "
            f"2*c*nu <= -dim_M (source a={entry.source.sphere}, target a={entry.target.sphere})"
        )
    if params.depth_cutoff is not None and entry.drop > params.depth_cutoff:
        bad.append(
            f"depth-cutoff: drop {entry.drop} > dim_M = {params.dim_m}; "
            "every differential of that depth vanishes when c = 0"
        )
    return tuple(bad)


class FilteredDifferential:
    """d0 plus a validated higher-differential table; immutable after load.

    ``entries`` are shift-orbit representatives (source sphere class 0 where
    the scenario is spherical); application extends them equivariantly.
    ``_by_source`` groups their targets by the source's (base, cover, sign).
    """

    def __init__(self, params: BundleParams, entries: tuple[HigherDifferentialEntry, ...]) -> None:
        self.params = params
        self.entries = entries
        self._by_source: dict = {}
        for _, (base, cover, _, sign), target in entries:
            self._by_source.setdefault((base, cover, sign), []).append(target)


def _raw_step(d: FilteredDifferential, gens: frozenset[Generator]) -> frozenset[Generator]:
    """One application of the full differential on a bare Z/2 set, no floors.

    The d0 images of distinct generators are distinct, so they seed the
    accumulator as one set; each generator's table image, its entries' targets
    shifted by the generator's sphere class, is then flipped into it in place.
    This is the one place a table entry is extended under the Novikov shift.
    """
    by_source = d._by_source
    acc = {Generator(q, n - 1, a, "+") for q, n, a, sign in gens if sign == "-"}
    flip = acc.symmetric_difference_update
    for q, n, a, sign in gens:
        hits = by_source.get((q, n, sign))
        if hits:
            flip([Generator(tq, tn, ta + a, ts) for tq, tn, ta, ts in hits])
    return frozenset(acc)


def check_d_squared_window(
    d: FilteredDifferential,
) -> tuple[tuple[Generator, tuple[Generator, ...]], ...]:
    """Brute-force the square of the differential on the table's window.

    A nonzero composite can only show up at a table source or at the canonical
    d0-preimage of a + source, so those are the test points; shift-equivariance
    reduces the check to the stored representatives.  Returns each failing
    probe with its residue in canonical order (empty = squares to zero).
    """
    probes: set[Generator] = set()
    for e in d.entries:
        probes.add(e.source)
        if e.source.sign == "+":
            probes.add(e.source.fiber_partner())
    ordered = canonical_sort(d.params, probes)
    squares = ((w, _raw_step(d, _raw_step(d, frozenset({w})))) for w in ordered)
    return tuple((w, canonical_sort(d.params, dd)) for w, dd in squares if dd)


def load_table(
    params: BundleParams, entries: tuple[HigherDifferentialEntry, ...] | list
) -> FilteredDifferential:
    """Validate and normalize a higher-differential table.

    Raises :class:`TableValidationError` with one failure per violated rule
    per entry, each naming that entry's source and target; else with one per
    failing square probe, naming the probe and its residue.  On success the
    table is stored on shift representatives in canonical order and the
    windowed square check has passed.
    """
    failures: list[tuple[str, tuple[Generator, ...]]] = []
    normalized: list[HigherDifferentialEntry] = []
    seen: set[HigherDifferentialEntry] = set()
    for entry in entries:
        broken = list(validate_entry(params, entry))
        norm = _normalize(entry)
        if norm in seen:
            broken.append("shift-duplicate: coincides with an earlier entry modulo Novikov shift")
        ends = (entry.source, entry.target)
        failures += [(f"entry [{entry}] rejected: {line}", ends) for line in broken]
        seen.add(norm)
        normalized.append(norm)
    if failures:
        raise TableValidationError(failures)
    normalized.sort(key=lambda e: e.order_key(params))
    d = FilteredDifferential(params, tuple(normalized))
    failures = [
        (f"d-squared: composite at {w} is nonzero: {' '.join(map(str, residue))}", (w, *residue))
        for w, residue in check_d_squared_window(d)
    ]
    if failures:
        raise TableValidationError(failures)
    return d


def apply_table(d: FilteredDifferential, x: Chain) -> AddResult:
    """The higher part of the differential (all drops i >= 1), truncated to x.floor.

    It is the kernel's image with the fiber part flipped back out, exact
    because distinct generators have distinct d0 images.
    """
    raw = _raw_step(d, x.terms) ^ apply_d0(d.params, x).terms
    return truncate(d.params, Chain(x.degree - 2, x.floor, raw), x.floor)


def apply_total(d: FilteredDifferential, x: Chain) -> AddResult:
    """Full differential d0 + sum of d_i, truncated once to x.floor.

    "Dropped below floor" lists the terms of the Z/2 image that lie below
    x.floor, each once, after cancellation.
    """
    return truncate(d.params, Chain(x.degree - 2, x.floor, _raw_step(d, x.terms)), x.floor)


def _by_level(params: BundleParams, terms: Iterable[Generator]) -> dict[int, set[Generator]]:
    """The terms in buckets by level; each term's level is computed here once."""
    buckets: dict[int, set[Generator]] = {}
    for g in terms:
        buckets.setdefault(_invariants(params, g)[0], set()).add(g)
    return buckets


def split_by_level(params: BundleParams, x: Chain) -> dict[int, Chain]:
    """Partition the terms by filtration level; the parts sum back to x."""
    return {
        lv: Chain(x.degree, x.floor, frozenset(gens))
        for lv, gens in sorted(_by_level(params, x.terms).items())
    }
