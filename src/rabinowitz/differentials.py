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

from dataclasses import dataclass, field
from fractions import Fraction

from .bundle import BundleParams, CaseTag, TheoremCase, theorem_case
from .chains import AddResult, Chain, add, truncate
from .generators import (
    Generator,
    action,
    canonical_sort,
    grading,
    level,
    sort_key,
    validate_generator,
)


@dataclass(frozen=True)
class HigherDifferentialEntry:
    drop: int            # filtration drop i >= 1
    source: Generator
    target: Generator

    def __str__(self) -> str:
        return f"d{self.drop} {self.source} -> {self.target}"

    def order_key(self, params: BundleParams):
        """Canonical table order: drop, then source and target in canonical order."""
        return (self.drop, sort_key(params, self.source), sort_key(params, self.target))


class TableValidationError(ValueError):
    def __init__(self, report: tuple[str, ...]):
        super().__init__("\n".join(report))
        self.report = report


def apply_d0(params: BundleParams, x: Chain) -> Chain:
    """Fiber differential: termwise, exactly; no truncation.

    Every image term has action exactly tau below its preimage, so the result
    is exact above ``x.floor - tau``; re-truncate to ``x.floor`` on demand.
    """
    terms = frozenset(g.fiber_partner() for g in x.terms if g.sign == "-")
    return Chain(x.degree - 2, x.floor - params.tau, terms)


def d0_primitive(params: BundleParams, x: Chain) -> Chain:
    """The canonical preimage under d0 of a chain of + generators.

    Termwise (q, n, a, +) -> (q, n+1, a, -); applying d0 to the result gives
    back ``x`` exactly, and every new term's action is tau above its source,
    so the result is exact above ``x.floor + tau``.
    """
    minus = [g for g in x.terms if g.sign == "-"]
    if minus:
        bad = " ".join(str(g) for g in canonical_sort(params, minus))
        raise ValueError(f"not d0-closed: chain contains - generators: {bad}")
    terms = frozenset(g.fiber_partner() for g in x.terms)
    return Chain(x.degree + 2, x.floor + params.tau, terms)


def _normalize(entry: HigherDifferentialEntry) -> HigherDifferentialEntry:
    """Shift both sides so the source has sphere class 0 (orbit representative)."""
    a0 = entry.source.sphere
    if a0 == 0:
        return entry
    src = entry.source
    tgt = entry.target
    return HigherDifferentialEntry(
        entry.drop,
        Generator(src.base, src.cover, 0, src.sign),
        Generator(tgt.base, tgt.cover, tgt.sphere - a0, tgt.sign),
    )


def validate_entry(
    params: BundleParams, case: TheoremCase, entry: HigherDifferentialEntry
) -> tuple[str, ...]:
    """Per-entry rule violations, one line per broken rule (empty = compliant)."""
    bad: list[str] = []
    for g in (entry.source, entry.target):
        try:
            validate_generator(params, g)
        except (KeyError, ValueError) as err:
            bad.append(f"malformed: {err}")
    if bad:
        return tuple(bad)
    gs, gt = grading(params, entry.source), grading(params, entry.target)
    if gt != gs - 2:
        bad.append(f"grading: target grading {gt} != source grading {gs} - 2")
    ls, lt = level(params, entry.source), level(params, entry.target)
    if entry.drop < 1 or lt != ls - entry.drop:
        bad.append(
            f"level: declared drop {entry.drop} but levels go {ls} -> {lt}"
            + ("" if entry.drop >= 1 else " (drop must be >= 1)")
        )
    act_s, act_t = action(params, entry.source), action(params, entry.target)
    if act_t > act_s:
        bad.append(f"action: target action {act_t} exceeds source action {act_s}")
    if case.tag is CaseTag.C_VERY_NEGATIVE and entry.target.sphere != entry.source.sphere:
        bad.append(
            "class-preservation: sphere class must be preserved when "
            f"2*c*nu <= -dim_M (source a={entry.source.sphere}, target a={entry.target.sphere})"
        )
    if not params.aspherical and params.c == 0 and entry.drop > params.dim_m:
        bad.append(
            f"depth-cutoff: drop {entry.drop} > dim_M = {params.dim_m}; "
            "every differential of that depth vanishes when c = 0"
        )
    return tuple(bad)


@dataclass
class FilteredDifferential:
    """d0 plus a validated higher-differential table; immutable after load.

    ``entries`` are shift-orbit representatives (source sphere class 0 where
    the scenario is spherical); application extends them equivariantly.
    """

    params: BundleParams
    entries: tuple[HigherDifferentialEntry, ...]
    _by_source: dict = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        for e in self.entries:
            key = (e.source.base, e.source.cover, e.source.sign)
            self._by_source.setdefault(key, []).append(e)

    @property
    def max_drop(self) -> int:
        return max((e.drop for e in self.entries), default=0)

    def targets_of(self, g: Generator) -> frozenset[Generator]:
        """Shift-extended table image of a single generator (d0 not included)."""
        hits = self._by_source.get((g.base, g.cover, g.sign), ())
        out: set[Generator] = set()
        for e in hits:
            t = e.target
            out.add(Generator(t.base, t.cover, t.sphere + g.sphere, t.sign))
        return frozenset(out)


def _raw_step(d: FilteredDifferential, gens: frozenset[Generator]) -> frozenset[Generator]:
    """One application of the full differential on a bare Z/2 set, no floors."""
    acc: set[Generator] = set()
    for g in gens:
        if g.sign == "-":
            acc ^= {g.fiber_partner()}
        acc ^= d.targets_of(g)
    return frozenset(acc)


def check_d_squared_window(d: FilteredDifferential) -> tuple[str, ...]:
    """Brute-force the square of the differential on the table's window.

    A nonzero composite can only show up at a table source or at the canonical
    d0-preimage of a + source, so those are the test points; shift-equivariance
    reduces the check to the stored representatives.
    """
    probes: set[Generator] = set()
    for e in d.entries:
        probes.add(e.source)
        if e.source.sign == "+":
            probes.add(e.source.fiber_partner())
    bad: list[str] = []
    for w in sorted(probes, key=lambda g: sort_key(d.params, g)):
        dd = _raw_step(d, _raw_step(d, frozenset({w})))
        if dd:
            residue = " ".join(str(g) for g in canonical_sort(d.params, dd))
            bad.append(f"d-squared: composite at {w} is nonzero: {residue}")
    return tuple(bad)


def load_table(
    params: BundleParams, entries: tuple[HigherDifferentialEntry, ...] | list
) -> FilteredDifferential:
    """Validate and normalize a higher-differential table.

    Raises :class:`TableValidationError` naming every violated rule per entry;
    on success the table is stored on shift representatives in canonical order
    and the windowed square check has passed.
    """
    case = theorem_case(params)
    report: list[str] = []
    normalized: list[HigherDifferentialEntry] = []
    seen: set[HigherDifferentialEntry] = set()
    for entry in entries:
        for line in validate_entry(params, case, entry):
            report.append(f"entry [{entry}] rejected: {line}")
        norm = _normalize(entry)
        if norm in seen:
            report.append(
                f"entry [{entry}] rejected: shift-duplicate: "
                "coincides with an earlier entry modulo Novikov shift"
            )
        seen.add(norm)
        normalized.append(norm)
    if report:
        raise TableValidationError(tuple(report))
    normalized.sort(key=lambda e: e.order_key(params))
    d = FilteredDifferential(params, tuple(normalized))
    square = check_d_squared_window(d)
    if square:
        raise TableValidationError(square)
    return d


def apply_table(d: FilteredDifferential, x: Chain) -> AddResult:
    """The higher part of the differential (all drops i >= 1), truncated to x.floor."""
    acc: set[Generator] = set()
    for g in x.terms:
        acc ^= d.targets_of(g)
    raw = Chain(x.degree - 2, Fraction(x.floor), frozenset(acc))
    return truncate(d.params, raw, x.floor)


def apply_total(d: FilteredDifferential, x: Chain) -> AddResult:
    """Full differential d0 + sum of d_i, truncated to x.floor with drop report."""
    fiber = truncate(d.params, apply_d0(d.params, x), x.floor)
    higher = apply_table(d, x)
    total, lost = add(d.params, fiber.chain, higher.chain)
    dropped = canonical_sort(d.params, set(fiber.dropped) | set(higher.dropped) | set(lost))
    return AddResult(total, dropped)


def split_by_level(params: BundleParams, x: Chain) -> dict[int, Chain]:
    """Partition the terms by filtration level; the parts sum back to x."""
    buckets: dict[int, set[Generator]] = {}
    for g in x.terms:
        buckets.setdefault(level(params, g), set()).add(g)
    return {
        lv: Chain(x.degree, x.floor, frozenset(gens))
        for lv, gens in sorted(buckets.items())
    }
