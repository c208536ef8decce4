"""Work counts: the calls of ``generators._invariants``,
``differentials._raw_step`` and ``differentials._table_image`` a
computation makes.

Every per-generator read passes through ``_invariants``, every application
of the full differential through ``_raw_step``, and every table image, for
``_raw_step`` or for a fold of the level induction, through
``_table_image``, so their call counts are units of work that are exact and
the same on every machine.  A warm induction reads each term of the cycle
once for its level buckets and each target its folds take from
``_table_image`` once; only a very-negative run's class reports read more.  These tests pin the counts to the
size of the input and output, and check that they do not grow with the
depth of a window end or of the action floor.

``test_kernel_builds_no_generator_through_the_named_tuple_constructor``
guards another per-term cost: the kernel builds generators through
``generators._new`` (``tuple.__new__``), so a warm induction, an
application of the differential, a Novikov shift and a clean table load make
no call of the Python-level ``Generator.__new__`` that NamedTuple generates.
``test_warm_induction_builds_its_records_as_tuples`` pins the fixed cost of
a call the same way: a warm ``find_primitive`` builds every ``Chain``,
``Truncated`` and ``PrimitiveResult`` through ``_new`` too, and builds one
``Fraction``, theta's floor, plus one per class report on the very-negative
path.
"""

import importlib
import pkgutil
from collections import Counter
from fractions import Fraction

import pytest

import rabinowitz
from conftest import scenario_path, synthetic_params
from rabinowitz import chains, differentials, generators, vanishing
from rabinowitz.chains import Chain, Truncated, scalar_shift
from rabinowitz.differentials import HigherDifferentialEntry, apply_total, load_table
from rabinowitz.generators import Generator, enumerate_generators
from rabinowitz.randomized import random_admissible_table, random_boundary
from rabinowitz.scenario import load_scenario
from rabinowitz.vanishing import PrimitiveResult, _certified_bound, find_primitive

# Each counted function, with the modules that bind it.
BINDINGS = {
    "_invariants": (generators, chains, differentials, vanishing),
    "_raw_step": (differentials, vanishing),
    "_table_image": (differentials, vanishing),
}


@pytest.fixture
def work(monkeypatch):
    """``work(f, *args)``: f's result and a Counter of the counted calls it made."""
    counts = Counter()

    def counter(name, real):
        def counted(*args):
            counts[name] += 1
            return real(*args)
        return counted

    for name, modules in BINDINGS.items():
        counted = counter(name, getattr(modules[0], name))
        for module in modules:
            monkeypatch.setattr(module, name, counted)

    def run(f, *args):
        counts.clear()
        return f(*args), Counter(counts)

    return run


@pytest.fixture
def folded(work, monkeypatch):
    """The targets the induction's folds take from the table image, in order,
    tapped from ``vanishing``'s (counted) binding of ``_table_image``."""
    taken, counted = [], vanishing._table_image

    def tapped(*args):
        for g in counted(*args):
            taken.append(g)
            yield g

    monkeypatch.setattr(vanishing, "_table_image", tapped)
    return taken


def test_the_counted_bindings_are_all_of_them():
    modules = [importlib.import_module(f"rabinowitz.{m.name}")
               for m in pkgutil.iter_modules(rabinowitz.__path__)]
    for name, binding in BINDINGS.items():
        assert {m for m in modules if hasattr(m, name)} == set(binding), name


def test_enumeration_reads_track_the_generators_returned(work, c1_params):
    # Each slice is solved from its point's row without a read, so the only
    # reads are the canonical sort's, one per generator returned; the lower
    # level end moves from -100 to -10**6 without changing either.
    found = {lo: work(enumerate_generators, c1_params, 3, Fraction(-2), lo, 40)
             for lo in (-100, -10**4, -10**6)}
    (gens, counts), = {(gens, counts["_invariants"]) for gens, counts in found.values()}
    assert len(gens) == counts == 22


# wide_primitive's base and table: c = 1, so the boundaries spread over about
# 100 sphere classes.  Each level bound a cold memo certifies enumerates an
# empty window, which reads no generator.
WIDE = synthetic_params(3, 2, 1, 2, Fraction(3, 4))
CERTIFICATE_READS = 0
# The boundary of each size: its theta parts, one per level visited, and the
# warm induction's reads, one per term of xi and one per target its folds take.
THETA_PARTS = {25: 14, 100: 58, 400: 200}
INDUCTION_READS = {25: 30, 100: 104, 400: 204}


@pytest.mark.parametrize("size", THETA_PARTS)
def test_induction_reads_track_xi_and_theta(work, folded, size):
    # The differential is applied once to check that xi is closed and once to
    # verify; the induction folds one table image per level it visits (one
    # theta part each), and each application takes one more.  Both
    # applications come out empty here, d(xi) = 0 and d(theta) = xi exactly,
    # so their truncations read nothing.
    d = random_admissible_table(WIDE, 7, (3, 5, 7), Fraction(-20), -12, 12, size=4)
    xi, _ = random_boundary(WIDE, d, 11, 3, Fraction(-120), -200, 200, size=size)
    counts = set()
    for floor in (Fraction(-120), Fraction(-10**6)):
        cycle = xi._replace(floor=floor)
        find_primitive(d, cycle)  # certifies the level bounds
        folded.clear()
        result, warm = work(find_primitive, d, cycle)
        assert warm["_invariants"] == len(xi.terms) + len(folded) == INDUCTION_READS[size]
        _certified_bound.cache_clear()
        _, cold = work(find_primitive, d, cycle)
        assert result.ok and not result.dropped and not xi.is_zero
        assert len(result.theta_parts) == THETA_PARTS[size]
        assert cold["_invariants"] - warm["_invariants"] == CERTIFICATE_READS
        assert warm["_raw_step"] == cold["_raw_step"] == 2
        assert warm["_table_image"] == cold["_table_image"] == THETA_PARTS[size] + 2
        counts.add((warm["_invariants"], len(result.theta.terms)))
    assert len(counts) == 1


# Seeded tables on synthetic_params(12, 4, c, nu, tau) (degrees 3/5/7, floor
# -20, level window -30:30, table seed 5), with the entries and square-check
# probes of each: the sources and the fiber partners of the + sources.
INGEST = [
    ((2, 1, Fraction(1, 2)), 40, 24, 24),
    ((2, 1, Fraction(1, 2)), 160, 48, 47),
    ((1, 2, Fraction(3, 4)), 40, 8, 6),
    ((1, 2, Fraction(3, 4)), 160, 12, 10),
]


@pytest.mark.parametrize("c_nu_tau, size, entries, probes", INGEST)
def test_clean_ingest_work_tracks_entries_and_probes(work, c_nu_tau, size, entries, probes):
    # A load that passes reads each entry's two ends in the rules and twice
    # more in the canonical sort, reads each probe once to order the probes,
    # and applies the differential, with its table image, twice per probe.
    params = synthetic_params(12, 4, *c_nu_tau)
    d = random_admissible_table(params, 5, (3, 5, 7), Fraction(-20), -30, 30, size=size)
    sources = {e.source for e in d.entries}
    found = sources | {g.fiber_partner() for g in sources if g.sign == "+"}
    assert (len(d.entries), len(found)) == (entries, probes)
    again, counts = work(load_table, params, d.entries)
    assert again.entries == d.entries
    assert counts == {
        "_invariants": 4 * entries + probes, "_raw_step": 2 * probes, "_table_image": 2 * probes,
    }


def test_class_reports_read_each_term_once(work, folded, monkeypatch, neg2_params):
    # A warm very-negative run reads each term of xi and theta once, through
    # vanishing's own binding, for the class reports' gaps; the folds' 4
    # reads, one per target taken, go through the same binding.  The other
    # 35 reads are the level buckets', one per xi term.
    d = random_admissible_table(neg2_params, 3, (3, 5, 7), Fraction(-20), -30, 30, size=6)
    xi, _ = random_boundary(neg2_params, d, 11, 3, Fraction(-20), -30, 30, size=40)
    find_primitive(d, xi)
    folded.clear()
    reads, counted = [], vanishing._invariants
    monkeypatch.setattr(vanishing, "_invariants", lambda *args: reads.append(args) or counted(*args))
    result, counts = work(find_primitive, d, xi)
    assert result.ok and (len(xi.terms), len(result.theta.terms)) == (35, 39)
    assert len(folded) == 4
    assert len(reads) == len(xi.terms) + len(result.theta.terms) + len(folded)
    assert counts["_invariants"] == 113


def test_kernel_builds_no_generator_through_the_named_tuple_constructor(monkeypatch):
    # The induction's folds and theta parts, both kernels of apply_total (on
    # theta, all - terms), the Novikov shift and the normalization of a table
    # given off its shift representatives build only through generators._new.
    d = random_admissible_table(WIDE, 7, (3, 5, 7), Fraction(-20), -12, 12, size=4)
    xi, _ = random_boundary(WIDE, d, 11, 3, Fraction(-120), -200, 200, size=100)
    theta = find_primitive(d, xi).theta  # certifies the level bounds
    shifted = [HigherDifferentialEntry(e.drop, e.source._replace(sphere=2), e.target._replace(
        sphere=e.target.sphere + 2)) for e in d.entries]
    built, real = [], Generator.__new__
    monkeypatch.setattr(Generator, "__new__", staticmethod(
        lambda cls, *fields: built.append(fields) or real(cls, *fields)))
    assert Generator("q0", 0, 0, "+") and len(built) == 1  # the patch counts
    built.clear()
    result = find_primitive(d, xi)
    image, _ = apply_total(d, theta)
    moved = scalar_shift(WIDE, theta, 1)
    again = load_table(WIDE, shifted)
    assert result.ok and result.theta == theta and image.terms and image.terms <= xi.terms
    assert {g._replace(sphere=g.sphere - 1) for g in moved.terms} == theta.terms
    assert again.entries == d.entries and d.entries
    assert built == []


# A warm find_primitive on the golden cycle of each case, cp1's re-floored far
# down as deep_floor runs it, with its Fractions: theta's floor, and on the
# very-negative path (neg2, one class) the class report's largest gap.
RECORD_CALLS = {"cp1": (Fraction(-1520), 1), "c1": (None, 1), "aspherical4": (None, 1), "neg2": (None, 2)}


@pytest.mark.parametrize("name", RECORD_CALLS)
def test_warm_induction_builds_its_records_as_tuples(monkeypatch, name):
    floor, fractions = RECORD_CALLS[name]
    scenario = load_scenario(scenario_path(name))
    d = load_table(scenario.bundle, scenario.entries)
    xi = scenario.cycles["xi0"]
    if floor is not None:
        xi = xi._replace(floor=floor)
    find_primitive(d, xi)  # certifies the level bounds
    made = Counter()

    def counted(real):
        return lambda cls, *args, **kwargs: made.update([cls.__name__]) or real(cls, *args, **kwargs)

    for cls in (Chain, Truncated, PrimitiveResult, Fraction):
        monkeypatch.setattr(cls, "__new__", staticmethod(counted(cls.__new__)))
    if hasattr(Fraction, "_from_coprime_ints"):  # where CPython 3.12+ builds arithmetic results
        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(counted(Fraction._from_coprime_ints.__func__)))
    assert Chain(1, Fraction(0), frozenset()) and made == {"Chain": 1, "Fraction": 1}  # the patches count
    made.clear()
    result = find_primitive(d, xi)
    assert result.ok and len(result.class_reports) == fractions - 1
    assert made == {"Fraction": fractions}
