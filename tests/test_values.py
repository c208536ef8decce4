"""Value semantics of the generator, table-entry and other record types.

Reports, canonical orders, set algebra and table keys rely on these: the
text forms, ordering by field tuple, hashing by value and immutability.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rabinowitz import (
    BundleParams,
    CaseTag,
    Chain,
    CritPoint,
    Generator,
    HigherDifferentialEntry,
    LevelBound,
    TheoremCase,
)

G = Generator

generators = st.builds(
    G,
    st.sampled_from(("q0", "q2", "p1")),
    st.integers(-5, 5),
    st.integers(-3, 3),
    st.sampled_from("+-"),
)
entries = st.builds(HigherDifferentialEntry, st.integers(1, 4), generators, generators)

# One of each engine record besides generators and entries.
RECORDS = (
    CritPoint("q0", 0, Fraction(1, 10)),
    Chain(3, Fraction(-1), frozenset({G("q0", 0, 0, "+")})),
    LevelBound(3, Fraction(-1), -2, (-6, -3)),
    TheoremCase(CaseTag.C_NON_NEGATIVE, True),
)


def fields(value):
    """The field tuple, read by field name, nested records included."""
    if not hasattr(type(value), "_fields"):
        return value
    return tuple(fields(getattr(value, name)) for name in value._fields)


def test_text_forms():
    g, h = G("q0", 1, 0, "-"), G("q2", -3, 2, "+")
    assert repr(g) == "Generator(base='q0', cover=1, sphere=0, sign='-')"
    assert str(g) == "(q0,1,0,-)" and str(h) == "(q2,-3,2,+)"
    e = HigherDifferentialEntry(2, g, h)
    assert repr(e) == (
        "HigherDifferentialEntry(drop=2, "
        "source=Generator(base='q0', cover=1, sphere=0, sign='-'), "
        "target=Generator(base='q2', cover=-3, sphere=2, sign='+'))"
    )
    assert str(e) == "d2 (q0,1,0,-) -> (q2,-3,2,+)"
    assert repr(RECORDS[1]) == (
        "Chain(degree=3, floor=Fraction(-1, 1), "
        "terms=frozenset({Generator(base='q0', cover=0, sphere=0, sign='+')}))"
    )
    params = BundleParams(2, Fraction(1, 2), RECORDS[:1], 1, 2)
    assert repr(params) == (
        "BundleParams(dim_m=2, tau=Fraction(1, 2), "
        "morse=(CritPoint(name='q0', index=0, value=Fraction(1, 10)),), nu=1, c=2)"
    )


@settings(max_examples=100, deadline=None)
@given(gens=st.lists(generators, max_size=12))
def test_sorting_is_sorting_by_field_tuple(gens):
    assert [fields(g) for g in sorted(gens)] == sorted(map(fields, gens))


@settings(max_examples=100, deadline=None)
@given(g=generators, e=entries)
def test_equal_values_hash_equal_and_collapse(g, e):
    twin = G(*fields(g))
    assert twin == g and hash(twin) == hash(g) and twin is not g
    assert len({g, twin}) == 1
    e_twin = HigherDifferentialEntry(e.drop, G(*fields(e.source)), G(*fields(e.target)))
    assert e_twin == e and hash(e_twin) == hash(e)
    assert len({e, e_twin}) == 1


@settings(max_examples=100, deadline=None)
@given(g=generators)
def test_fiber_partner_is_an_involution(g):
    partner = g.fiber_partner()
    assert partner.fiber_partner() == g
    assert (partner.base, partner.sphere) == (g.base, g.sphere)
    assert {g.sign, partner.sign} == {"+", "-"}
    minus, plus = (g, partner) if g.sign == "-" else (partner, g)
    assert plus.cover == minus.cover - 1


@pytest.mark.parametrize(
    "value, attr",
    [
        (G("q0", 1, 0, "-"), "cover"),
        (G("q0", 1, 0, "-"), "sign"),
        (HigherDifferentialEntry(1, G("q0", 1, 0, "-"), G("q2", 1, 0, "+")), "drop"),
        (HigherDifferentialEntry(1, G("q0", 1, 0, "-"), G("q2", 1, 0, "+")), "target"),
        (RECORDS[0], "index"),
        (RECORDS[1], "terms"),
        (RECORDS[2], "l_min"),
        (RECORDS[3], "cz_finiteness_ok"),
    ],
)
def test_assignment_raises(value, attr):
    before = fields(value)
    with pytest.raises(AttributeError):
        setattr(value, attr, getattr(value, attr))
    assert fields(value) == before


@settings(max_examples=50, deadline=None)
@given(ents=st.lists(entries, max_size=8))
def test_values_are_slotted_tuples(ents):
    # No per-instance dict: a new attribute cannot be attached either.
    for value in (G("q0", 1, 0, "-"), *ents, *RECORDS):
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.note = "x"
    assert [fields(e) for e in sorted(ents)] == sorted(map(fields, ents))
