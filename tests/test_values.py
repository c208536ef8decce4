"""Value semantics of the generator and table-entry types.

Reports, canonical orders, set algebra and table keys rely on these: the
text forms, ordering by field tuple, hashing by value and immutability.
"""

import pytest
from hypothesis import given, settings, strategies as st

from rabinowitz import Generator, HigherDifferentialEntry

G = Generator

generators = st.builds(
    G,
    st.sampled_from(("q0", "q2", "p1")),
    st.integers(-5, 5),
    st.integers(-3, 3),
    st.sampled_from("+-"),
)
entries = st.builds(HigherDifferentialEntry, st.integers(1, 4), generators, generators)


def fields(value):
    """The field tuple, nested entries included."""
    if isinstance(value, HigherDifferentialEntry):
        return (value.drop, fields(value.source), fields(value.target))
    return (value.base, value.cover, value.sphere, value.sign)


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
    for value in (G("q0", 1, 0, "-"), *ents):
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.note = "x"
    assert [fields(e) for e in sorted(ents)] == sorted(map(fields, ents))
