from fractions import Fraction

import pytest

import checker as ck
from conftest import ck_base
from rabinowitz import (
    BundleParams,
    CaseTag,
    CritPoint,
    Generator,
    action,
    enumerate_generators,
    grading,
    is_semi_positive,
    level,
    minimal_chern_number,
    theorem_case,
    validate,
)


def mk(dim_m=2, tau=Fraction(1, 2), crits=None, nu=1, c=2, aspherical=False):
    crits = crits or ((("q0", 0, Fraction(1, 10))), ("q2", 2, Fraction(1, 5)))
    morse = tuple(CritPoint(n, i, Fraction(v)) for n, i, v in crits)
    if aspherical:
        return BundleParams(dim_m, Fraction(tau), morse)
    return BundleParams(dim_m, Fraction(tau), morse, nu, c)


def test_validate_admissible():
    assert validate(mk()) == ()


def test_validate_boundary_value_rejected():
    params = mk(crits=(("q0", 0, 0), ("q2", 2, Fraction(1, 5))))
    assert any("not in (0,1)" in v for v in validate(params))


def test_validate_odd_dimension_rejected():
    assert any("odd" in v for v in validate(mk(dim_m=3)))
    # Every grading is even there, so no generator has an odd degree.
    params = mk(dim_m=3, aspherical=True)
    assert grading(params, Generator("q0", 0, 0, "+")) == 4
    for twice_mu in (-1, 1, 3, 5):
        assert enumerate_generators(params, twice_mu, Fraction(-100)) == ()


def test_validate_collects_everything():
    params = BundleParams(
        3,
        Fraction(-1),
        (CritPoint("x", 5, Fraction(2)), CritPoint("x", 0, Fraction(1, 2))),
        0,
        None,
    )
    assert len(validate(params)) >= 5


@pytest.mark.parametrize("params,violation", [
    (mk(dim_m=-2), "dim_M negative: -2"),
    (BundleParams(2, Fraction(1, 2), (), 1, 2), "Morse data empty: at least one critical point required"),
])
def test_validate_names_the_violation(params, violation):
    assert violation in validate(params)


@pytest.mark.parametrize(
    "nu,c,expected", [(1, 2, 1), (3, 1, 0), (2, -1, 4)]
)
def test_minimal_chern_number(nu, c, expected):
    assert minimal_chern_number(mk(nu=nu, c=c)) == expected


def test_minimal_chern_number_rejects_aspherical():
    with pytest.raises(ValueError):
        minimal_chern_number(mk(aspherical=True))


def test_semi_positive_aspherical_any_dimension():
    for dim in (0, 2, 4, 8, 12):
        crits = ((f"p{dim}", 0, Fraction(1, 3)),)
        sp = is_semi_positive(mk(dim_m=dim, crits=crits, aspherical=True))
        assert sp.holds and "aspherical" in sp.reason


def test_semi_positive_monotone():
    sp = is_semi_positive(mk(dim_m=2, nu=1, c=2))
    assert sp.holds and "monotone" in sp.reason


def test_semi_positive_c_equals_one_any_nu():
    for nu in (1, 2, 5, 11):
        sp = is_semi_positive(mk(dim_m=10, nu=nu, c=1, crits=(("p", 0, Fraction(1, 3)),)))
        assert sp.holds and "c = 1" in sp.reason


def test_semi_positive_fails_when_chern_number_small():
    sp = is_semi_positive(
        mk(dim_m=6, nu=1, c=0, crits=(("p", 0, Fraction(1, 3)),))
    )
    assert not sp.holds


@pytest.mark.parametrize(
    "dim_m,nu,c,tau,tag,flag",
    [
        (2, 1, 2, Fraction(1, 2), CaseTag.C_NON_NEGATIVE, True),
        (2, 1, -1, Fraction(1, 2), CaseTag.C_VERY_NEGATIVE, None),
        (6, 1, -1, Fraction(1, 2), CaseTag.NOT_APPLICABLE, None),
        (2, 1, 3, Fraction(1), CaseTag.C_NON_NEGATIVE, False),
        (2, 1, 0, Fraction(1, 2), CaseTag.C_NON_NEGATIVE, None),
    ],
)
def test_theorem_case(dim_m, nu, c, tau, tag, flag):
    crits = (("p", 0, Fraction(1, 3)),)
    case = theorem_case(mk(dim_m=dim_m, nu=nu, c=c, tau=tau, crits=crits))
    assert case.tag is tag
    assert case.cz_finiteness_ok is flag


def test_theorem_case_aspherical():
    case = theorem_case(mk(aspherical=True))
    assert case.tag is CaseTag.ASPHERICAL and case.cz_finiteness_ok is None


def test_theorem_case_c0_needs_semi_positivity():
    crits = (("p", 0, Fraction(1, 3)),)
    case = theorem_case(mk(dim_m=6, nu=1, c=0, crits=crits))
    assert case.tag is CaseTag.NOT_APPLICABLE


# --- cached per-point constants -----------------------------------------------


def test_crit_unknown_id_message():
    with pytest.raises(KeyError) as err:
        mk().crit("x")
    assert err.value.args == ("unknown critical point id 'x'",)
    with pytest.raises(KeyError) as err:
        level(mk(), Generator("x", 0, 0, "+"))
    assert err.value.args == ("unknown critical point id 'x'",)


def test_crit_duplicate_ids_first_wins():
    params = mk(crits=(("x", 2, Fraction(1, 3)), ("x", 0, Fraction(1, 2)), ("y", 1, Fraction(1, 7))))
    first = params.morse[0]
    assert params.crit("x") is first
    g = Generator("x", 1, 0, "+")
    assert level(params, g) == -first.index + params.dim_m // 2
    assert action(params, g) == params.tau - (params.tau + 1) * first.value
    # Enumeration reads the same rows: only generators of the asked degree,
    # as on the base without the later duplicate.
    alone = params._replace(morse=params.morse[:1] + params.morse[2:])
    for twice_mu in (1, 3, 5):
        gens = enumerate_generators(params, twice_mu, Fraction(-6), -6, 6)
        assert gens and {grading(params, g) for g in gens} == {twice_mu}
        assert gens == enumerate_generators(alone, twice_mu, Fraction(-6), -6, 6)
    # The checker's adapter keeps the first point of an id too.
    base = ck_base(params)
    for g in (Generator(q, n, a, s) for q in "xy" for n in (0, 1) for a in (-1, 0, 1) for s in "+-"):
        assert (ck.action(base, g), ck.level(base, g), ck.twice_mu(base, g)) == (
            action(params, g), level(params, g), grading(params, g))


def test_cached_constants_leave_equality_hash_and_repr_alone():
    warm, cold = mk(), mk()
    assert warm.action_denominator == 20
    assert warm.rows["q2"] == (-1, -2, -6, 10, 4, 4, 20, warm.morse[1])
    assert "rows" in vars(warm) and "rows" not in vars(cold)
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert len({warm, cold}) == 1


def _fraction_hashes(monkeypatch) -> list:
    """Record every ``Fraction`` hashed from here to the end of the test."""
    hashed, real = [], Fraction.__hash__

    def recording(self):
        hashed.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "__hash__", recording)
    return hashed


def test_params_hash_is_taken_once(monkeypatch):
    params = mk()
    expected = hash((params.dim_m, params.tau, params.morse, params.nu, params.c))
    assert hash(params) == expected
    hashed = _fraction_hashes(monkeypatch)
    assert hash(params) == hash(params) == expected
    assert hashed == []
