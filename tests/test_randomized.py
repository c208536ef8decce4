"""Candidate generation and table sampling checked against a brute-force rule scan."""

import hashlib
import random
import sys
from fractions import Fraction

import pytest

import checker as ck
from conftest import (
    CASE_SCENARIOS,
    ck_base,
    ck_pool,
    decoded_candidates,
    params_of,
    scenario_path,
    synthetic_params,
)
from rabinowitz import (
    BundleParams,
    CritPoint,
    HigherDifferentialEntry,
    action,
    level,
    load_scenario,
    random_admissible_table,
    random_chain,
    validate_entry,
    zero_chain,
)
from rabinowitz import differentials, randomized
from rabinowitz.cli import _default_window
from rabinowitz.randomized import _candidate_entries, _pool, _shuffled

# The benchmark's sampling bases: c = 2 (sample_table) and c = 1, tau = 3/4
# (wide_primitive), each with the window it samples on.
SAMPLE_TABLE = (synthetic_params(3, 2, 2, 1, Fraction(1, 2)), (3, 5, 7), Fraction(-20), -20, 20)
WIDE_PRIMITIVE = (synthetic_params(3, 2, 1, 2, Fraction(3, 4)), (3, 5, 7), Fraction(-20), -12, 12)
# Extra windows with floors whose denominators differ from every tau and f(q).
EXTRA_WINDOWS = (
    ((3, 5, 7), Fraction(-30), -8, 8),
    ((1, 3, 5), Fraction(-7, 3), -4, 6),
    ((5, 7, 9), Fraction(1, 2), -12, 3),
)


def brute_candidates(params, degrees, floor, lo, hi):
    """Every pair of the checker's pools that its table rules admit, in
    canonical table order; nothing here comes from the engine."""
    base = ck_base(params)
    pool = {deg: ck_pool(params, deg, floor, lo, hi) for deg in degrees}
    out = []
    for deg in degrees:
        if deg - 2 not in pool:
            continue
        for src in pool[deg]:
            for tgt in pool[deg - 2]:
                drop = ck.level(base, src) - ck.level(base, tgt)
                if drop < 1:
                    continue
                entry = (drop, src, tgt)
                if not ck.table_violations(base, [entry]):
                    out.append(entry)
    return sorted(out, key=lambda e: (e[0], ck.order_key(base, e[1]), ck.order_key(base, e[2])))


def _scenario_windows(name):
    """The CLI's sampling windows on a golden scenario, plus the extra windows."""
    scenario = load_scenario(scenario_path(name))
    params = scenario.bundle
    windows = [((c.degree, c.degree + 2), c.floor, *_default_window(params, c))
               for c in scenario.cycles.values()]
    check_floor = Fraction(-20)
    windows.append(((3, 5, 7), check_floor, *_default_window(params, zero_chain(3, check_floor))))
    return params, windows + list(EXTRA_WINDOWS)


@pytest.mark.parametrize("name", CASE_SCENARIOS)
def test_candidates_match_brute_scan_on_golden_scenarios(name):
    params, windows = _scenario_windows(name)
    for window in windows:
        assert decoded_candidates(params, *window) == brute_candidates(params, *window)


@pytest.mark.parametrize("base", [SAMPLE_TABLE, WIDE_PRIMITIVE], ids=["c2", "c1"])
def test_candidates_match_brute_scan_on_benchmark_bases(base):
    params, *window = base
    got = decoded_candidates(params, *window)
    assert got and got == brute_candidates(params, *window)
    for extra in EXTRA_WINDOWS:
        assert decoded_candidates(params, *extra) == brute_candidates(params, *extra)


# Morse data outside the admissible ranges (the sampler does not require a
# validated bundle): here the class-preservation and depth-cutoff rules reject
# pairs that the level and action rules admit.
OFF_RANGE = {
    "class-preservation": BundleParams(2, Fraction(2), (
        CritPoint("w0", -1, Fraction(7, 10)), CritPoint("w1", 3, Fraction(-37, 20)),
        CritPoint("w2", 2, Fraction(-3, 5))), 1, -2),
    "depth-cutoff": BundleParams(2, Fraction(1, 2), (
        CritPoint("q0", 0, Fraction(1, 10)), CritPoint("q3", 3, Fraction(9, 10)),
        CritPoint("q4", 4, Fraction(5, 2))), 1, 0),
}


@pytest.mark.parametrize("rule", sorted(OFF_RANGE))
def test_candidates_match_brute_scan_where_class_and_depth_rules_bite(rule):
    params = OFF_RANGE[rule]
    for window in EXTRA_WINDOWS:
        assert decoded_candidates(params, *window) == brute_candidates(params, *window)
    degrees, floor, lo, hi = EXTRA_WINDOWS[0]
    pools = {deg: _pool(params, deg, floor, lo, hi) for deg in degrees}
    verdicts = [
        validate_entry(params, HigherDifferentialEntry(level(params, s) - level(params, t), s, t))
        for deg in degrees if deg - 2 in pools for s in pools[deg] for t in pools[deg - 2]
    ]
    assert any(len(v) == 1 and v[0].startswith(rule) for v in verdicts)


def test_candidates_match_brute_scan_where_actions_tie():
    # Two critical points on one value: the action rule admits a target whose
    # action equals its source's, so the candidate test must not be strict.
    params = BundleParams(2, Fraction(1, 2), (
        CritPoint("w0", 1, Fraction(3, 10)), CritPoint("w1", 1, Fraction(4, 5)),
        CritPoint("w2", 2, Fraction(3, 10))), 3, -3)
    ties = 0
    for window in EXTRA_WINDOWS:
        got = decoded_candidates(params, *window)
        assert got == brute_candidates(params, *window)
        ties += sum(action(params, e.source) == action(params, e.target) for e in got)
    assert ties


def test_sampling_validates_only_the_loaded_entries(monkeypatch):
    # Candidates come from integer tests, so the per-entry validator runs only
    # inside load_table, once per entry it is handed, never once per pool pair.
    # The first load is handed the sampled table, and each reload one entry
    # fewer, so a call validates each sampled entry once per load it takes part in.
    params, degrees, floor, lo, hi = SAMPLE_TABLE
    real_validate, real_load = differentials.validate_entry, differentials.load_table
    real_repair = randomized._load_with_repair
    calls = {"validate": 0, "outside_load": 0}
    loads: list[int] = []
    sampled: list[int] = []
    depth = [0]

    def counting_validate(*args):
        calls["validate"] += 1
        calls["outside_load"] += depth[0] == 0
        return real_validate(*args)

    def tracking_load(p, entries):
        loads.append(len(entries))
        depth[0] += 1
        try:
            return real_load(p, entries)
        finally:
            depth[0] -= 1

    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "rabinowitz"]:
        if hasattr(mod, "validate_entry"):
            monkeypatch.setattr(mod, "validate_entry", counting_validate)
        if hasattr(mod, "load_table"):
            monkeypatch.setattr(mod, "load_table", tracking_load)
    monkeypatch.setattr(randomized, "_load_with_repair",
                        lambda p, entries: sampled.append(len(entries)) or real_repair(p, entries))
    repaired = 0
    for seed in range(40):
        calls.update(validate=0, outside_load=0)
        loads.clear()
        sampled.clear()
        d = random_admissible_table(params, seed, degrees, floor, lo, hi, size=3)
        (n,) = sampled
        assert len(d.entries) <= n <= 2 * 3
        assert loads == list(range(n, len(d.entries) - 1, -1))
        assert calls == {"validate": sum(loads), "outside_load": 0}
        repaired += len(loads) > 1
    assert repaired == 3
    pools = {deg: _pool(params, deg, floor, lo, hi) for deg in degrees}
    pairs = sum(len(pools[deg]) * len(pools[deg - 2]) for deg in degrees if deg - 2 in pools)
    assert pairs == 1922


def test_seeded_tables_are_pinned():
    # Tables from seeds 0-49 on both benchmark bases, as entry text, hashed;
    # the digest was taken before candidates became integer codes, so any
    # change to the candidate order or the seeded shuffle shows here.
    digest = hashlib.sha1()
    for params, *window in (SAMPLE_TABLE, WIDE_PRIMITIVE):
        for seed in range(50):
            d = random_admissible_table(params, seed, *window)
            digest.update("".join(f"{e}\n" for e in d.entries).encode() + b"\n")
    assert digest.hexdigest() == "f56e46abaad34447217f92336d8c3895135fe7a4"


def test_shuffled_draws_as_the_stdlib_shuffle():
    # Seeded tables rest on this: the inlined loop must permute exactly as
    # random.Random(seed).shuffle at every length (930 is sample_table's
    # candidate count, the others cross powers of two of the bit count).
    # The memo hands every caller the same codes, so the input stays as it was.
    for length in [*range(71), 127, 128, 129, 255, 256, 257, 930]:
        items = list(range(length))
        for seed in range(12):
            expected = items[:]
            random.Random(seed).shuffle(expected)
            assert _shuffled(tuple(items), seed) == expected, (length, seed)
            assert _shuffled(items, seed) == expected and items == list(range(length))


def test_sampling_memo_cannot_leak_state():
    # Pools and candidate codes are memoised per window, so every sample on
    # it shares them: one sample must not change what the next one draws.
    params, degrees, floor, lo, hi = SAMPLE_TABLE

    def table(seed, degs=degrees):
        return random_admissible_table(params, seed, degs, floor, lo, hi).entries

    first, other, again = table(3), table(4), table(3)
    assert first == again and first != other
    assert table(3, list(degrees)) == first
    chains = [random_chain(params, 5, 5, floor, lo, hi, size=6) for _ in range(3)]
    assert len(chains[0].terms) == 6 and chains[0] == chains[1] == chains[2]
    codes, gens = _candidate_entries(params, degrees, floor, lo, hi)
    assert type(codes) is tuple and type(gens) is tuple
    assert type(_pool(params, 5, floor, lo, hi)) is tuple
    assert randomized.CODE_BUDGET and _pool.cache_info().maxsize  # both memos are bounded


def test_equal_params_share_the_sampling_memo(monkeypatch):
    # BundleParams is hashed by value: an equal base built separately finds
    # the memoised window, and a base with another tau does not.
    params, degrees, floor, lo, hi = SAMPLE_TABLE
    twin = synthetic_params(3, 2, 2, 1, Fraction(1, 2))
    assert twin is not params and twin == params
    random_admissible_table(params, 0, degrees, floor, lo, hi)
    built, real = [], randomized._candidate_codes
    monkeypatch.setattr(randomized, "_candidate_codes", lambda *key: built.append(key) or real(*key))
    random_admissible_table(twin, 0, degrees, floor, lo, hi)
    assert built == []
    retuned = params._replace(tau=Fraction(2, 7))
    random_admissible_table(retuned, 0, degrees, floor, lo, hi)
    assert built == [(retuned, degrees, floor, lo, hi)]


def test_candidate_memo_is_bounded_by_the_codes_it_holds(monkeypatch):
    # Windows sampled past the budget evict the oldest ones, in the order
    # they were stored, until the codes held fit; a window larger than the
    # budget is kept alone.  A table sampled on an evicted window is the one
    # sampled before.
    params, degrees, floor, lo, hi = SAMPLE_TABLE
    windows = [(floor, lo - k, hi + k) for k in (0, 1, 3, 4)]
    sizes = [len(_candidate_entries(params, degrees, *w)[0]) for w in windows]
    assert sizes == sorted(set(sizes))  # 930 < 1056 < 1190 < 1332 codes

    def sample(w):
        return random_admissible_table(params, 3, degrees, *w).entries

    def held():
        return [key[2:] for key in randomized._candidates], sum(
            len(codes) for codes, _ in randomized._candidates.values())

    tables = [sample(w) for w in windows]
    monkeypatch.setattr(randomized, "_candidates", {})
    monkeypatch.setattr(randomized, "CODE_BUDGET", sizes[0] + sizes[1])
    assert [sample(w) for w in windows] == tables
    assert held() == ([windows[3]], sizes[3])
    sample(windows[0]), sample(windows[1]), sample(windows[0])
    assert held() == (windows[:2], sizes[0] + sizes[1])
    monkeypatch.setattr(randomized, "CODE_BUDGET", sizes[0] - 1)
    assert sample(windows[2]) == tables[2]
    assert held() == ([windows[2]], sizes[2])


def test_pool_enumerates_on_the_twin_only_when_c_is_0(monkeypatch):
    # Only c = 0 needs the aspherical twin; any other base, aspherical
    # included, is enumerated as it is, with the rows it has already built.
    seen, real = [], randomized.enumerate_generators
    monkeypatch.setattr(randomized, "enumerate_generators",
                        lambda base, *window: seen.append(base) or real(base, *window))
    for name in CASE_SCENARIOS:
        params = params_of(name)
        seen.clear()
        _pool.__wrapped__(params, 3, Fraction(-5), -2, 2)
        if params.c == 0:
            assert seen == [BundleParams(params.dim_m, params.tau, params.morse)], name
        else:
            assert len(seen) == 1 and seen[0] is params, name
