from pathlib import Path

import pytest

from rabinowitz import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / f"{name}.scn"


def params_of(name: str):
    return load_scenario(scenario_path(name)).bundle


# Golden scenarios covering every case tag: aspherical, c = 0, c >= 1, very negative.
CASE_SCENARIOS = ("aspherical4", "c0", "c1", "cp1", "neg2", "neg4")


def assert_drop_partition(kept, dropped, untruncated):
    """Kept terms and the drop report split the untruncated Z/2 result, each term once."""
    assert len(set(dropped)) == len(dropped)
    assert not kept & set(dropped)
    assert kept | set(dropped) == untruncated


@pytest.fixture(scope="session")
def cp1():
    return load_scenario(scenario_path("cp1"))


@pytest.fixture(scope="session")
def cp1_params(cp1):
    return cp1.bundle


@pytest.fixture(scope="session")
def aspherical4_params():
    return params_of("aspherical4")


@pytest.fixture(scope="session")
def neg2_params():
    return params_of("neg2")


@pytest.fixture(scope="session")
def neg4_params():
    return params_of("neg4")


@pytest.fixture(scope="session")
def c0_params():
    return params_of("c0")


@pytest.fixture(scope="session")
def c1_params():
    return params_of("c1")
