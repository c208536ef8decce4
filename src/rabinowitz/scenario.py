"""Line-oriented scenario files: bundle data, differential entries, named cycles.

The format is plain diff-able text with explicit section headers; rationals
are written ``p/q`` and generators as ``(base,cover,sphere,sign)``:

    # example scenario
    [bundle]
    dim_M = 2
    sphericity = spherical
    nu = 1
    c = 2
    tau = 1/2
    crit (q0, 0, 1/10)
    crit (q2, 2, 1/5)

    [differentials]
    entry 2 (q0,1,0,-) -> (q2,1,0,+)

    [cycles]
    cycle xi0 degree 3 floor -1 (q0,0,0,+)

    [meta]
    seed = 7

``_SECTION_KEYS`` is the one table of the sections and of the keys their
``key = value`` lines may set; ``[meta]`` holds only the seed, which defaults
to 0.  Parse errors carry 1-based line numbers.  Loading validates the bundle,
the cycle references, and cycle homogeneity, but deliberately not the
differential table: reporting table violations is the job of the validate
command.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .bundle import BundleParams, CritPoint, validate
from .chains import Chain, build_chain
from .differentials import HigherDifferentialEntry
from .generators import Generator

_GEN_RE = re.compile(r"\(\s*([A-Za-z_]\w*)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*([+-])\s*\)")
_CRIT_RE = re.compile(r"crit\s*\(\s*([A-Za-z_]\w*)\s*,\s*(\d+)\s*,\s*([^,\s()]+)\s*\)")
# Each section of a scenario file, with the keys its ``key = value`` lines may set.
_SECTION_KEYS = {
    "bundle": ("dim_m", "sphericity", "nu", "c", "tau"),
    "differentials": (),
    "cycles": (),
    "meta": ("seed",),
}


class ScenarioError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


class Scenario(NamedTuple):
    bundle: BundleParams
    entries: tuple[HigherDifferentialEntry, ...]
    cycles: dict[str, Chain]
    seed: int


def parse_fraction(text: str, line: int | None = None) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise ScenarioError(f"bad rational {text!r}: {err}", line) from None


def _parse_int(name: str, text: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioError(f"{name} must be an integer, got {text!r}", line) from None


def parse_generator(text: str, line: int | None = None) -> Generator:
    m = _GEN_RE.fullmatch(text.strip())
    if not m:
        raise ScenarioError(f"bad generator tuple {text!r} (want (base,cover,sphere,sign))", line)
    return Generator(m.group(1), int(m.group(2)), int(m.group(3)), m.group(4))


def parse_scenario(text: str) -> Scenario:
    kv: dict[str, dict[str, tuple[str, int]]] = {section: {} for section in _SECTION_KEYS}
    crits: list[CritPoint] = []
    entries: list[HigherDifferentialEntry] = []
    raw_cycles: list[tuple[str, int, Fraction, list[Generator], int]] = []
    seed = 0
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            if section not in _SECTION_KEYS:
                raise ScenarioError(f"unknown section [{section}]", lineno)
            continue
        if section is None:
            raise ScenarioError("content before any section header", lineno)
        if section == "differentials":
            entries.append(_parse_entry_line(stripped, lineno))
        elif section == "cycles":
            raw_cycles.append(_parse_cycle_line(stripped, lineno))
        elif section == "bundle" and stripped.startswith("crit"):
            crits.append(_parse_crit_line(stripped, lineno))
        else:
            _read_kv(stripped, lineno, kv[section], section)
            if section == "meta":
                seed = _parse_int("seed", *kv["meta"]["seed"])
    bundle = _assemble_bundle(kv["bundle"], crits)
    violations = validate(bundle)
    if violations:
        raise ScenarioError("invalid bundle: " + "; ".join(violations))
    cycles: dict[str, Chain] = {}
    for name, degree, floor, gens, lineno in raw_cycles:
        if name in cycles:
            raise ScenarioError(f"duplicate cycle name {name!r}", lineno)
        try:
            cycles[name] = build_chain(bundle, gens, floor, degree)
        except (ValueError, KeyError) as err:
            # args[0], since str() of a KeyError adds quotes.
            raise ScenarioError(f"cycle {name!r}: {err.args[0]}", lineno) from None
    return Scenario(bundle, tuple(entries), cycles, seed)


def load_scenario(path: str | Path) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def _read_kv(line: str, lineno: int, kv: dict, section: str) -> None:
    """Record a ``key = value`` line of a section: a key of its table, given once."""
    if "=" not in line:
        raise ScenarioError(f"expected 'key = value', got {line!r}", lineno)
    key, value = line.split("=", 1)
    key = key.strip().lower()
    if key not in _SECTION_KEYS[section]:
        raise ScenarioError(f"unknown {section} key {key!r}", lineno)
    if key in kv:
        raise ScenarioError(f"key {key!r} given twice (first on line {kv[key][1]})", lineno)
    kv[key] = (value.strip(), lineno)


def _parse_crit_line(line: str, lineno: int) -> CritPoint:
    m = _CRIT_RE.fullmatch(line)
    if not m:
        raise ScenarioError(f"bad crit line {line!r} (want crit (id, index, value))", lineno)
    return CritPoint(m.group(1), int(m.group(2)), parse_fraction(m.group(3), lineno))


def _parse_entry_line(line: str, lineno: int) -> HigherDifferentialEntry:
    m = re.fullmatch(r"entry\s+(\d+)\s+(\(.*?\))\s*->\s*(\(.*?\))", line)
    if not m:
        raise ScenarioError(f"bad entry line {line!r} (want entry <i> <src> -> <tgt>)", lineno)
    return HigherDifferentialEntry(
        int(m.group(1)),
        parse_generator(m.group(2), lineno),
        parse_generator(m.group(3), lineno),
    )


def _parse_cycle_line(line: str, lineno: int):
    m = re.match(
        r"cycle\s+([A-Za-z_]\w*)\s+degree\s+(-?\d+)\s+floor\s+(\S+)\s*(.*)", line
    )
    if not m:
        raise ScenarioError(
            f"bad cycle line {line!r} (want cycle <name> degree <odd> floor <p/q> <terms...>)",
            lineno,
        )
    name, degree = m.group(1), int(m.group(2))
    floor = parse_fraction(m.group(3), lineno)
    tail = m.group(4)
    tokens = re.findall(r"\([^()]*\)", tail)
    if re.sub(r"\([^()]*\)", "", tail).strip():
        raise ScenarioError(f"unparsed text in cycle terms: {tail!r}", lineno)
    gens = [parse_generator(tok, lineno) for tok in tokens]
    twice = " ".join(str(g) for g, count in Counter(gens).items() if count > 1)
    if twice:
        raise ScenarioError(f"cycle {name!r} lists {twice} twice (copies cancel over Z/2)", lineno)
    return name, degree, floor, gens, lineno


def _assemble_bundle(kv: dict, crits: list[CritPoint]) -> BundleParams:
    def need(key: str) -> tuple[str, int]:
        if key not in kv:
            raise ScenarioError(f"missing bundle key {key!r}")
        return kv[key]

    dim_m = _parse_int("dim_M", *need("dim_m"))
    tau = parse_fraction(*need("tau"))
    sph_text, sph_line = need("sphericity")
    sph = sph_text.lower()
    if sph == "aspherical":
        for key in ("nu", "c"):
            if key in kv:
                raise ScenarioError(
                    f"{key!r} must be omitted for aspherical scenarios", kv[key][1]
                )
        return BundleParams(dim_m, tau, tuple(crits))
    if sph != "spherical":
        raise ScenarioError(
            f"sphericity must be 'spherical' or 'aspherical', got {sph_text!r}", sph_line
        )
    nu, c = need("nu"), need("c")  # a missing c is reported before a bad nu
    return BundleParams(dim_m, tau, tuple(crits), _parse_int("nu", *nu), _parse_int("c", *c))
