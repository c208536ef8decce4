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
to 0.  Each crit, entry and cycle line and each generator tuple goes through
one grammar check (``_fields``: match its grammar in ``_GRAMMARS`` in full, or
refuse), and each value through one reader per type: ``_parse_int`` reads every
integer and ``parse_fraction`` every rational, so a value the interpreter
cannot convert, such as an integer of too many digits, is a parse error too.
Parse errors carry 1-based line numbers.  Loading validates the bundle, the
cycle references, and cycle homogeneity, but deliberately not the
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

# The grammar of each line kind and of a generator tuple, matched in full,
# with the form a text that does not match is told to take.
_GEN_RE = re.compile(r"\s*\(\s*([A-Za-z_]\w*)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*([+-])\s*\)\s*")
_CRIT_RE = re.compile(r"crit\s*\(\s*([A-Za-z_]\w*)\s*,\s*(\d+)\s*,\s*([^,\s()]+)\s*\)")
_ENTRY_RE = re.compile(r"entry\s+(\d+)\s+(\(.*?\))\s*->\s*(\(.*?\))")
_CYCLE_RE = re.compile(r"cycle\s+([A-Za-z_]\w*)\s+degree\s+(-?\d+)\s+floor\s+(\S+)\s*(.*)")
_GRAMMARS = {
    "generator tuple": (_GEN_RE, "(base,cover,sphere,sign)"),
    "crit line": (_CRIT_RE, "crit (id, index, value)"),
    "entry line": (_ENTRY_RE, "entry <i> <src> -> <tgt>"),
    "cycle line": (_CYCLE_RE, "cycle <name> degree <odd> floor <p/q> <terms...>"),
}
_TERM_RE = re.compile(r"\([^()]*\)")  # one generator tuple among a cycle line's terms
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


def _parse_int(name: str, text: str, line: int | None) -> int:
    try:
        return int(text)
    except ValueError:  # not an integer, or more digits than the interpreter converts
        raise ScenarioError(f"{name} must be an integer, got {text!r}", line) from None


def _fields(kind: str, text: str, line: int | None) -> tuple[str, ...]:
    """The groups of ``text`` matched in full by the grammar of ``kind``, else a parse error."""
    grammar, want = _GRAMMARS[kind]
    m = grammar.fullmatch(text)
    if not m:
        raise ScenarioError(f"bad {kind} {text!r} (want {want})", line)
    return m.groups()


def parse_generator(text: str, line: int | None = None) -> Generator:
    base, cover, sphere, sign = _fields("generator tuple", text, line)
    cover, sphere = _parse_int("cover", cover, line), _parse_int("sphere", sphere, line)
    return Generator(base, cover, sphere, sign)


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
            drop, source, target = _fields("entry line", stripped, lineno)
            drop = _parse_int("entry drop", drop, lineno)
            source, target = parse_generator(source, lineno), parse_generator(target, lineno)
            entries.append(HigherDifferentialEntry(drop, source, target))
        elif section == "cycles":
            raw_cycles.append(_parse_cycle_line(stripped, lineno))
        elif section == "bundle" and stripped.startswith("crit"):
            name, index, value = _fields("crit line", stripped, lineno)
            index = _parse_int("crit index", index, lineno)
            crits.append(CritPoint(name, index, parse_fraction(value, lineno)))
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


def _parse_cycle_line(line: str, lineno: int):
    name, degree, floor, tail = _fields("cycle line", line, lineno)
    degree = _parse_int("cycle degree", degree, lineno)
    floor = parse_fraction(floor, lineno)
    if _TERM_RE.sub("", tail).strip():
        raise ScenarioError(f"unparsed text in cycle terms: {tail!r}", lineno)
    gens = [parse_generator(term, lineno) for term in _TERM_RE.findall(tail)]
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
