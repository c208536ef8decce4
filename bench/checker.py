"""Independent checker for the engine's outputs.

Nothing here imports ``rabinowitz``: the closed forms, the Z/2 differential,
the slice enumerator and the scenario reader are written again from the
definitions in the project README, so that a fault in the engine does not
also sit in the check.  Generators are plain tuples ``(base, cover, sphere,
sign)``; a chain is a set of them.

    action   = tau*n + nu*a - (tau+1)*f(q)
    twice_mu = 2*(2n + 2*(c-1)*nu*a) - 2*index + dim_M + s     (s = +1 for '+')
    level    = -index + dim_M/2 + 2*c*nu*a
    d0 (q,n,a,-) = (q,n-1,a,+),  d0 (q,n,a,+) = 0
    table entry (src -> tgt), extended by shift: (q,n,a+k,s) -> tgt shifted by k
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

GEN_RE = re.compile(r"\(\s*(\w+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*([+-])\s*\)")


@dataclass
class Base:
    """Bundle data: crit maps a critical point id to (Morse index, value)."""

    dim: int
    tau: Fraction
    crit: dict[str, tuple[int, Fraction]]
    nu: int | None = None
    c: int | None = None

    @property
    def spherical(self) -> bool:
        return self.nu is not None


def action(b: Base, g) -> Fraction:
    q, n, a, _ = g
    omega = b.nu * a if b.spherical else 0
    return b.tau * n + omega - (b.tau + 1) * b.crit[q][1]


def twice_mu(b: Base, g) -> int:
    q, n, a, s = g
    chern = 2 * (b.c - 1) * b.nu * a if b.spherical else 0
    return 2 * (2 * n + chern) - 2 * b.crit[q][0] + b.dim + (1 if s == "+" else -1)


def level(b: Base, g) -> int:
    q, _, a, _ = g
    shift = 2 * b.c * b.nu * a if b.spherical else 0
    return -b.crit[q][0] + b.dim // 2 + shift


def eta(b: Base, g) -> Fraction:
    return g[1] - b.crit[g[0]][1]


def order_key(b: Base, g):
    """Canonical report order: level desc, action desc, base id, cover, sign."""
    return (-level(b, g), -action(b, g), g[0], g[1], g[3])


def differential(entries, gens) -> set:
    """Z/2 image of a set of generators under d0 plus the shift-extended table.

    No floor is applied; ``entries`` are (drop, source, target) triples.
    """
    out: set = set()
    for g in gens:
        q, n, a, s = g
        if s == "-":
            out ^= {(q, n - 1, a, "+")}
        for _, src, tgt in entries:
            if src[0] == q and src[1] == n and src[3] == s:
                k = a - src[2]
                out ^= {(tgt[0], tgt[1], tgt[2] + k, tgt[3])}
    return out


def boundary_above(b: Base, entries, gens, floor) -> set:
    """d(gens), keeping only the terms with action >= floor."""
    return {g for g in differential(entries, gens) if action(b, g) >= floor}


def table_violations(b: Base, entries) -> list[str]:
    """The six table rules, one line per broken rule."""
    bad = []
    seen = set()
    for i, (drop, src, tgt) in enumerate(entries):
        if twice_mu(b, tgt) != twice_mu(b, src) - 2:
            bad.append(f"entry {i}: grading")
        if drop < 1 or level(b, tgt) != level(b, src) - drop:
            bad.append(f"entry {i}: level")
        if action(b, tgt) > action(b, src):
            bad.append(f"entry {i}: action")
        if b.spherical and 2 * b.c * b.nu <= -b.dim and tgt[2] != src[2]:
            bad.append(f"entry {i}: class-preservation")
        if b.spherical and b.c == 0 and drop > b.dim:
            bad.append(f"entry {i}: depth-cutoff")
        rep = (drop, src[:2] + (0,) + src[3:], tgt[:2] + (tgt[2] - src[2],) + tgt[3:])
        if rep in seen:
            bad.append(f"entry {i}: shift-duplicate")
        seen.add(rep)
    return bad


def square_defects(b: Base, entries, shifts=(-1, 0, 1)) -> list:
    """Generators where d(d(w)) is nonzero.

    d^2 = d0*T + T*d0 + T*T with T the table part, so a composite can be
    nonzero only at a table source or at the d0-preimage (cover + 1, sign -)
    of a '+' source; each is probed at a few sphere shifts, which also
    exercises the shift extension.
    """
    probes = set()
    for _, (q, n, a, s), _ in entries:
        for k in shifts if b.spherical else (0,):
            probes.add((q, n, a + k, s))
            if s == "+":
                probes.add((q, n + 1, a + k, "-"))
    return sorted(w for w in probes if differential(entries, differential(entries, {w})))


def enumerate_slice(b: Base, degree: int, floor, lo: int, hi: int) -> list:
    """All generators of one degree with action >= floor and level in [lo, hi].

    Brute force: every (critical point, sign, sphere class) in a range that
    covers the level window is solved for its cover, then filtered.
    """
    if b.spherical and b.c == 0:
        raise ValueError("c = 0: the sphere class is not bounded by a level window")
    reach = max(abs(lo), abs(hi)) + b.dim + 1
    spheres = range(-reach, reach + 1) if b.spherical else (0,)
    found = []
    for q, (index, _) in b.crit.items():
        for s in "+-":
            for a in spheres:
                chern = 2 * (b.c - 1) * b.nu * a if b.spherical else 0
                num = degree + 2 * index - b.dim - (1 if s == "+" else -1) - 2 * chern
                if num % 4:
                    continue
                g = (q, num // 4, a, s)
                if lo <= level(b, g) <= hi and action(b, g) >= floor:
                    found.append(g)
    return sorted(found, key=lambda g: order_key(b, g))


def parse_generators(text: str) -> list:
    return [(q, int(n), int(a), s) for q, n, a, s in GEN_RE.findall(text)]


@dataclass
class Scenario:
    base: Base
    entries: list = field(default_factory=list)
    cycles: dict = field(default_factory=dict)   # name -> (degree, floor, set of generators)
    seed: int = 0


def read_scenario(text: str) -> Scenario:
    """Read a scenario file; only well-formed files are expected here."""
    kv: dict[str, str] = {}
    crit: dict[str, tuple[int, Fraction]] = {}
    entries, cycles = [], {}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[] ").lower()
        elif section == "bundle" and line.startswith("crit"):
            q, index, value = (t.strip() for t in line[4:].strip(" ()").split(","))
            crit[q] = (int(index), Fraction(value))
        elif section in ("bundle", "meta"):
            key, value = (t.strip() for t in line.split("=", 1))
            kv[key.lower()] = value
        elif section == "differentials":
            m = re.fullmatch(r"entry\s+(\d+)\s+(.*)->(.*)", line)
            entries.append((int(m[1]), *parse_generators(m[2]), *parse_generators(m[3])))
        elif section == "cycles":
            m = re.match(r"cycle\s+(\w+)\s+degree\s+(-?\d+)\s+floor\s+(\S+)(.*)", line)
            cycles[m[1]] = (int(m[2]), Fraction(m[3]), set(parse_generators(m[4])))
    spherical = kv["sphericity"].lower() == "spherical"
    base = Base(
        int(kv["dim_m"]),
        Fraction(kv["tau"]),
        crit,
        int(kv["nu"]) if spherical else None,
        int(kv["c"]) if spherical else None,
    )
    return Scenario(base, entries, cycles, int(kv.get("seed", 0)))
