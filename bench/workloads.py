"""The four workloads: set-up, one operation, and the check of its output.

Every operation of a workload is the same kind of call, so the latency
percentiles never sit on a boundary between cost classes.  The same run seed
gives the same inputs; ``input(k)`` is the k-th operation's input and
``round_size`` operations make one whole round.  ``check`` returns the
problems found in one output (empty when it is correct); it uses the
independent checker in ``checker.py`` and properties the method must have,
never a stored copy of earlier output.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import checker as ck
from rabinowitz import (
    BundleParams,
    Chain,
    CritPoint,
    find_primitive,
    load_scenario,
    load_table,
    random_admissible_table,
    random_boundary,
)
from rabinowitz.cli import main as cli_main

SCENARIOS = ("aspherical4", "c0", "c1", "cp1", "neg2", "neg4")


def synthetic_base(ncrit: int, dim: int, c: int, nu: int, tau: Fraction):
    """The engine's and the checker's view of the synthetic base.

    Critical point i has index i mod (dim+1) and value (i+1)/(ncrit+2).
    """
    crits = [(f"q{i}", i % (dim + 1), Fraction(i + 1, ncrit + 2)) for i in range(ncrit)]
    params = BundleParams(dim, tau, tuple(CritPoint(*cp) for cp in crits), nu, c)
    base = ck.Base(dim, tau, {q: (index, value) for q, index, value in crits}, nu, c)
    return params, base


def as_tuple(g) -> tuple:
    return (g.base, g.cover, g.sphere, g.sign)


def as_tuples(gens) -> set:
    return {as_tuple(g) for g in gens}


def table_tuples(d) -> list:
    return [(e.drop, as_tuple(e.source), as_tuple(e.target)) for e in d.entries]


def table_problems(base, entries) -> list[str]:
    problems = ck.table_violations(base, entries)
    problems += [f"d-squared nonzero at {w}" for w in ck.square_defects(base, entries)]
    problems += [f"entry {i} not on a shift representative"
                 for i, (_, src, _) in enumerate(entries) if src[2] != 0]
    return problems


class SampleTable:
    """One op: random_admissible_table on the synthetic c=2 base, fresh seed."""

    name = "sample_table"
    round_size = 1
    trace_ops = 8
    DEGREES = (3, 5, 7)
    FLOOR = Fraction(-20)
    WINDOW = (-20, 20)

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.params, self.base = synthetic_base(3, 2, 2, 1, Fraction(1, 2))

    def input(self, k: int) -> int:
        return random.Random(f"{self.seed}:{k}").randrange(2**31)

    def op(self, table_seed: int):
        return random_admissible_table(
            self.params, table_seed, self.DEGREES, self.FLOOR, *self.WINDOW, size=3
        )

    def check(self, table_seed, d) -> list[str]:
        return table_problems(self.base, table_tuples(d))


class DeepFloor:
    """One op: find_primitive on cp1's xi0 re-floored about 1500 below zero."""

    name = "deep_floor"
    round_size = 1
    trace_ops = 20

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        path = root / "scenarios" / "cp1.scn"
        scenario = load_scenario(path)
        self.d = load_table(scenario.bundle, scenario.entries)
        self.xi = scenario.cycles["xi0"]
        # The primitive at the scenario's own floor; the same theta must come
        # back at every deeper floor.
        self.theta0 = as_tuples(find_primitive(self.d, self.xi).theta.terms)
        own = ck.read_scenario(path.read_text())
        self.base, self.entries = own.base, own.entries
        self.xi_terms = own.cycles["xi0"][2]

    def input(self, k: int) -> Fraction:
        return Fraction(-1500 - random.Random(f"{self.seed}:{k}").randrange(41))

    def op(self, floor: Fraction):
        return find_primitive(self.d, Chain(self.xi.degree, floor, self.xi.terms))

    def check(self, floor, result) -> list[str]:
        theta = as_tuples(result.theta.terms)
        problems = [] if result.ok else ["engine residual nonzero"]
        if theta != self.theta0:
            problems.append(f"theta at floor {floor} differs from theta at the scenario floor")
        if ck.boundary_above(self.base, self.entries, theta, floor) != self.xi_terms:
            problems.append(f"d(theta) != xi above floor {floor}")
        return problems


class WidePrimitive:
    """One op: find_primitive on a ~100-term boundary over a c=1 base.

    At c = 1 the Novikov shift keeps the degree, so a table sampled on a
    small window acts on a chain spread over about 100 sphere classes.
    """

    name = "wide_primitive"
    round_size = 8
    trace_ops = 8
    FLOOR = Fraction(-120)
    WINDOW = (-200, 200)
    DEGREE = 3
    # The table is fixed: op cost depends on it by up to 1.7x between table
    # seeds, but by under 2 % between boundary seeds for this one.
    TABLE_SEED = 7

    def __init__(self, root: Path, seed: int):
        self.params, self.base = synthetic_base(3, 2, 1, 2, Fraction(3, 4))
        self.d = random_admissible_table(
            self.params, self.TABLE_SEED, (3, 5, 7), Fraction(-20), -12, 12, size=4
        )
        rng = random.Random(seed)
        self.entries = table_tuples(self.d)
        problems = table_problems(self.base, self.entries)
        if not self.entries:  # only d0 would be left to measure and check
            problems.append(f"table seed {self.TABLE_SEED} gave an empty table")
        self.cases = []
        for _ in range(self.round_size):
            xi, eta = random_boundary(
                self.params, self.d, rng.randrange(2**31), self.DEGREE, self.FLOOR,
                *self.WINDOW, size=100,
            )
            xi_t, eta_t = as_tuples(xi.terms), as_tuples(eta.terms)
            if ck.boundary_above(self.base, self.entries, eta_t, self.FLOOR) != xi_t:
                problems.append("random_boundary: xi != d(eta)")
            self.cases.append((xi, xi_t, eta_t))
        if problems:
            raise RuntimeError("wide_primitive fixtures wrong: " + "; ".join(problems))

    def input(self, k: int):
        return self.cases[k % self.round_size]

    def op(self, case):
        return find_primitive(self.d, case[0])

    def check(self, case, result) -> list[str]:
        _, xi_t, eta_t = case
        theta = as_tuples(result.theta.terms)
        problems = [] if result.ok else ["engine residual nonzero"]
        if ck.boundary_above(self.base, self.entries, theta, self.FLOOR) != xi_t:
            problems.append("d(theta) != xi above the floor")
        if ck.boundary_above(self.base, self.entries, theta ^ eta_t, self.FLOOR):
            problems.append("theta + eta is not a cycle")
        return problems


# Explicit level windows make every enumerate slice finite; c0 has none.
ENUMERATE_WINDOWS = {
    "aspherical4": (-2, 2), "c1": (-12, 12), "cp1": (-10, 10), "neg2": (-8, 8), "neg4": (-8, 8),
}
EXIT_VALIDATION = 2  # the CLI's documented exit code for a validation failure


class GoldenCli:
    """One op: an in-process sweep of the CLI over the six golden scenarios.

    The inputs are the golden scenarios with their declared seeds, so the run
    seed does not change them: a seeded table moves the sweep's cost by up to
    10 % between seeds.
    """

    name = "golden_cli"
    round_size = 1
    trace_ops = 2

    def __init__(self, root: Path, seed: int):
        self.plan = []      # (argv, expected exit code, what to check, scenario name)
        self.scenarios = {}
        for name in SCENARIOS:
            path = root / "scenarios" / f"{name}.scn"
            own = ck.read_scenario(path.read_text())
            self.scenarios[name] = own
            degree, floor, _ = own.cycles["xi0"]
            s = ["--scenario", str(path)]
            self.plan += [
                (["validate", *s], 0, "validate", name),
                (["diff", *s, "--cycle", "xi0"], 0, "diff", name),
                (["primitive", *s, "--cycle", "xi0"], 0, "primitive", name),
                (["primitive", *s, "--cycle", "xi0", "--random-table"], 0, "random-primitive", name),
                (["check", *s], 0, "check", name),
            ]
            if name in ENUMERATE_WINDOWS:
                lo, hi = ENUMERATE_WINDOWS[name]
                self.plan.append(
                    (["enumerate", *s, "--degree", str(degree), "--floor", str(floor),
                      f"--window={lo}:{hi}"], 0, "enumerate", name)
                )
        cp1 = ["--scenario", str(root / "scenarios" / "cp1.scn"), "--cycle", "notclosed"]
        self.plan += [
            (["diff", *cp1], 0, "diff", "cp1"),
            (["primitive", *cp1], EXIT_VALIDATION, "not-closed", "cp1"),
        ]
        self.first = None

    def input(self, k: int):
        return None

    def op(self, _):
        outputs = []
        for argv, _, _, _ in self.plan:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(argv)
            outputs.append((code, buf.getvalue()))
        return outputs

    def check(self, _, outputs) -> list[str]:
        if self.first is not None:
            return [] if outputs == self.first else ["sweep output differs from the first sweep"]
        self.first = outputs
        problems = []
        for (argv, expected, kind, name), (code, text) in zip(self.plan, outputs):
            if code != expected:
                problems.append(f"{' '.join(argv)}: exit {code}, expected {expected}")
            for p in self._check_text(kind, self.scenarios[name], argv, text):
                problems.append(f"{' '.join(argv)}: {p}")
        return problems

    @staticmethod
    def _line(text: str, prefix: str) -> str:
        for line in text.splitlines():
            if line.startswith(prefix):
                return line
        return ""

    def _check_text(self, kind: str, sc: ck.Scenario, argv, text: str) -> list[str]:
        base = sc.base
        lines = text.splitlines()
        if kind == "validate":
            want = [f"differentials: {len(sc.entries)} entries valid"]
            for cname, (degree, floor, terms) in sorted(sc.cycles.items()):
                if any(ck.twice_mu(base, g) != degree for g in terms):
                    return [f"cycle {cname} not homogeneous of degree {degree}"]
                want.append(f"cycle {cname}: degree {degree}, floor {floor}, {len(terms)} terms")
            missing = [w for w in ["bundle: valid", *want] if w not in lines]
            return [f"missing line {w!r}" for w in missing]
        if kind == "enumerate":
            degree, floor = int(argv[argv.index("--degree") + 1]), Fraction(argv[argv.index("--floor") + 1])
            lo, hi = (int(t) for t in argv[-1].split("=", 1)[1].split(":"))
            rows = [[c.strip() for c in line.split("|")] for line in lines[1:]]
            gens = [ck.parse_generators(r[0])[0] for r in rows]
            problems = []
            if gens != ck.enumerate_slice(base, degree, floor, lo, hi):
                problems.append("slice differs from the brute-force enumeration")
            for g, (_, act, mu, lv, et) in zip(gens, rows):
                if (Fraction(act), int(mu), int(lv), Fraction(et)) != (
                    ck.action(base, g), ck.twice_mu(base, g), ck.level(base, g), ck.eta(base, g)
                ):
                    problems.append(f"row {g}: columns differ from the closed forms")
            return problems
        if kind == "check":
            return [] if lines and all(l.startswith("PASS: ") for l in lines) else ["a check failed"]
        cname = argv[argv.index("--cycle") + 1]
        degree, floor, terms = sc.cycles[cname]
        if kind == "diff":
            image = set(ck.parse_generators(self._line(text, "differential:")))
            if image != ck.boundary_above(base, sc.entries, terms, floor):
                return ["differential differs from the checker's"]
            return []
        if kind == "not-closed":
            if not ck.boundary_above(base, sc.entries, terms, floor):
                return ["checker finds the cycle closed"]
            return [] if lines[0].startswith("not closed:") else ["no 'not closed' report"]
        entries = sc.entries
        problems = []
        if kind == "random-primitive":
            entries = [
                (int(drop), *ck.parse_generators(rest))
                for drop, rest in (l.strip()[1:].split(" ", 1) for l in lines if l.startswith("  d"))
            ]
            problems += table_problems(base, entries)
        theta = set(ck.parse_generators(self._line(text, "theta:")))
        if ck.boundary_above(base, entries, theta, floor) != terms:
            problems.append("d(theta) != xi above the floor")
        if lines[-1] != "verification OK":
            problems.append("no 'verification OK'")
        return problems


WORKLOADS = {w.name: w for w in (SampleTable, DeepFloor, WidePrimitive, GoldenCli)}
