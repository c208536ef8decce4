"""Command-line interface: scenario loading, dispatch, reproducible reports.

Commands:
    validate   check the bundle, the differential table, and the named cycles
    enumerate  list a degree slice of generators in canonical order
    diff       apply the full differential to a named cycle
    primitive  construct and verify a primitive for a named cycle
    check      run the scenario's property suite (seeded tables and cycles)

Exit codes:
    0  success
    2  the request was refused after the scenario loaded (unknown cycle,
       invalid table, infinite slice, unsupported case, non-closed cycle,
       induction failure); argparse usage errors also exit 2
    3  nonzero verification residual
    4  the scenario could not be read or parsed

After the scenario loads, ``main`` is the one place that turns an exception
into an exit code.  ``check`` reports an unsupported case as a ``FAIL`` line.
All output is a pure function of (scenario, seed, command, flags).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .bundle import is_semi_positive, minimal_chern_number
from .chains import serialize_chain, zero_chain
from .differentials import TableValidationError, apply_total, load_table
from .generators import action, enumerate_generators, eta, grading, level
from .randomized import random_admissible_table, random_boundary, random_chain
from .scenario import ScenarioError, load_scenario, parse_fraction
from .vanishing import InductionError, NotClosedError, find_primitive

OK, FAIL_VALIDATION, FAIL_RESIDUAL, FAIL_PARSE = 0, 2, 3, 4


def _parse_window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("window must look like LO:HI, e.g. -8:8")
    return int(lo), int(hi)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabinowitz",
        description="symbolic engine for the Floer chain complex of a negative line bundle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="path to a scenario file")

    p_val = sub.add_parser("validate", help="validate scenario, table, and cycles")
    common(p_val)

    p_enum = sub.add_parser("enumerate", help="list one degree slice of generators")
    common(p_enum)
    p_enum.add_argument("--degree", type=int, required=True, help="doubled grading (odd)")
    p_enum.add_argument("--floor", type=parse_fraction, required=True, help="action floor p/q")
    p_enum.add_argument("--window", type=_parse_window, default=None, help="level window LO:HI")

    p_diff = sub.add_parser("diff", help="apply the differential to a named cycle")
    common(p_diff)
    p_diff.add_argument("--cycle", required=True)

    p_prim = sub.add_parser("primitive", help="construct a primitive for a named cycle")
    common(p_prim)
    p_prim.add_argument("--cycle", required=True)
    p_prim.add_argument(
        "--random-table",
        action="store_true",
        help="replace the scenario table by a seeded admissible one",
    )
    p_prim.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p_check = sub.add_parser("check", help="run the scenario property suite")
    common(p_check)
    p_check.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as err:
        print(f"parse error: {err}")
        return FAIL_PARSE
    except (OSError, UnicodeDecodeError) as err:
        print(f"cannot read scenario: {err}")
        return FAIL_PARSE
    handler = {
        "validate": cmd_validate,
        "enumerate": cmd_enumerate,
        "diff": cmd_diff,
        "primitive": cmd_primitive,
        "check": cmd_check,
    }[args.command]
    try:
        return handler(scenario, args)
    except NotClosedError as err:
        print(f"not closed: {err}")
    except (ValueError, InductionError) as err:
        print(f"error: {err}")
    return FAIL_VALIDATION


def cmd_validate(scenario, args) -> int:
    params = scenario.bundle
    print("bundle: valid")  # load_scenario refuses an invalid bundle
    case = params.case
    extra = ""
    if case.cz_finiteness_ok is not None:
        extra = f" ((c-1)*tau < 1: {'yes' if case.cz_finiteness_ok else 'no'})"
    print(f"case={case.tag.value}{extra}")
    sp = is_semi_positive(params)
    print(f"semi-positive={'yes' if sp.holds else 'no'} ({sp.reason})")
    if not params.aspherical:
        print(f"N_E={minimal_chern_number(params)}")
    code = OK if params.refusal is None else FAIL_VALIDATION
    try:
        load_table(params, scenario.entries)
        print(f"differentials: {len(scenario.entries)} entries valid")
    except TableValidationError as err:
        code = FAIL_VALIDATION
        for line in err.report:
            print(f"differentials: {line}")
    for name in sorted(scenario.cycles):
        ch = scenario.cycles[name]
        print(f"cycle {name}: degree {ch.degree}, floor {ch.floor}, {len(ch.terms)} terms")
    return code


def cmd_enumerate(scenario, args) -> int:
    params = scenario.bundle
    lo, hi = args.window if args.window else (None, None)
    gens = enumerate_generators(params, args.degree, args.floor, lo, hi)
    print("generator | action | twice_mu | level | eta")
    for g in gens:
        print(
            f"{g} | {action(params, g)} | {grading(params, g)}"
            f" | {level(params, g)} | {eta(params, g)}"
        )
    return OK


def _require_cycle(scenario, name: str):
    if name not in scenario.cycles:
        known = ", ".join(sorted(scenario.cycles)) or "none"
        raise ScenarioError(f"unknown cycle {name!r} (declared: {known})")
    return scenario.cycles[name]


def cmd_diff(scenario, args) -> int:
    params = scenario.bundle
    cycle = _require_cycle(scenario, args.cycle)
    d = load_table(params, scenario.entries)
    image, dropped = apply_total(d, cycle)
    print(f"cycle {args.cycle}: {serialize_chain(params, cycle)}")
    print(f"differential: {serialize_chain(params, image)}")
    _print_drops(params, dropped)
    return OK


def cmd_primitive(scenario, args) -> int:
    params = scenario.bundle
    seed = scenario.seed if args.seed is None else args.seed
    cycle = _require_cycle(scenario, args.cycle)
    if args.random_table:
        window = _default_window(params, cycle)
        d = random_admissible_table(
            params, seed, (cycle.degree, cycle.degree + 2), cycle.floor, *window
        )
        print(f"table: seeded ({seed}), {len(d.entries)} entries")
        for e in d.entries:
            print(f"  {e}")
    else:
        d = load_table(params, scenario.entries)
    result = find_primitive(d, cycle)
    print(f"case: {result.case.tag.value}")
    if result.level_ceiling is not None:
        print(f"level ceiling: {result.level_ceiling}; stop level: {result.stop_level}")
    for bound in result.bounds:
        print(
            f"level bound: degree {bound.degree} floor {bound.floor} -> l_min {bound.l_min}"
            f" (certified empty on {bound.certificate_window[0]}:{bound.certificate_window[1]})"
        )
    for label, part in result.theta_parts:
        print(f"theta[{label}]: {serialize_chain(params, part)}")
    print(f"theta: {serialize_chain(params, result.theta)}")
    if result.gap_constant is not None:
        print(f"gap constant: {result.gap_constant}")
        for rep in result.class_reports:
            gap = "-" if rep.max_gap is None else str(rep.max_gap)
            print(
                f"class {rep.sphere}: cycle terms {rep.cycle_terms},"
                f" theta terms {rep.theta_terms}, max action gap {gap},"
                f" within bound: {'yes' if rep.gap_ok else 'no'}"
            )
    _print_drops(params, result.dropped)
    print(f"residual: {serialize_chain(params, result.residual)}")
    if not result.ok:
        print("verification FAILED")
        return FAIL_RESIDUAL
    print("verification OK")
    return OK


def _default_window(params, cycle) -> tuple[int, int]:
    levels = [level(params, g) for g in cycle.terms] or [0]
    pad = params.dim_m + 2 * abs(params.c or 1) * (params.nu or 1) + 2
    return min(levels) - pad, max(levels) + pad


def _print_drops(params, dropped) -> None:
    if dropped:
        listing = " ".join(str(g) for g in dropped)
        print(f"dropped below floor: {listing}")
    else:
        print("dropped below floor: none")


def cmd_check(scenario, args) -> int:
    """Property suite over seeded fixtures; prints one line per check."""
    params = scenario.bundle
    seed = scenario.seed if args.seed is None else args.seed
    failures = 0

    def note(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{tag}: {name}{suffix}")
        if not ok:
            failures += 1

    print("PASS: bundle invariants")  # load_scenario refuses an invalid bundle
    case = params.case
    detail = case.tag.value + (", (c-1)*tau < 1: no" if case.cz_finiteness_ok is False else "")
    note("scenario case applicable", params.refusal is None, detail)
    try:
        load_table(params, scenario.entries)
        note("declared table valid", True)
    except TableValidationError as err:
        note("declared table valid", False, err.report[0])
    if failures:
        return FAIL_VALIDATION

    degree = 3
    floor = Fraction(-20)
    window = _default_window(params, zero_chain(degree, floor))
    d = random_admissible_table(
        params, seed, (degree, degree + 2, degree + 4), floor, *window
    )
    note("seeded table admissible", True, f"{len(d.entries)} entries")
    squared_ok = True
    for k in range(5):
        x = random_chain(params, seed + 100 + k, degree + 2, floor, *window)
        once, _ = apply_total(d, x)
        twice, _ = apply_total(d, once)
        squared_ok = squared_ok and twice.is_zero
    note("differential squares to zero on seeded chains", squared_ok)
    residual_ok = True
    for k in range(5):
        xi, _ = random_boundary(params, d, seed + 200 + k, degree, floor, *window)
        residual_ok = residual_ok and find_primitive(d, xi).ok
    # find_primitive returns or raises; a returned theta has degree + 2 by construction
    note("primitives found for seeded boundaries", True)
    note("verification residuals empty", residual_ok)
    if not residual_ok:
        return FAIL_RESIDUAL
    return OK if failures == 0 else FAIL_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
