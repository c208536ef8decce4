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
       induction failure); argparse usage errors also exit 2, and so does
       ``primitive --seed`` without ``--random-table``, before the scenario
       is read
    3  nonzero verification residual
    4  the scenario could not be read or parsed

The names given to ``add_parser`` in :func:`build_parser` are the one list of
commands: ``main`` runs command ``x`` as the module's ``cmd_x``, looked up at
each call.  After the scenario loads, ``main`` resolves the seed once
(``--seed``, else ``[meta] seed``, which defaults to 0) into ``args.seed``,
and it is the one place that turns an exception into an exit code.  ``check``
reports an unsupported case as a ``FAIL`` line.  All output is a pure function
of (scenario, seed, command, flags).
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
    scenario, cycle, seed = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    scenario.add_argument("--scenario", required=True, help="path to a scenario file")
    cycle.add_argument("--cycle", required=True)
    seed.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[scenario], help="validate scenario, table, and cycles")
    p_enum = sub.add_parser("enumerate", parents=[scenario],
                            help="list one degree slice of generators")
    p_enum.add_argument("--degree", type=int, required=True, help="doubled grading (odd)")
    p_enum.add_argument("--floor", type=parse_fraction, required=True, help="action floor p/q")
    p_enum.add_argument("--window", type=_parse_window, default=None, help="level window LO:HI")
    sub.add_parser("diff", parents=[scenario, cycle],
                   help="apply the differential to a named cycle")
    p_prim = sub.add_parser("primitive", parents=[scenario, cycle, seed],
                            help="construct a primitive for a named cycle")
    p_prim.add_argument("--random-table", action="store_true",
                        help="replace the scenario table by a seeded admissible one")
    sub.add_parser("check", parents=[scenario, seed], help="run the scenario property suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "primitive" and args.seed is not None and not args.random_table:
        parser.error("primitive: --seed is read only with --random-table")
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as err:
        print(f"parse error: {err}")
        return FAIL_PARSE
    except (OSError, UnicodeDecodeError) as err:
        print(f"cannot read scenario: {err}")
        return FAIL_PARSE
    if getattr(args, "seed", None) is None:  # no --seed, or a command without one
        args.seed = scenario.seed
    try:
        return globals()[f"cmd_{args.command}"](scenario, args)
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
    _print_drops(dropped)
    return OK


def cmd_primitive(scenario, args) -> int:
    params = scenario.bundle
    cycle = _require_cycle(scenario, args.cycle)
    if args.random_table:
        window = _default_window(params, cycle)
        d = random_admissible_table(
            params, args.seed, (cycle.degree, cycle.degree + 2), cycle.floor, *window
        )
        print(f"table: seeded ({args.seed}), {len(d.entries)} entries")
        for e in d.entries:
            print(f"  {e}")
    else:
        d = load_table(params, scenario.entries)
    result = find_primitive(d, cycle)
    print(f"case: {params.case.tag.value}")
    if result.level_ceiling is not None:
        print(f"level ceiling: {result.level_ceiling}; stop level: {result.stop_level}")
    for bound in result.bounds:
        print(
            f"level bound: degree {bound.degree} floor {bound.floor} -> l_min {bound.l_min}"
            f" (certified empty on {bound.certificate_window[0]}:{bound.certificate_window[1]})"
        )
    for label, part in _labelled_parts(result):
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
    _print_drops(result.dropped)
    print(f"residual: {serialize_chain(params, result.residual)}")
    if not result.ok:
        print("verification FAILED")
        return FAIL_RESIDUAL
    print("verification OK")
    return OK


def _labelled_parts(result) -> list[tuple]:
    """Each theta part with its report label, as a chain at theta's degree and
    floor.  The label is ``level=l``; a very-negative run's parts each hold
    one sphere class, and their label is ``class=a,level=l``."""
    per_class = result.gap_constant is not None
    labelled = []
    for lv, terms in result.theta_parts:
        label = f"class={next(iter(terms)).sphere},level={lv}" if per_class else f"level={lv}"
        labelled.append((label, result.theta._replace(terms=terms)))
    return labelled


def _default_window(params, cycle) -> tuple[int, int]:
    levels = [level(params, g) for g in cycle.terms] or [0]
    pad = params.dim_m + 2 * abs(params.c or 1) * (params.nu or 1) + 2
    return min(levels) - pad, max(levels) + pad


def _print_drops(dropped) -> None:
    print(f"dropped below floor: {' '.join(map(str, dropped)) or 'none'}")


def cmd_check(scenario, args) -> int:
    """Property suite over seeded fixtures; prints one line per check."""
    params = scenario.bundle
    failed: list[str] = []

    def note(name: str, ok: bool, detail: str = "") -> None:
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{tag}: {name}{suffix}")
        if not ok:
            failed.append(name)

    print("PASS: bundle invariants")  # load_scenario refuses an invalid bundle
    case = params.case
    detail = case.tag.value + (", (c-1)*tau < 1: no" if case.cz_finiteness_ok is False else "")
    note("scenario case applicable", params.refusal is None, detail)
    try:
        load_table(params, scenario.entries)
        note("declared table valid", True)
    except TableValidationError as err:
        note("declared table valid", False, err.report[0])
    if failed:
        return FAIL_VALIDATION

    degree = 3
    floor = Fraction(-20)
    window = _default_window(params, zero_chain(degree, floor))
    d = random_admissible_table(
        params, args.seed, (degree, degree + 2, degree + 4), floor, *window
    )
    note("seeded table admissible", True, f"{len(d.entries)} entries")
    squared_ok = True
    for k in range(5):
        x = random_chain(params, args.seed + 100 + k, degree + 2, floor, *window)
        once, _ = apply_total(d, x)
        twice, _ = apply_total(d, once)
        squared_ok = squared_ok and twice.is_zero
    note("differential squares to zero on seeded chains", squared_ok)
    residual_ok = True
    for k in range(5):
        xi, _ = random_boundary(params, d, args.seed + 200 + k, degree, floor, *window)
        residual_ok = residual_ok and find_primitive(d, xi).ok
    # find_primitive returns or raises; a returned theta has degree + 2 by construction
    note("primitives found for seeded boundaries", True)
    note("verification residuals empty", residual_ok)
    if not residual_ok:
        return FAIL_RESIDUAL
    return FAIL_VALIDATION if failed else OK


if __name__ == "__main__":
    sys.exit(main())
