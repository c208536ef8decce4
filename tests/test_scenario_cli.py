import argparse
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import checker as ck
import rabinowitz
from rabinowitz import (
    Generator,
    ScenarioError,
    cli,
    parse_scenario,
    random_admissible_table,
    random_boundary,
    random_chain,
    vanishing,
)
from rabinowitz.cli import main
from rabinowitz.scenario import parse_fraction, parse_generator

from conftest import BUNDLE_KINDS, CASE_SCENARIOS, ck_base, draw_bundle, scenario_path

G = Generator


MINIMAL = """
[bundle]
dim_M = 2
sphericity = spherical
nu = 1
c = 2
tau = 1/2
crit (q0, 0, 1/10)
crit (q2, 2, 1/5)
"""
# The most digits int() converts here (0 when the interpreter sets no limit),
# and an integer one digit longer.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG_INT = "9" * (INT_DIGITS + 1)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


# --- parsing -------------------------------------------------------------------


def test_parse_minimal():
    sc = parse_scenario(MINIMAL)
    assert sc.bundle.dim_m == 2 and sc.bundle.c == 2
    assert sc.bundle.crit("q2").value == Fraction(1, 5)
    assert sc.entries == () and sc.cycles == {} and sc.seed == 0


def test_parse_full_scenario_file(cp1):
    assert cp1.seed == 7
    assert len(cp1.entries) == 3
    assert cp1.cycles["xi0"].terms == {G("q0", 0, 0, "+")}


def test_parse_generator_and_fraction():
    assert parse_generator("(q0, -3, 2, -)") == G("q0", -3, 2, "-")
    assert parse_fraction("7/3") == Fraction(7, 3)
    with pytest.raises(ScenarioError):
        parse_generator("(q0, x, 2, -)")


def test_parse_zero_denominator_reports_line():
    bad = MINIMAL.replace("tau = 1/2", "tau = 1/0")
    with pytest.raises(ScenarioError, match="line 7"):
        parse_scenario(bad)


def test_parse_unknown_key_reports_line():
    bad = MINIMAL + "volume = 3\n"
    with pytest.raises(ScenarioError, match="unknown bundle key"):
        parse_scenario(bad)


def test_parse_aspherical_rejects_nu():
    bad = MINIMAL.replace("sphericity = spherical", "sphericity = aspherical")
    with pytest.raises(ScenarioError, match="omitted"):
        parse_scenario(bad)


def test_parse_rejects_invalid_bundle():
    bad = MINIMAL.replace("dim_M = 2", "dim_M = 3")
    with pytest.raises(ScenarioError, match="dim_M odd"):
        parse_scenario(bad)


def test_parse_cycle_degree_mismatch_rejected():
    bad = MINIMAL + "\n[cycles]\ncycle x degree 5 floor -1 (q0,0,0,+)\n"
    with pytest.raises(ScenarioError, match="cycle 'x'"):
        parse_scenario(bad)


def test_parse_content_before_section():
    with pytest.raises(ScenarioError, match="before any section"):
        parse_scenario("dim_M = 2\n")


# --- commands -------------------------------------------------------------------


def test_cmd_validate_ok():
    code, out = run_cli("validate", "--scenario", str(scenario_path("cp1")))
    assert code == 0
    assert "bundle: valid" in out
    assert "case=c-nonnegative ((c-1)*tau < 1: yes)" in out
    assert "semi-positive=yes (monotone total space (c = 2 > 1))" in out
    assert "N_E=1" in out
    assert "differentials: 3 entries valid" in out


def test_cmd_validate_rejects_bad_table(tmp_path):
    text = scenario_path("cp1").read_text().replace(
        "entry 4 (q0,0,0,-) -> (q0,0,-1,+)",
        "entry 4 (q0,0,0,-) -> (q0,1,-1,+)",
    )
    bad = tmp_path / "bad.scn"
    bad.write_text(text)
    code, out = run_cli("validate", "--scenario", str(bad))
    assert code == 2
    assert "rejected" in out
    code, out = run_cli("check", "--scenario", str(bad))
    assert code == 2
    assert out.splitlines()[-1] == (
        "FAIL: declared table valid (entry [d4 (q0,0,0,-) -> (q0,1,-1,+)] rejected: "
        "grading: target grading 3 != source grading 1 - 2)"
    )


def test_cmd_validate_parse_error(tmp_path):
    bad = tmp_path / "broken.scn"
    bad.write_text(MINIMAL.replace("tau = 1/2", "tau = 1/0"))
    code, out = run_cli("validate", "--scenario", str(bad))
    assert code == 4
    assert "parse error" in out and "line 7" in out
    cp1_text = scenario_path("cp1").read_text()
    cp1_lines = cp1_text.splitlines()
    rows = [
        (MINIMAL.replace("dim_M = 2", "dim_M = 2.0"), "line 3: dim_M must be an integer, got '2.0'"),
        (MINIMAL.replace("nu = 1", "nu = x"), "line 5: nu must be an integer, got 'x'"),
        (MINIMAL.replace("c = 2", "c = 1/2"), "line 6: c must be an integer, got '1/2'"),
        (
            cp1_text.replace("seed = 7", "seed = 1.5"),
            f"line {cp1_lines.index('seed = 7') + 1}: seed must be an integer, got '1.5'",
        ),
        (
            cp1_text.replace("[meta]", "cycle e degree 4 floor 0\n[meta]"),
            f"line {cp1_lines.index('[meta]') + 1}: cycle 'e': "
            "degree must be odd (doubled half-integer grading), got 4",
        ),
        (MINIMAL + "[extras]\n", "line 10: unknown section [extras]"),
        (
            MINIMAL + "[cycles]\ncycle x degree 3 floor -1\ncycle x degree 5 floor -1\n",
            "line 12: duplicate cycle name 'x'",
        ),
        (MINIMAL.replace("nu = 1", "nu 1"), "line 5: expected 'key = value', got 'nu 1'"),
        (
            MINIMAL + "[differentials]\nentry 2 (q0,1,0,-)\n",
            "line 11: bad entry line 'entry 2 (q0,1,0,-)' (want entry <i> <src> -> <tgt>)",
        ),
        (
            MINIMAL + "[cycles]\ncycle x degree three floor -1\n",
            "line 11: bad cycle line 'cycle x degree three floor -1' "
            "(want cycle <name> degree <odd> floor <p/q> <terms...>)",
        ),
        (
            MINIMAL + "[cycles]\ncycle x degree 3 floor -1 (q0,0,0,+) junk\n",
            "line 11: unparsed text in cycle terms: '(q0,0,0,+) junk'",
        ),
        (
            MINIMAL + "[cycles]\ncycle bad degree 3 floor -1 (q9,0,0,+)\n",
            "line 11: cycle 'bad': unknown critical point id 'q9'",
        ),
        # The one parse error without a line: the key is absent from the file.
        (MINIMAL.replace("tau = 1/2\n", ""), "missing bundle key 'tau'"),
        (
            MINIMAL.replace("sphericity = spherical", "sphericity = round"),
            "line 4: sphericity must be 'spherical' or 'aspherical', got 'round'",
        ),
    ]
    if INT_DIGITS:  # an integer past the limit, in each field read as an integer
        n = LONG_INT
        for text, field in (
            (MINIMAL.replace("crit (q0, 0,", f"crit (q0, {n},"), "line 8: crit index"),
            (MINIMAL + f"[differentials]\nentry {n} (q0,1,0,-) -> (q2,1,0,+)\n",
             "line 11: entry drop"),
            (MINIMAL + f"[cycles]\ncycle x degree {n} floor -1\n", "line 11: cycle degree"),
            (MINIMAL + f"[cycles]\ncycle x degree 3 floor -1 (q0,{n},0,+)\n", "line 11: cover"),
            (MINIMAL + f"[differentials]\nentry 2 (q0,1,{n},-) -> (q2,1,0,+)\n", "line 11: sphere"),
        ):
            rows.append((text, f"{field} must be an integer, got '{n}'"))
    for text, message in rows:
        bad.write_text(text)
        assert run_cli("validate", "--scenario", str(bad)) == (4, f"parse error: {message}\n")


def test_crit_line_holds_exactly_one_tuple(tmp_path):
    bad = tmp_path / "crit.scn"
    one_line = MINIMAL.replace("crit (q2, 2, 1/5)\n", "")
    for line in ("crit (q0, 0, 1/10) (q2, 2, 1/5)", "criticality junk (q0, 0, 1/10)"):
        bad.write_text(one_line.replace("crit (q0, 0, 1/10)", line))
        message = f"line 8: bad crit line {line!r} (want crit (id, index, value))"
        assert run_cli("validate", "--scenario", str(bad)) == (4, f"parse error: {message}\n")


def test_key_given_twice_is_rejected(tmp_path):
    bad = tmp_path / "twice.scn"
    cp1_text = scenario_path("cp1").read_text()
    seed_line = cp1_text.splitlines().index("seed = 7") + 1
    for text, message in (
        (MINIMAL + "tau = 1/3\n", "line 10: key 'tau' given twice (first on line 7)"),
        (
            cp1_text.replace("seed = 7", "seed = 7\nseed = 8"),
            f"line {seed_line + 1}: key 'seed' given twice (first on line {seed_line})",
        ),
    ):
        bad.write_text(text)
        assert run_cli("validate", "--scenario", str(bad)) == (4, f"parse error: {message}\n")


def test_generator_listed_twice_on_a_cycle_is_rejected(tmp_path):
    # Over Z/2 the two copies cancel, so keeping one would change the cycle.
    bad = tmp_path / "cycle.scn"
    bad.write_text(MINIMAL + "[cycles]\ncycle x degree 3 floor -1 (q0,0,0,+) (q0,0,0,+)\n")
    message = "line 11: cycle 'x' lists (q0,0,0,+) twice (copies cancel over Z/2)"
    assert run_cli("validate", "--scenario", str(bad)) == (4, f"parse error: {message}\n")


def test_window_without_colon_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["enumerate", "--scenario", str(scenario_path("cp1")),
              "--degree", "5", "--floor", "0", "--window", "5"])
    assert info.value.code == 2
    assert "window must look like LO:HI" in capsys.readouterr().err


def test_entry_naming_an_unknown_point_is_malformed(tmp_path):
    path = tmp_path / "q9.scn"
    path.write_text(MINIMAL + "[differentials]\nentry 1 (q9,0,0,-) -> (q0,0,0,+)\n")
    code, out = run_cli("validate", "--scenario", str(path))
    assert code == 2
    # The KeyError's message, without the quotes str() would add.
    assert out.splitlines()[-1] == (
        "differentials: entry [d1 (q9,0,0,-) -> (q0,0,0,+)] rejected: "
        "malformed: unknown critical point id 'q9'"
    )


def test_module_runs_main():
    # ``python -m rabinowitz.cli`` goes through the module's __main__ guard.
    path = str(scenario_path("cp1"))
    src = str(Path(rabinowitz.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "rabinowitz.cli", "validate", "--scenario", path],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (done.returncode, done.stdout) == run_cli("validate", "--scenario", path)


def test_cycle_error_names_the_first_bad_term_at_any_hash_seed(tmp_path):
    # A cycle's terms are checked in file order, not in the hash order of a set.
    path = tmp_path / "order.scn"
    path.write_text(scenario_path("cp1").read_text().replace(
        "cycle xi0 degree 3 floor -1 (q0,0,0,+)",
        "cycle xi0 degree 3 floor 5 (q0,0,0,+) (q2,0,1,+) (q0,-1,1,-) (q2,-1,2,-)",
    ))
    expected = "parse error: line 17: cycle 'xi0': term (q0,0,0,+) has action -3/20 below the floor 5\n"
    src = str(Path(rabinowitz.__file__).resolve().parent.parent)
    for seed in ("1", "5"):
        done = subprocess.run(
            [sys.executable, "-m", "rabinowitz.cli", "validate", "--scenario", str(path)],
            capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        assert (done.returncode, done.stdout) == (4, expected)


def test_cmd_validate_missing_file():
    code, out = run_cli("validate", "--scenario", "/nonexistent.scn")
    assert code == 4


@pytest.mark.parametrize("command", [("validate",), ("diff", "--cycle", "xi0")])
def test_cli_non_utf8_scenario_is_a_read_error(tmp_path, command):
    bad = tmp_path / "bad.scn"
    bad.write_bytes(b"\xff\xfe[bundle]\n")
    code, out = run_cli(command[0], "--scenario", str(bad), *command[1:])
    assert code == 4
    assert out.startswith("cannot read scenario: ") and "utf-8" in out
    # A UTF-8 file with non-ASCII text in a comment still loads.
    bad.write_text("# τ = ½\n" + MINIMAL, encoding="utf-8")
    assert run_cli("validate", "--scenario", str(bad))[0] == 0


def test_cmd_enumerate_golden_row():
    code, out = run_cli(
        "enumerate",
        "--scenario", str(scenario_path("cp1")),
        "--degree", "5",
        "--floor", "0",
        "--window=-10:10",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "generator | action | twice_mu | level | eta"
    assert "(q0,1,0,-) | 7/20 | 5 | 1 | 9/10" in lines


def test_cmd_enumerate_empty_window_header_only():
    code, out = run_cli(
        "enumerate",
        "--scenario", str(scenario_path("cp1")),
        "--degree", "5",
        "--floor", "0",
        "--window=4:-4",
    )
    assert code == 0
    assert out.strip() == "generator | action | twice_mu | level | eta"


def test_cmd_enumerate_aspherical_sphere_column_zero():
    code, out = run_cli(
        "enumerate",
        "--scenario", str(scenario_path("aspherical4")),
        "--degree", "5",
        "--floor", "-100",
        "--window=-2:2",
    )
    assert code == 0
    rows = [l for l in out.splitlines()[1:] if l]
    assert rows
    assert all(",0," in row.split(" | ")[0] for row in rows)


def test_cmd_enumerate_infinite_slice_rejected():
    code, out = run_cli(
        "enumerate",
        "--scenario", str(scenario_path("c0")),
        "--degree", "3",
        "--floor", "0",
        "--window=-1:1",
    )
    assert code == 2
    assert "infinite slice" in out


ENUM_HEADER = "generator | action | twice_mu | level | eta\n"
NO_UPPER = "error: infinite slice: no upper level bound and c >= 1 (sphere class unbounded above at any action floor)\n"
NO_LOWER = "error: infinite slice: no lower level bound and c <= -1 (sphere class unbounded above at any action floor)\n"


@pytest.mark.parametrize("name, code, expected", [
    ("aspherical4", 0, ENUM_HEADER + (
        "(p0,0,0,+) | -3/16 | 5 | 2 | -1/8\n"
        "(p1,1,0,-) | 1/8 | 5 | 1 | 3/4\n"
        "(p2,1,0,+) | -1/16 | 5 | 0 | 5/8\n"
        "(p3,2,0,-) | 1/16 | 5 | -1 | 11/8\n"
        "(p4,2,0,+) | -5/16 | 5 | -2 | 9/8\n"
    )),
    ("c0", 2, "error: infinite slice: c = 0 leaves the sphere class unconstrained for critical point 'q0'\n"),
    ("c1", 2, NO_UPPER),
    ("cp1", 2, NO_UPPER),
    ("neg2", 2, NO_LOWER),
    ("neg4", 2, NO_LOWER),
])
def test_cmd_enumerate_without_window(name, code, expected):
    # No --window: only the aspherical slice is finite, and each spherical
    # case is refused with its own text.
    got = run_cli("enumerate", "--scenario", str(scenario_path(name)), "--degree", "5", "--floor=-3/2")
    assert got == (code, expected)


def test_cmd_diff_golden():
    code, out = run_cli(
        "diff", "--scenario", str(scenario_path("cp1")), "--cycle", "notclosed"
    )
    assert code == 0
    assert "differential: degree=3 floor=-1 terms: (q0,0,0,+) (q2,1,0,+)" in out


def test_cmd_diff_unknown_cycle():
    code, out = run_cli(
        "diff", "--scenario", str(scenario_path("cp1")), "--cycle", "ghost"
    )
    assert code == 2
    assert "unknown cycle" in out


def test_cmd_primitive_golden():
    code, out = run_cli(
        "primitive", "--scenario", str(scenario_path("cp1")), "--cycle", "xi0"
    )
    assert code == 0
    assert "theta: degree=5 floor=-1/2 terms: (q0,1,0,-) (q2,2,0,-)" in out
    assert "residual: degree=3 floor=-1 terms: 0" in out
    assert "verification OK" in out


def test_cmd_primitive_rejects_non_closed():
    code, out = run_cli(
        "primitive", "--scenario", str(scenario_path("cp1")), "--cycle", "notclosed"
    )
    assert code == 2
    assert "not closed" in out
    assert "(q0,0,0,+) (q2,1,0,+)" in out


def test_nonzero_residual_exits_3(monkeypatch):
    # The residual comes back as xi itself, as if d(theta) were zero.
    real = vanishing.verify_primitive
    monkeypatch.setattr(
        vanishing, "verify_primitive", lambda d, xi, theta: real(d, xi, theta)._replace(chain=xi)
    )
    s = ("--scenario", str(scenario_path("cp1")))
    code, out = run_cli("primitive", *s, "--cycle", "xi0")
    assert code == 3
    assert out.splitlines()[-2:] == [
        "residual: degree=3 floor=-1 terms: (q0,0,0,+)",
        "verification FAILED",
    ]
    code, out = run_cli("check", *s)
    assert code == 3
    assert out.splitlines()[-1] == "FAIL: verification residuals empty"


def test_cmd_primitive_deterministic_with_seed():
    args = (
        "primitive",
        "--scenario", str(scenario_path("neg2")),
        "--cycle", "xi0",
        "--random-table",
        "--seed", "5",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second and first[0] == 0
    other = run_cli(*args[:-1], "6")
    assert other[1] != first[1]


def test_cmd_check_all_scenarios():
    for name in ("cp1", "aspherical4", "neg2", "neg4", "c0", "c1"):
        code, out = run_cli("check", "--scenario", str(scenario_path(name)))
        assert code == 0, out
        assert "FAIL" not in out


# (bundle edit, degree of (q0,0,0,+), find_primitive's refusal, check's case detail)
REFUSED_CASES = (
    ({"tau = 1/2": "tau = 2"}, 3,
     "(c-1)*tau = 2 >= 1: pick a smaller tau", "c-nonnegative, (c-1)*tau < 1: no"),
    ({"c = 2": "c = 0", "dim_M = 2": "dim_M = 8"}, 9,
     "scenario matches no supported case; refusing to run", "not-applicable"),
    ({"c = 2": "c = -1", "dim_M = 2": "dim_M = 6"}, 7,
     "scenario matches no supported case; refusing to run", "not-applicable"),
)


@pytest.mark.parametrize("edits,degree,refusal,case_detail", REFUSED_CASES)
def test_cli_refusal_matrix(tmp_path, edits, degree, refusal, case_detail):
    text = MINIMAL
    for old, new in edits.items():
        text = text.replace(old, new)
    path = tmp_path / "refused.scn"
    path.write_text(text + f"\n[cycles]\ncycle xi0 degree {degree} floor -1 (q0,0,0,+)\n")
    s = ("--scenario", str(path))
    code, out = run_cli("validate", *s)
    assert code == 2, out
    for argv in (
        ("enumerate", *s, "--degree", str(degree), "--floor=-1", "--window=-4:4"),
        ("diff", *s, "--cycle", "xi0"),
    ):
        code, _ = run_cli(*argv)
        assert code in (0, 2, 3, 4), argv
    for extra in ((), ("--random-table",)):
        code, out = run_cli("primitive", *s, "--cycle", "xi0", *extra)
        assert (code, out.splitlines()[-1]) == (2, f"error: {refusal}")
    code, out = run_cli("check", *s)
    assert code == 2
    assert out == (
        "PASS: bundle invariants\n"
        f"FAIL: scenario case applicable ({case_detail})\n"
        "PASS: declared table valid\n"
    )


# --- one list of commands, one seed rule, one table of section keys -------------


def test_every_command_runs_its_cmd_function():
    # The names given to add_parser are the one list of commands; main runs
    # command x as cli.cmd_x.
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {name[4:] for name in vars(cli) if name.startswith("cmd_")}


def test_dispatch_reads_the_command_function_at_each_call(monkeypatch):
    # build_parser is cached, so the dispatch must not be bound into it: a
    # command function patched after the first call still runs.
    path = str(scenario_path("cp1"))
    assert run_cli("validate", "--scenario", path)[0] == 0
    monkeypatch.setattr(cli, "cmd_validate", lambda scenario, args: 7)
    assert run_cli("validate", "--scenario", path) == (7, "")


@pytest.mark.parametrize("command", [("check",), ("primitive", "--cycle", "xi0", "--random-table")])
def test_seed_flag_overrides_the_meta_seed_which_defaults_to_zero(tmp_path, command):
    path = tmp_path / "seed.scn"
    cycles = "[cycles]\ncycle xi0 degree 3 floor -1 (q0,0,0,+) (q2,1,0,+)\n"

    def run(meta="", *flag):
        path.write_text(MINIMAL + cycles + meta)
        return run_cli(command[0], "--scenario", str(path), *command[1:], *flag)

    unseeded = run()
    assert unseeded == run("", "--seed", "0") == run("[meta]\nseed = 0\n")
    assert unseeded[0] == 0
    # check prints 6, 5 and 4 seeded entries for seeds 0, 1 and 3 on this base.
    seeded = run("[meta]\nseed = 3\n")
    assert seeded == run("", "--seed", "3") == run("[meta]\nseed = 1\n", "--seed", "3")
    assert len({unseeded, seeded, run("[meta]\nseed = 1\n")}) == 3


def test_primitive_seed_without_random_table_is_a_usage_error(capsys):
    # Only --random-table reads the seed, so --seed alone is refused, before
    # the scenario is read: a missing file is not reported.
    for path, seed in ((scenario_path("cp1"), "3"), ("/nonexistent.scn", "0")):
        with pytest.raises(SystemExit) as info:
            main(["primitive", "--scenario", str(path), "--cycle", "xi0", "--seed", seed])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--random-table" in err.splitlines()[-1]


def test_meta_holds_only_the_seed(tmp_path):
    path = tmp_path / "meta.scn"
    for key in ("tau = 1/3", "dim_M = 2", "crit (q4, 0, 1/3)"):
        path.write_text(MINIMAL + f"[meta]\n{key}\n")
        name = key.split()[0].lower()
        message = (f"line 11: unknown meta key {name!r}" if "=" in key
                   else f"line 11: expected 'key = value', got {key!r}")
        assert run_cli("validate", "--scenario", str(path)) == (4, f"parse error: {message}\n")
    path.write_text(MINIMAL.replace("tau = 1/2", "seed = 3"))
    assert run_cli("validate", "--scenario", str(path)) == (
        4, "parse error: line 7: unknown bundle key 'seed'\n")


def test_bundle_errors_keep_their_order(tmp_path):
    # Every bundle key is looked up before nu and c are read, so a missing c
    # is reported before a bad nu; a bad seed, read on its own line, comes
    # before any error of the bundle's values.
    path = tmp_path / "order.scn"
    for text, message in (
        (MINIMAL.replace("nu = 1", "nu = x").replace("c = 2\n", ""), "missing bundle key 'c'"),
        (MINIMAL.replace("c = 2\n", "").replace("nu = 1\n", ""), "missing bundle key 'nu'"),
        (MINIMAL.replace("dim_M = 2", "dim_M = x").replace("tau = 1/2", "tau = 1/0"),
         "line 3: dim_M must be an integer, got 'x'"),
        (MINIMAL.replace("tau = 1/2", "tau = 1/0") + "[meta]\nseed = s\n",
         "line 11: seed must be an integer, got 's'"),
    ):
        path.write_text(text)
        assert run_cli("validate", "--scenario", str(path)) == (4, f"parse error: {message}\n")


# --- the reader under mutation, and the CLI against the checker -------------------


GOLDEN_TEXTS = {name: scenario_path(name).read_text() for name in CASE_SCENARIOS}
# A token: an arrow, a run of name, number and sign characters, or one other character.
TOKEN = re.compile(r"->|[\w/.+-]+|\S")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_golden_files_end_in_a_documented_exit(tmp_path_factory, data):
    # One edit of a golden file: a line deleted, duplicated or swapped with
    # the next, or one token replaced.  The reader and validate either accept
    # the result or refuse it with a documented code, never with a traceback.
    text = GOLDEN_TEXTS[data.draw(st.sampled_from(CASE_SCENARIOS))]
    lines = text.splitlines()
    edit = data.draw(st.sampled_from(("delete", "duplicate", "swap", "token")))
    if edit == "token":
        spans = [m.span() for m in TOKEN.finditer(text)]
        start, end = spans[data.draw(st.integers(0, len(spans) - 1))]
        new = data.draw(st.sampled_from(("x", "1/0", "(", "->", "=", LONG_INT)))
        text = text[:start] + new + text[end:]
    else:
        k = data.draw(st.integers(0, len(lines) - 2))
        if edit == "delete":
            del lines[k]
        elif edit == "duplicate":
            lines.insert(k, lines[k])
        else:
            lines[k], lines[k + 1] = lines[k + 1], lines[k]
        text = "\n".join(lines) + "\n"
    path = tmp_path_factory.getbasetemp() / "mutated.scn"
    path.write_text(text)
    code, out = run_cli("validate", "--scenario", str(path))
    assert code in (0, 2, 4), out
    if code == 4:
        assert out.startswith(("parse error: ", "cannot read scenario: ")), out


def _scenario_text(draw, params, d, cycles, seed) -> str:
    """The scenario file of a base, a table and named cycles, written with the
    bundle keys in random order and case, and comments."""
    values = {"dim_M": params.dim_m, "tau": params.tau,
              "sphericity": "spherical" if params.nu else "aspherical"}
    if params.nu:
        values.update(nu=params.nu, c=params.c)
    case = draw(st.sampled_from((str.lower, str.upper, str)))
    keys = draw(st.permutations(sorted(values)))
    lines = ["# a random scenario", "[bundle]"]
    lines += [f"{case(key)} = {values[key]}" for key in keys]
    lines += [f"crit ({cp.name}, {cp.index}, {cp.value})  # critical point" for cp in params.morse]
    lines += ["[differentials]"] + [f"entry {e.drop} {e.source} -> {e.target}" for e in d.entries]
    lines.append("[cycles]")
    for name, ch in cycles.items():
        terms = " ".join(map(str, ch.terms))
        lines.append(f"cycle {name} degree {ch.degree} floor {ch.floor} {terms}".rstrip())
    lines += ["[meta]", f"seed = {seed}"]
    return "\n".join(lines) + "\n"


def _serialized(base, degree, floor, terms) -> str:
    """serialize_chain's text, in the checker's canonical order."""
    body = " ".join(f"({q},{n},{a},{s})" for q, n, a, s in
                    sorted(terms, key=lambda g: ck.order_key(base, g))) or "0"
    return f"degree={degree} floor={floor} terms: {body}"


def _draw_scenario(draw, kind):
    """A random base of one kind with its seeded table, a boundary xi, a chain
    bad that the checker finds not closed, and a seed: (params, table, xi,
    bad, seed)."""
    params = draw_bundle(draw, kind)
    assume(params.refusal is None)
    degree = 2 * draw(st.integers(-3, 3)) + 1
    pad = params.dim_m + 2 * abs(params.level_step) + 2
    window = (Fraction(-20), -pad, pad)
    d = random_admissible_table(params, draw(st.integers(0, 999)),
                                (degree, degree + 2, degree + 4), *window)
    base = ck_base(params)
    xi, _ = random_boundary(params, d, draw(st.integers(0, 999)), degree, *window, size=5)
    first = draw(st.integers(0, 999))
    chains = (random_chain(params, s, degree, *window) for s in range(first, first + 20))
    bad = next((ch for ch in chains if ck.boundary_above(base, d.entries, ch.terms, ch.floor)),
               None)
    assume(bad is not None)
    return params, d, xi, bad, draw(st.integers(0, 999))


@pytest.mark.parametrize("kind", BUNDLE_KINDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_cli_answers_on_random_scenario_files_agree_with_the_checker(tmp_path_factory, kind, data):
    # A random base of each kind, its seeded table, a boundary xi and a chain
    # the checker finds not closed, written out as a scenario file: the engine's
    # reader and the checker's read the same scenario, and diff and primitive
    # answer as the checker's differential says.
    draw = data.draw
    params, d, xi, bad, seed = _draw_scenario(draw, kind)
    base, degree = ck_base(params), xi.degree
    text = _scenario_text(draw, params, d, {"xi": xi, "bad": bad}, seed)

    engine, checker = parse_scenario(text), ck.read_scenario(text)
    assert engine.bundle == params and engine.entries == d.entries and engine.seed == seed
    assert ck_base(engine.bundle) == checker.base
    assert [tuple(e) for e in engine.entries] == checker.entries
    assert {name: (ch.degree, ch.floor, set(ch.terms)) for name, ch in engine.cycles.items()} == (
        checker.cycles)
    assert checker.seed == seed

    path = tmp_path_factory.getbasetemp() / "random.scn"
    path.write_text(text)
    s = ("--scenario", str(path))
    image = ck.boundary_above(base, checker.entries, checker.cycles["bad"][2], bad.floor)
    code, out = run_cli("diff", *s, "--cycle", "bad")
    assert code == 0
    assert out.splitlines()[1] == "differential: " + _serialized(base, degree - 2, bad.floor, image)
    code, out = run_cli("primitive", *s, "--cycle", "xi")
    assert (code, out.splitlines()[-1]) == (0, "verification OK"), out
    theta_line, = (line for line in out.splitlines() if line.startswith("theta: "))
    theta = ck.parse_generators(theta_line)
    assert ck.boundary_above(base, checker.entries, theta, xi.floor) == checker.cycles["xi"][2]
    code, out = run_cli("primitive", *s, "--cycle", "bad")
    assert code == 2 and out.startswith("not closed: "), out


def _drop_line(base, terms, floor) -> str:
    """The drop report of a Z/2 result: its terms below the floor, in the checker's order."""
    below = sorted((g for g in terms if ck.action(base, g) < floor),
                   key=lambda g: ck.order_key(base, g))
    return "dropped below floor: " + (" ".join(f"({q},{n},{a},{s})" for q, n, a, s in below)
                                      or "none")


@pytest.mark.parametrize("kind", BUNDLE_KINDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_cli_reports_on_random_scenario_files_agree_with_the_checker(tmp_path_factory, kind, data):
    # The draws of the test above, with xi and bad also declared at the
    # least action of their terms, where images and residuals fall below the
    # floor: every other report line of the commands, and every exit code,
    # against the checker.
    draw = data.draw
    params, d, xi, bad, seed = _draw_scenario(draw, kind)
    base = ck_base(params)
    cycles = {"xi": xi, "bad": bad}
    for name, ch in list(cycles.items()):
        least = min((ck.action(base, g) for g in ch.terms), default=ch.floor)
        cycles[f"{name}_top"] = ch._replace(floor=least)
    text = _scenario_text(draw, params, d, cycles, seed)
    checker = ck.read_scenario(text)
    entries = checker.entries
    path = tmp_path_factory.getbasetemp() / "random.scn"
    path.write_text(text)
    s = ("--scenario", str(path))

    # diff and primitive: the drop report is the below-floor part of the Z/2 result.
    for name in ("bad", "bad_top"):
        _, floor, terms = checker.cycles[name]
        code, out = run_cli("diff", *s, "--cycle", name)
        assert code == 0
        assert out.splitlines()[2] == _drop_line(base, ck.differential(entries, terms), floor)
    for name in ("xi", "xi_top"):
        _, floor, terms = checker.cycles[name]
        code, out = run_cli("primitive", *s, "--cycle", name)
        assert code == 0, out
        theta_line, = (line for line in out.splitlines() if line.startswith("theta: "))
        residual = ck.differential(entries, ck.parse_generators(theta_line)) ^ terms
        assert out.splitlines()[-3] == _drop_line(base, residual, floor)

    # validate: the case tag, N_E = |c-1|*nu on a spherical base, the table, the cycles.
    code, out = run_cli("validate", *s)
    lines = out.splitlines()
    assert code == 0, out
    assert lines[0] == "bundle: valid"
    assert lines[1].split(" ")[0] == f"case={BUNDLE_KINDS[kind][0].value}"
    assert lines[2].startswith("semi-positive=")
    if base.spherical:
        assert lines[3] == f"N_E={abs(base.c - 1) * base.nu}"
    assert lines[3 + base.spherical:] == [f"differentials: {len(entries)} entries valid"] + [
        f"cycle {name}: degree {degree}, floor {floor}, {len(terms)} terms"
        for name, (degree, floor, terms) in sorted(checker.cycles.items())]

    # enumerate: the checker's slice and closed forms; c = 0 leaves the class free.
    degree = 2 * draw(st.integers(-3, 3)) + 1
    floor = Fraction(draw(st.integers(-60, 10)), draw(st.integers(1, 4)))
    pad = base.dim + 2 * abs(params.level_step) + 2
    lo = draw(st.integers(-pad, pad))
    hi = draw(st.integers(lo, pad))
    code, out = run_cli("enumerate", *s, "--degree", str(degree), f"--floor={floor}",
                        f"--window={lo}:{hi}")
    if base.spherical and base.c == 0:
        # The class-0 generators of the degree keep their level along the slice.
        twin = ck.Base(base.dim, base.tau, base.crit)
        if ck.enumerate_slice(twin, degree, Fraction(-10**6), lo, hi):
            assert code == 2 and out.startswith("error: infinite slice: c = 0 "), out
        else:
            assert (code, out) == (0, ENUM_HEADER)
    else:
        assert (code, out) == (0, ENUM_HEADER + "".join(
            f"({g[0]},{g[1]},{g[2]},{g[3]}) | {ck.action(base, g)} | {ck.twice_mu(base, g)}"
            f" | {ck.level(base, g)} | {ck.eta(base, g)}\n"
            for g in ck.enumerate_slice(base, degree, floor, lo, hi)))

    # primitive --random-table: an admissible table, then the checker's verdict.
    for name in ("xi", "bad"):
        _, floor, terms = checker.cycles[name]
        code, out = run_cli("primitive", *s, "--cycle", name, "--random-table")
        lines = out.splitlines()
        table = [(int(line.split()[0][1:]), *ck.parse_generators(line))
                 for line in lines[1:] if line.startswith("  ")]
        assert lines[0] == f"table: seeded ({seed}), {len(table)} entries"
        assert ck.table_violations(base, table) == [] and ck.square_defects(base, table) == []
        if ck.boundary_above(base, table, terms, floor):
            assert code == 2 and lines[-1].startswith("not closed: "), out
        else:
            assert (code, lines[-1]) == (0, "verification OK"), out
            theta_line, = (line for line in lines if line.startswith("theta: "))
            theta = ck.parse_generators(theta_line)
            assert ck.boundary_above(base, table, theta, floor) == terms
            assert lines[-3] == _drop_line(base, ck.differential(table, theta) ^ terms, floor)

    code, out = run_cli("check", *s)
    assert code == 0 and all(line.startswith("PASS: ") for line in out.splitlines()), out


def test_primitive_drop_line_agrees_with_the_checker_when_a_term_drops():
    # cp1_drop's table sends the theta term (q0,1,0,-) below xi0's floor, a
    # drop the random scenarios above almost never make: the drop line is
    # the checker's below-floor part of d(theta) + xi, and it is not empty.
    path = scenario_path("cp1_drop")
    checker = ck.read_scenario(path.read_text())
    _, floor, terms = checker.cycles["xi0"]
    code, out = run_cli("primitive", "--scenario", str(path), "--cycle", "xi0")
    lines = out.splitlines()
    assert (code, lines[-1]) == (0, "verification OK"), out
    theta_line, = (line for line in lines if line.startswith("theta: "))
    theta = ck.parse_generators(theta_line)
    assert ck.boundary_above(checker.base, checker.entries, theta, floor) == terms
    residual = ck.differential(checker.entries, theta) ^ terms
    assert lines[-3] == _drop_line(checker.base, residual, floor) == (
        "dropped below floor: (q0,2,-2,+)")
