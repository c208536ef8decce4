import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import rabinowitz
from rabinowitz import Generator, ScenarioError, parse_scenario, vanishing
from rabinowitz.cli import main
from rabinowitz.scenario import parse_fraction, parse_generator

from conftest import scenario_path

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
    for text, message in (
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
        # The one parse error without a line: the key is absent from the file.
        (MINIMAL.replace("tau = 1/2\n", ""), "missing bundle key 'tau'"),
        (
            MINIMAL.replace("sphericity = spherical", "sphericity = round"),
            "line 4: sphericity must be 'spherical' or 'aspherical', got 'round'",
        ),
    ):
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
    # The KeyError's text keeps its own quotes.
    assert out.splitlines()[-1] == (
        "differentials: entry [d1 (q9,0,0,-) -> (q0,0,0,+)] rejected: "
        'malformed: "unknown critical point id \'q9\'"'
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
        vanishing, "verify_primitive", lambda d, xi, theta: real(d, xi, theta)._replace(residual=xi)
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
