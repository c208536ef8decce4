"""Mutant gate for the tier-1 suite: stdlib and pytest only.

Run from anywhere, with pytest installed:

    python tests/mutants.py

For each mutant in ``MUTANTS`` the script copies the repository (without
``.git`` and caches) to a temporary directory, applies one exact-string edit
to one file of ``src/rabinowitz`` there, and runs tier-1 in that copy
(``pytest -v`` at its root) under a 1 GiB address-space limit.  A mutant is
killed when the suite fails; the report names the failing tests, sorted.

The suite runs with this file loaded as a pytest plugin (``-p mutants``),
which changes nothing of tier-1's own settings and makes each report
repeatable.  It loads a Hypothesis profile with ``derandomize=True`` and no
shrink or explain phase, and it ends each test that runs past
``TEST_LIMIT`` seconds with :class:`PastTestLimit`, which pytest reports as
that test's failure and Hypothesis neither catches nor shrinks; so a mutant
that makes a test hang or run away is killed by that test, by name.  Tests
that pin their own phases keep them, bounded by the same limit.  A suite
that runs past five times the unmutated suite's duration (at least 60 s),
or one that dies without reporting a failed test, is killed by the test it
was running: the last line of its verbose output.

The report goes to standard output and the durations to standard error, so
two runs print the same report.  The script exits 0 when every mutant is
killed, and 1 when one survives, when an edit's text is missing from its
file or not unique there, or when the unmutated copy fails.  Mutants run
one at a time.  The file name does not start with ``test_``, so pytest does
not collect it.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks")
MEMORY_LIMIT = 1 << 30  # bytes of address space per suite run
TEST_LIMIT = 5.0  # seconds per test; the slowest unmutated test takes about 1 s
# Past the limit the alarm repeats at this interval until the test ends: a
# raise that lands in a finalizer is printed and ignored, and the test runs on.
LIMIT_REPEAT = 0.5
# A test line of ``pytest -v``: the node id, then its outcome and progress.
OUTCOME = re.compile(r"^(\S+::.*) (PASSED|FAILED|ERROR|SKIPPED|XFAIL|XPASS)\s+\[\s*\d+%\]$")

# (what the mutant breaks, file under src/rabinowitz, text, replacement)
MUTANTS = [
    (
        "the very-negative stop removed",
        "vanishing.py",
        "stop = params.level_step * max(g.sphere for g in xi.terms) - params.dim_m // 2",
        'stop = float("-inf")',
    ),
    (
        "stop_level=stop on very-negative results",
        "vanishing.py",
        "gap_constant=gap_bound, class_reports=tuple(reports))",
        "stop_level=stop, gap_constant=gap_bound, class_reports=tuple(reports))",
    ),
    (
        # Levels descending with ties by ascending class order the labels of a
        # validated table as class-major does: class level ranges meet at most
        # in one end level when 2*c*nu <= -dim_M.  The ties go the other way.
        "theta-part labels ordered level-major",
        "vanishing.py",
        "key=lambda al: (al[0], -al[1])",
        "key=lambda al: (-al[1], -al[0])",
    ),
    (
        "a min-heap in _descend: the least pending level first",
        "vanishing.py",
        "l = -heappop(heap)",
        "l = -heap.pop(heap.index(max(heap)))",
    ),
    (
        "the class gap taken against every cycle term",
        "vanishing.py",
        "min(abs(_invariants(params, g)[2] - k) for k in xi_keys)",
        "min(abs(_invariants(params, g)[2] - _invariants(params, h)[2]) for h in xi.terms)",
    ),
    (
        "the fold skipping a term at level >= l instead of raising",
        "vanishing.py",
        'raise InductionError(f"higher differential failed to drop the level at {l}")',
        "continue",
    ),
    (
        "the zero-slope branch of enumerate_generators removed: a coefficient-0 bound never empties a slice",
        "generators.py",
        "            elif rhs > 0:\n                a_lo, a_hi = inf, -inf  # no class at all\n",
        "",
    ),
    (
        "the two infinity checks of enumerate_generators swapped",
        "generators.py",
        "        if a_hi == inf:  # the case's window end is missing, or c = 0 keeps the level\n",
        "        if a_lo == -inf:\n"
        '            raise InfiniteSliceError(f"infinite slice: {_uncontrolled(params)}")\n'
        "        if a_hi == inf:\n",
    ),
    (
        "a strict floor test in _level_above",
        "generators.py",
        "return lv if key * den >= bar else None",
        "return lv if key * den > bar else None",
    ),
    (
        "a depth cutoff of dim_M + 1",
        "bundle.py",
        "return self.dim_m if self.c == 0 else None",
        "return self.dim_m + 1 if self.c == 0 else None",
    ),
    (
        "candidate codes left unsorted",
        "randomized.py",
        "    codes.sort()\n",
        "",
    ),
    (
        "sphere_class_floor one class too high",
        "generators.py",
        "return math.ceil((action_floor - peak + (params.tau + 1) * params.min_value) / per_class)",
        "return math.ceil((action_floor - peak + (params.tau + 1) * params.min_value) / per_class) + 1",
    ),
    (
        "table targets not shifted by the source's sphere class in _raw_step",
        "differentials.py",
        "Generator(tq, tn, ta + a, ts)",
        "Generator(tq, tn, ta, ts)",
    ),
    (
        "the +1 of (tau + 1) dropped from the critical-value term of the action",
        "bundle.py",
        "scale, half = (self.tau + 1) * self.action_denominator",
        "scale, half = self.tau * self.action_denominator",
    ),
    (
        "a strict action rule: a target of equal action refused",
        "differentials.py",
        "if key_t > key_s:",
        "if key_t >= key_s:",
    ),
    (
        "drop 0 admitted by the level rule",
        "differentials.py",
        "if entry.drop < 1 or lt != ls - entry.drop:",
        "if entry.drop < 0 or lt != ls - entry.drop:",
    ),
    (
        "the canonical order by level ascending",
        "generators.py",
        "return (-lv, -key, g.base, g.cover, g.sign)",
        "return (lv, -key, g.base, g.cover, g.sign)",
    ),
    (
        "the sign refusal of _invariants removed: any sign but '+' read as '-'",
        "generators.py",
        "    elif sign == \"-\":\n"
        "        mu += 4 * n - 1\n"
        "    else:\n"
        "        raise ValueError(f\"sign must be '+' or '-', got {sign!r}\")\n",
        "    else:\n"
        "        mu += 4 * n - 1\n",
    ),
    (
        "the shuffle keeping a draw equal to i + 1: an index past the list",
        "randomized.py",
        "while j >= m:",
        "while j > m:",
    ),
    (
        "the shuffle drawing i.bit_length() bits: one too few at each power of two",
        "randomized.py",
        "k = m.bit_length()",
        "k = i.bit_length()",
    ),
    (
        "a + source admitted without its fiber companion",
        "randomized.py",
        '        if source.sign == "+":\n'
        "            unit.append(HigherDifferentialEntry(drop, source.fiber_partner(), target.fiber_partner()))\n",
        "",
    ),
    (
        "a -to- unit admitted",
        "randomized.py",
        'if target.sign == "-":',
        'if target.sign == "-" and source.sign == "+":',
    ),
    (
        "a rejected entry naming only its source",
        "differentials.py",
        "ends = (entry.source, entry.target)",
        "ends = (entry.source,)",
    ),
    (
        "a failing square probe naming only its residue",
        "differentials.py",
        "(w, *residue))",
        "tuple(residue))",
    ),
]


class PastTestLimit(BaseException):
    """A test ran past ``TEST_LIMIT``; not an ``Exception``, so Hypothesis lets it through."""


def _past_limit(signum, frame) -> None:
    raise PastTestLimit(f"the test ran past the gate's limit of {TEST_LIMIT:.0f} s")


def pytest_configure(config) -> None:
    """Plugin set-up in each suite run: the repeatable profile and the limit's handler."""
    from hypothesis import Phase, settings

    settings.register_profile(
        "mutants", derandomize=True, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    settings.load_profile("mutants")
    signal.signal(signal.SIGALRM, _past_limit)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Run one test under the per-test limit."""
    signal.setitimer(signal.ITIMER_REAL, TEST_LIMIT, LIMIT_REPEAT)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_suite(root: Path, limit: float) -> tuple[bool, list[str], float]:
    """Run tier-1 in ``root`` with this file as a plugin: (passed, killing tests, seconds).

    A suite cut by the time limit, or one that dies without reporting a
    failed test (a ``MemoryError`` inside pytest itself), is killed by the
    test it was running: the last line of its verbose output.
    """
    path = os.pathsep.join(str(root / part) for part in ("src", "tests"))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": "1"}
    command = [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider", "-p", "mutants",
               "--continue-on-collection-errors"]
    start = time.monotonic()
    try:
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True,
                              timeout=limit, preexec_fn=_limit_memory, check=False)
        out, why = done.stdout, f"pytest exit code {done.returncode}"
    except subprocess.TimeoutExpired as err:
        done = None
        out = err.stdout.decode() if isinstance(err.stdout, bytes) else err.stdout or ""
        why = f"time limit {limit:.0f} s"
    seconds = time.monotonic() - start
    if done is not None and done.returncode == 0:
        return True, [], seconds
    failed = [m[1] for m in map(OUTCOME.match, out.splitlines())
              if m and m[2] in ("FAILED", "ERROR")]
    running = out.rstrip("\n").rsplit("\n", 1)[-1].strip()
    return False, sorted(failed) or [f"{running} ({why})"], seconds


def main() -> int:
    for name, path, old, _ in MUTANTS:
        count = (ROOT / "src" / "rabinowitz" / path).read_text().count(old)
        if count != 1:
            print(f"mutant {name!r}: its text occurs {count} times in {path}, not once")
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        shutil.copytree(ROOT, clean, ignore=IGNORED)
        passed, failed, seconds = run_suite(clean, 600)
        if not passed:
            print("tier-1 fails without a mutant: " + "; ".join(failed))
            return 1
        limit = max(60.0, 5 * seconds)
        print(f"unmutated tier-1 passed; per-test limit {TEST_LIMIT:.0f} s")
        print(f"unmutated tier-1: {seconds:.1f} s; suite limit {limit:.0f} s", file=sys.stderr)
        survivors = 0
        for k, (name, path, old, new) in enumerate(MUTANTS):
            copy = Path(tmp) / f"mutant{k}"
            shutil.copytree(ROOT, copy, ignore=IGNORED)
            target = copy / "src" / "rabinowitz" / path
            target.write_text(target.read_text().replace(old, new))
            passed, failed, seconds = run_suite(copy, limit)
            shutil.rmtree(copy)
            print(f"{name}: {seconds:.1f} s", file=sys.stderr)
            if passed:
                survivors += 1
                print(f"SURVIVED {name}")
                continue
            print(f"killed   {name} by {len(failed)} test(s):")
            for test in failed:
                print(f"    {test}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
