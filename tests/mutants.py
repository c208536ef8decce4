"""Mutant gate for the tier-1 suite: stdlib and pytest only.

Run from anywhere, with pytest installed:

    python tests/mutants.py

For each mutant in ``MUTANTS`` the script copies the repository (without
``.git`` and caches) to a temporary directory, applies its exact-string edits
to files of ``src/rabinowitz`` there (one edit, or one per broken rule), and
runs tier-1 in that copy (``pytest -v --tb=no`` at its root) under a 1 GiB
address-space limit.  A mutant is killed when the suite fails; the report
names the failing tests, sorted.

The suite runs with ``PYTHONHASHSEED=0`` and with this file loaded as a
pytest plugin (``-p mutants``), which changes nothing of tier-1's own
settings and makes each report repeatable.  It loads a Hypothesis profile with ``derandomize=True`` and no
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

# (what the mutant breaks, file under src/rabinowitz, text, replacement,
#  then any further (file, text, replacement) edits of the same mutant)
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
        "None, None, (), gap_bound, tuple(reports)))",
        "None, stop, (), gap_bound, tuple(reports)))",
    ),
    (
        "level_ceiling and stop_level swapped in the PrimitiveResult of the other cases",
        "vanishing.py",
        "dropped, ceiling, stop, bounds, None, ()))",
        "dropped, stop, ceiling, bounds, None, ()))",
    ),
    (
        "the very-negative gap constant without the half: C = tau*dim_M + max f - min f",
        "bundle.py",
        "return self.tau / 2 * self.dim_m + self.max_value - self.min_value",
        "return self.tau * self.dim_m + self.max_value - self.min_value",
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
        "min(abs(key[g] - k) for k in xi_keys)",
        "min(abs(key[g] - key[h]) for h in xi.terms)",
    ),
    (
        "the class report's theta keys read without the g.sphere == a filter",
        "vanishing.py",
        "for g in theta.terms if g.sphere == a]",
        "for g in theta.terms]",
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
        "a strict floor test in truncate and build_chain",
        "chains.py",
        "if _invariants(params, g)[2] >= bar]",
        "if _invariants(params, g)[2] > bar]",
        ("chains.py", "if key < bar:", "if key <= bar:"),
    ),
    (
        # The one threshold of truncate, build_chain, the fold and enumerate_generators.
        "_floor_key rounding down: a key just below a fractional floor counted above it",
        "generators.py",
        "return -(-floor.numerator * params.action_denominator // floor.denominator)",
        "return floor.numerator * params.action_denominator // floor.denominator",
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
        "table targets not shifted by the source's sphere class in _table_image",
        "differentials.py",
        "_new(Generator, (tq, tn, ta + a, ts))",
        "_new(Generator, (tq, tn, ta, ts))",
    ),
    (
        "_table_image reusing the stored targets at every sphere class",
        "differentials.py",
        "            if a:\n"
        "                for tq, tn, ta, ts in hits:\n"
        "                    yield _new(Generator, (tq, tn, ta + a, ts))\n"
        "            else:\n"
        "                yield from hits\n",
        "            yield from hits\n",
    ),
    (
        "the +1 of (tau + 1) dropped from the critical-value term of the action",
        "bundle.py",
        "scale, k_n = (self.tau + 1) * den,",
        "scale, k_n = self.tau * den,",
    ),
    (
        "the row builder overwriting an earlier duplicate id: the last duplicate wins",
        "bundle.py",
        "if cp.name not in rows:",
        "if True:",
    ),
    (
        "the sign parity of enumerate_generators' cover pin flipped",
        "generators.py",
        'sign = "+" if r else "-"',
        'sign = "-" if r else "+"',
    ),
    (
        "the cover step of enumerate_generators with its sign flipped",
        "generators.py",
        "classes, cover_step = (-inf, inf), -m_a // 4",
        "classes, cover_step = (-inf, inf), m_a // 4",
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
        "while j > i:",
        "while j > i + 1:",
    ),
    (
        # Each run of k-bit draws reaches one index too far down, where the
        # stdlib draws k - 1 bits.
        "a shuffle run boundary off by one: k bits drawn at i = 2**(k-1) - 2",
        "randomized.py",
        "low = (1 << (k - 1)) - 1",
        "low = (1 << (k - 1)) - 2",
    ),
    (
        "a + source admitted without its fiber companion",
        "randomized.py",
        '        if source.sign == "+":\n'
        "            unit.append(_new(HigherDifferentialEntry,\n"
        "                             (drop, source.fiber_partner(), target.fiber_partner())))\n",
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
    (
        "a + source without its fiber companion, with the square check switched off",
        "randomized.py",
        '        if source.sign == "+":\n'
        "            unit.append(_new(HigherDifferentialEntry,\n"
        "                             (drop, source.fiber_partner(), target.fiber_partner())))\n",
        "",
        ("differentials.py", "for w, residue in check_d_squared_window(d)", "for w, residue in ()"),
    ),
    (
        "_descend dropping its correction terms",
        "vanishing.py",
        'hits = by_source.get((q, n, "-"))',
        "hits = None",
    ),
    (
        "_descend folding the table image of the correction term instead of its theta part",
        "vanishing.py",
        'by_source.get((q, n, "-"))',
        'by_source.get((q, n - 1, "+"))',
    ),
    (
        "the fold ignoring cancellation: a target always added to its bucket",
        "vanishing.py",
        "                elif g in bucket:\n"
        "                    bucket.remove(g)\n"
        "                else:\n"
        "                    bucket.add(g)\n",
        "                else:\n"
        "                    bucket.add(g)\n",
    ),
    (
        "_descend keeping a bucket between calls: a level's first bucket reused by later runs",
        "vanishing.py",
        "                    pending[lv] = {g}\n",
        "                    pending[lv] = bucket = _descend.__dict__.setdefault(lv, set())\n"
        "                    bucket.add(g)\n",
    ),
    (
        "the fold skipping the class shift of a target",
        "vanishing.py",
        "g = _new(Generator, (tq, tn, ta + a, ts))",
        "g = _new(Generator, (tq, tn, ta, ts))",
    ),
    (
        "the fold's theta term keeping the cover: (q, n, a, +) -> (q, n, a, -)",
        "vanishing.py",
        'part.append(_new(Generator, (q, n, a, "-")))',
        'part.append(_new(Generator, (q, n - 1, a, "-")))',
    ),
    (
        "the bucket's - check skipped: a - term paired as a + term",
        "vanishing.py",
        'if g[3] != "+":',
        "if False:",
    ),
    (
        "_fiber_primitive keeping the cover: (q, n, a, +) -> (q, n, a, -)",
        "differentials.py",
        '_new(Generator, (q, n + 1, a, "-"))',
        '_new(Generator, (q, n, a, "-"))',
    ),
    (
        "verify_primitive truncating d(theta) before adding xi",
        "vanishing.py",
        "    raw = _new(Chain, (xi.degree, xi.floor, _raw_step(d, theta.terms) ^ xi.terms))\n"
        "    return truncate(d.params, raw)\n",
        "    image = Chain(xi.degree, xi.floor, _raw_step(d, theta.terms))\n"
        "    image, dropped = truncate(d.params, image)\n"
        "    return Truncated(image._replace(terms=image.terms ^ xi.terms), dropped)\n",
    ),
    (
        "truncate keeping every term",
        "chains.py",
        "kept = frozenset([g for g in x.terms if _invariants(params, g)[2] >= bar])",
        "kept = x.terms",
    ),
    (
        "truncate skipping the sort of a one-term drop: the term dropped, the report empty",
        "chains.py",
        "if len(kept) < len(x.terms):",
        "if len(kept) < len(x.terms) - 1:",
    ),
    (
        "truncate reporting the dropped terms unsorted",
        "chains.py",
        "canonical_sort(params, x.terms - kept))",
        "tuple(x.terms - kept))",
    ),
    (
        "add truncating at the finer floor",
        "chains.py",
        "max(x.floor, y.floor)",
        "min(x.floor, y.floor)",
    ),
    (
        "_pool dropping the level-0 generators on c = 0",
        "randomized.py",
        "        params = BundleParams(params.dim_m, params.tau, params.morse)\n"
        "    return enumerate_generators(params, degree, floor, level_lo, level_hi)\n",
        "        twin = BundleParams(params.dim_m, params.tau, params.morse)\n"
        "        gens = enumerate_generators(twin, degree, floor, level_lo, level_hi)\n"
        "        return tuple(g for g in gens if 2 * twin.crit(g.base).index != twin.dim_m)\n"
        "    return enumerate_generators(params, degree, floor, level_lo, level_hi)\n",
    ),
    (
        "_pool building the aspherical twin for every base",
        "randomized.py",
        "    if params.c == 0:\n        params = BundleParams(",
        "    if True:\n        params = BundleParams(",
    ),
    (
        "_pool's enumeration missing its last generator",
        "randomized.py",
        "    return enumerate_generators(params, degree, floor, level_lo, level_hi)\n",
        "    return enumerate_generators(params, degree, floor, level_lo, level_hi)[:-1]\n",
    ),
    (
        "_candidate_entries handing out a mutable codes list",
        "randomized.py",
        "return tuple(codes), gens",
        "return codes, gens",
    ),
    (
        "_candidate_entries keyed on the degrees as given",
        "randomized.py",
        "_candidate_entries(params, tuple(degrees), Fraction(floor)",
        "_candidate_entries(params, degrees, Fraction(floor)",
    ),
    (
        "the level-bound memo keyed without twice_mu",
        "vanishing.py",
        "    return _certified_bound("
        "params, twice_mu, action_floor.numerator, action_floor.denominator)\n",
        "    key = (params, action_floor.numerator, action_floor.denominator)\n"
        "    return level_floor.__dict__.setdefault(key, _certified_bound(\n"
        "        params, twice_mu, action_floor.numerator, action_floor.denominator))\n",
    ),
    (
        "__all__ keeping the modules the import block binds",
        "__init__.py",
        'if not name.startswith("_") and not isinstance(value, types.ModuleType)]',
        'if not name.startswith("_")]',
    ),
    (
        "--seed ignored: the [meta] seed always used",
        "cli.py",
        '    if getattr(args, "seed", None) is None:  # no --seed, or a command without one\n',
        "    if True:\n",
    ),
    (
        "primitive --seed accepted without --random-table",
        "cli.py",
        '    if args.command == "primitive" and args.seed is not None and not args.random_table:\n'
        '        parser.error("primitive: --seed is read only with --random-table")\n',
        "",
    ),
    (
        "[meta] accepting the bundle keys",
        "scenario.py",
        '"meta": ("seed",),',
        '"meta": ("seed", "dim_m", "sphericity", "nu", "c", "tau"),',
    ),
    (
        "a generator's cover read with bare int()",
        "scenario.py",
        '_parse_int("cover", cover, line)',
        "int(cover)",
    ),
    (
        "the crit grammar matched as a prefix instead of in full",
        "scenario.py",
        r'([^,\s()]+)\s*\)")',
        r'([^,\s()]+)\s*\).*")',
    ),
    (
        "_read_kv's given-twice check removed",
        "scenario.py",
        "    if key in kv:\n"
        '        raise ScenarioError(f"key {key!r} given twice '
        '(first on line {kv[key][1]})", lineno)\n',
        "",
    ),
]


# Edits tried and left out as equivalent: no program can tell them apart.
# - The key tuples of [differentials] and [cycles] in scenario._SECTION_KEYS
#   filled with the bundle keys: lines of those sections never reach _read_kv.
# - main's seed rule as ``getattr(args, "seed", 0) is None``: validate,
#   enumerate and diff then get no args.seed, and they never read it.
# - truncate building its result as ``x._replace(terms=kept)``: the same
#   chain, only slower.


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

    A suite cut by the time limit, or one that dies (a ``MemoryError``
    inside pytest itself, a signal), is also killed by the test it was
    running: the last line of its verbose output, after the failures it
    reported, if any.  The tail of such a suite's output goes to standard
    error.
    """
    path = os.pathsep.join(str(root / part) for part in ("src", "tests"))
    # A fixed hash seed: a mutant that leaks set order, such as an unsorted
    # drop report, then fails the same tests on every run.
    env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": "1", "PYTHONHASHSEED": "0"}
    # No tracebacks: the report reads only the outcome lines, and pytest fails
    # with INTERNALERROR on a traceback entry without a line number, which the
    # limit's raise leaves when it lands on a loop's backward jump.
    command = [sys.executable, "-m", "pytest", "-v", "--tb=no", "-p", "no:cacheprovider",
               "-p", "mutants", "--continue-on-collection-errors"]
    start = time.monotonic()
    try:
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True,
                              timeout=limit, preexec_fn=_limit_memory, check=False)
        out, why = done.stdout, f"pytest exit code {done.returncode}"
        ended = done.returncode in (0, 1)  # passed, or some tests failed
    except subprocess.TimeoutExpired as err:
        done, ended = None, False
        out = err.stdout.decode() if isinstance(err.stdout, bytes) else err.stdout or ""
        why = f"time limit {limit:.0f} s"
    seconds = time.monotonic() - start
    if done is not None and done.returncode == 0:
        return True, [], seconds
    failed = sorted(m[1] for m in map(OUTCOME.match, out.splitlines())
                    if m and m[2] in ("FAILED", "ERROR"))
    if ended and failed:
        return False, failed, seconds
    lines = out.rstrip("\n").split("\n")
    print(f"the suite named no failed test, or stopped early ({why}); its output ends:",
          *lines[-10:], sep="\n    ", file=sys.stderr)
    return False, [*failed, f"{lines[-1].strip()} ({why})"], seconds


def edits(mutant: tuple) -> list[tuple[str, str, str]]:
    """The (file, text, replacement) edits of one entry of ``MUTANTS``."""
    _, path, old, new, *more = mutant
    return [(path, old, new), *more]


def main() -> int:
    for mutant in MUTANTS:
        for path, old, _ in edits(mutant):
            count = (ROOT / "src" / "rabinowitz" / path).read_text().count(old)
            if count != 1:
                print(f"mutant {mutant[0]!r}: its text occurs {count} times in {path}, not once")
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
        for k, mutant in enumerate(MUTANTS):
            name = mutant[0]
            copy = Path(tmp) / f"mutant{k}"
            shutil.copytree(ROOT, copy, ignore=IGNORED)
            for path, old, new in edits(mutant):
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
