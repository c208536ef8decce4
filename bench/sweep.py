"""One-off scaling sweep; not part of the gated benchmark.

    python3 bench/sweep.py

Prints raw wall milliseconds (median of a few calls) and the same in
reference units along three axes: base size for table sampling, floor depth
for find_primitive on cp1, and level-window width for enumerate_generators.
"""

from __future__ import annotations

import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from reference import reference

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rabinowitz import (  # noqa: E402
    Chain, enumerate_generators, find_primitive, load_scenario, load_table,
    random_admissible_table,
)
from workloads import synthetic_base  # noqa: E402


def median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def report(axis: str, value, ms: float) -> None:
    ref_ms = median_ms(reference, 15)
    print(f"{axis:28s} {value!s:>10s} {ms:10.2f} ms {ms / ref_ms:10.2f} ref")


def main() -> None:
    for ncrit, dim in ((2, 2), (3, 2), (4, 2), (6, 2), (4, 4), (6, 4)):
        params, _ = synthetic_base(ncrit, dim, 2, 1, Fraction(1, 2))
        ms = median_ms(lambda: random_admissible_table(
            params, 5, (3, 5, 7), Fraction(-20), -20, 20, size=ncrit), 3)
        report("sampling ncrit/dim", f"{ncrit}/{dim}", ms)

    cp1 = load_scenario(ROOT / "scenarios" / "cp1.scn")
    d = load_table(cp1.bundle, cp1.entries)
    xi = cp1.cycles["xi0"]
    for depth in (10, 100, 500, 1500, 5000, 20000):
        cycle = Chain(xi.degree, Fraction(-depth), xi.terms)
        report("deep_floor floor", -depth, median_ms(lambda: find_primitive(d, cycle), 3))

    c1 = load_scenario(ROOT / "scenarios" / "c1.scn").bundle
    for lo in (-100, -1000, -10000, -100000):
        ms = median_ms(lambda: enumerate_generators(c1, 3, Fraction(-2), lo, 40), 3)
        report("enumerate window lower end", lo, ms)


if __name__ == "__main__":
    main()
