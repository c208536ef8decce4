"""The fixed reference computation that latencies are measured in.

It uses the same kinds of interpreter work as the engine (``Fraction``
arithmetic, set symmetric differences, a sort of tuples) and imports nothing
from the program, so a change to the program cannot change its cost.  One
call takes about 2 ms on a 2-core VM under Python 3.11.
"""

from __future__ import annotations

from fractions import Fraction

ROWS = 120


def reference(rows: int = ROWS):
    acc = Fraction(0)
    live: set = set()
    table = []
    for i in range(1, rows):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, 4) - Fraction(i % 5, 9)
        live ^= {((i * 7919) % 211, i % 3)}
        table.append((-(i % 13), Fraction(i, i % 5 + 2), "q%d" % (i % 17), i % 4))
    table.sort()
    return acc, len(live), table[0], table[-1]

