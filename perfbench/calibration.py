"""Calibration loops: fixed work, independent of sturmlex, that tracks how
fast the machine runs at the moment.

On a shared VM the same job can take 1.3-1.8x longer from one minute to the
next.  The benchmark times a calibration loop right before and right after
each operation and rescales the operation's time to the loop's reference
speed.  Nothing in the loops calls sturmlex, so a change to the program
cannot change the calibration.

The jobs do not all slow down alike, so there are two loops, each a small
copy of one kind of work:

- ``interp``: Python-level factor counting (slices, ``Counter``, ``sorted``),
  like ``factors`` and ``checks`` on short prefixes;
- ``find``: C-level substring search in an 8192-letter binary string, like
  the first-occurrence pass of ``factors`` on a long random literal.

Timed on either side of a ``std:1,2,3`` verdict, ``interp`` brought the
job's spread (IQR/median over 46 runs of the job) from 0.19 to 0.10 while
``find`` left it at 0.19; on a random 8192-letter literal ``find`` brought it
from 0.11 to 0.06 while ``interp`` left it at 0.11.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter

_rng = random.Random(2012)
_SHORT = "".join(_rng.choice("01") for _ in range(1500))
_LONG = "".join(_rng.choice("01") for _ in range(8192))
_NEEDLES = [_LONG[i:i + 16] for i in range(0, len(_LONG) - 16, 37)]


def interp_loop() -> int:
    total = 0
    for n in range(1, 13):
        counts = Counter(_SHORT[i:i + n] for i in range(len(_SHORT) - n + 1))
        factors = sorted(counts)
        total += sum(_SHORT.find(v) for v in factors[:64]) + len(factors)
    return total


def find_loop() -> int:
    return sum(_LONG.find(v) for v in _NEEDLES)


# Each loop's median time on the defining machine (2-vCPU Intel Xeon VM,
# Python 3.11.7).  They only set the scale: a rescaled time is in seconds at
# that speed.
LOOPS = {
    "interp": (interp_loop, 0.0073),
    "find": (find_loop, 0.0085),
}
REPEATS = 3  # timings per calibration; the median is kept


class Calibration:
    def __init__(self, kind: str):
        self.kind = kind
        self.loop, self.reference_s = LOOPS[kind]

    def measure(self) -> float:
        """The loop's current time: the median of ``REPEATS`` timings."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self.loop()
            times.append(time.perf_counter() - start)
        return statistics.median(times)
