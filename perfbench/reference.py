"""Host-speed reference for the benchmark's timings.

The machines this benchmark runs on are shared. Pure-Python work on them can
run 1.6 times slower for minutes at a time, with no steal time shown, and
bankscan slows down with it. So every timing is taken next to a reference
loop: a fixed amount of pure-Python work that shares no code with bankscan.
It mixes the kinds of work bankscan does (arithmetic, dicts and strings
with allocation, struct parsing), because a busy host slows
allocation-heavy code more than a tight arithmetic loop. The timing is then
rescaled to a host that runs the reference work in NOMINAL_SECONDS. A
change to the program moves the rescaled figure as much as it moves the raw
one. A change in the host's speed mostly cancels out.
"""

import struct
import time

NOMINAL_SECONDS = 0.025  # about the reference work's time on a 2.0 GHz Xeon vCPU when the host is quiet

_BLOB = bytes((i * 37) & 0xFF for i in range(1 << 15))


def _work() -> int:
    """Integer arithmetic, then dict and string work with allocation, then struct parsing."""
    total = 0
    for i in range(150_000):
        total += i * i % 7
    table: dict[str, int] = {}
    rows = []
    for i in range(10_000):
        key = "k%d" % (i % 1009)
        table[key] = table.get(key, 0) + 1
        rows.append((key, i, i * 7 % 13))
    rows.sort()
    fields = [struct.unpack_from("<HI", _BLOB, pos) for pos in range(0, len(_BLOB) - 8, 4)]
    return total + len(table) + len(rows) + len(fields)


def reference_loop() -> float:
    """Seconds that the fixed reference work takes right now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def rescale(seconds: float, reference: float) -> float:
    """`seconds` measured while the reference work took `reference`, at nominal host speed."""
    return seconds * NOMINAL_SECONDS / reference
