"""A fixed piece of pure-Python work that reads the machine's speed.

The benchmark's shared virtual machine changes speed by up to 1.7 times for
minutes at a time (see NOTES.md).  A run times this work between its
operations, outside their timed calls; the time metrics are scaled by it to
a fixed reference speed, so that two runs of the same code agree whichever
speed the machine had during each.

The work is plain interpreter work of the kind ringscope does (small
integer arithmetic modulo n, lists, tuples, hashing into sets and dicts)
and calls nothing in ringscope, so a change to ringscope cannot change it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# About the probe's mean time on the machine the bounds were set on (a
# shared 2-vCPU Intel Xeon virtual machine, Python 3.11).  Scaled times read
# as seconds on a machine where the probe takes this long.
REFERENCE_PROBE_S = 0.0028
# Probe time after an operation, as a share of the operation's time: the
# probes then sample the machine in proportion to the time operations take.
PROBE_SHARE = 0.05
N = 24  # size and modulus of the probe's matrix


def _work():
    rows = [[(i * j + 3) % N for j in range(N)] for i in range(N)]
    seen = set()
    counts = {}
    acc = 0
    for _ in range(25):
        for row in rows:
            key = tuple(row)
            seen.add(key)
            counts[key[0]] = counts.get(key[0], 0) + 1
            acc = (acc + sum(row)) % 65521
        last = rows[-1]
        rows = [[(a * 5 + b) % N for a, b in zip(row, last)] for row in rows]
    return acc + len(seen) + len(counts)


class Speed:
    """Probe times collected over a run."""

    def __init__(self):
        self.samples = []

    def probe(self, after_s):
        """Probe at least once, and for PROBE_SHARE of `after_s`, the time
        of the operation just made."""
        spent = 0.0
        while True:
            t0 = perf_counter()
            _work()
            took = perf_counter() - t0
            self.samples.append(took)
            spent += took
            if spent >= PROBE_SHARE * after_s:
                return

    def probe_s(self):
        """The mean probe time.  The machine's speed can change several
        times a second; an operation's time averages over those changes,
        and so does the mean, where the median of short probes would pick
        whichever speed held most of the time."""
        return statistics.fmean(self.samples)

    def factor(self):
        """Multiply a time measured in this run by this to scale it to the
        reference speed."""
        return REFERENCE_PROBE_S / self.probe_s()
