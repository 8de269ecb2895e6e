"""Host-speed sampler: reports a pass's time at a fixed reference speed.

On a shared host the CPU speed one process gets swings by up to 1.7x
within seconds, as other tenants come and go, and a pass of a few
seconds cannot average that out.  So a timer signal interrupts the pass
every PERIOD_S seconds and times a short, fixed, pure-Python burst of
interpreter work and scattered memory reads.  A stretch of the pass
between two bursts then counts as its length times REF_BURST_S over the
mean time of those two bursts: the time it would have taken at the
speed that gives the burst REF_BURST_S.  The bursts'
own time is left out.  A change to roundlab moves the scaled time as it
moves the raw time; the host's swings move both the burst and the pass
and cancel.

Signal handlers run between Python bytecodes, so no burst lands inside a
C call such as a HiGHS solve; the stretch around it takes the speed of
the bursts on either side.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.1
BURST_ITERS = 10000
MEMORY = bytes(range(256)) * (1 << 15)      # 8 MiB, past the CPU caches
PROBES = [(i * 2654435761) % len(MEMORY) for i in range(4000)]
REF_BURST_S = 0.0025      # a burst time between the fast and slow states of a 2-vCPU VM


def burst():
    """Fixed pure-Python work: dict reads and writes and integer arithmetic,
    then scattered reads from MEMORY, so that the burst slows both when
    the CPU is shared and when the memory bus is."""
    table = {}
    total = 0
    for i in range(BURST_ITERS):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += i * 3 % 7
    memory = MEMORY
    for i in PROBES:
        total += memory[i]
    return total


class SpeedSampler:
    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.samples = []      # (start, end) of each burst, in order
        self._previous = None

    def sample(self, *_):
        start = self.clock()
        burst()
        self.samples.append((start, self.clock()))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.siginterrupt(signal.SIGALRM, False)   # restart system calls
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def measure(self, start, end):
        """(raw, scaled): the time from `start` to `end` with the bursts
        left out, as measured and at reference speed.

        Time before the first burst takes the first burst's speed and
        time after the last burst the last one's."""
        spans = self.samples
        if not spans:
            raise ValueError("no speed samples")
        raw = total = 0.0
        for k in range(len(spans) + 1):
            lo = spans[k - 1][1] if k else float("-inf")
            hi = spans[k][0] if k < len(spans) else float("inf")
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            near = [spans[j][1] - spans[j][0] for j in (k - 1, k)
                    if 0 <= j < len(spans)]
            raw += hi - lo
            total += (hi - lo) * REF_BURST_S * len(near) / sum(near)
        return raw, total
