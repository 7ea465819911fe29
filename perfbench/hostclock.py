"""A clock in reference-speed seconds, for a host whose speed swings.

On the shared 2-core host this benchmark was written on, the speed of
pure-Python code swings by up to 1.7x in phases of about ten seconds (a
fixed loop read 88 ms in one phase and 172 ms in the next).  CPU time
follows wall time, so neither clock is steady across runs.

``HostClock`` runs a fixed pure-Python probe every ``INTERVAL_S`` seconds
from a ``SIGALRM`` handler, in the same thread as the measured work, and
scales each stretch of work between two probes by ``REF_PROBE_S`` divided
by the probe's duration.  Probe time itself is left out.  A time read from
this clock is what the work would have taken on a host that runs the probe
in ``REF_PROBE_S``.  The probe uses no ``widthlab`` code, so a change to
the program cannot move it.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.04
# The probe's typical duration on the host this benchmark was written on;
# it only sets the scale of the reported times.
REF_PROBE_S = 0.001

# Integer keys, bit scans, dict lookups and small calls: the operations the
# solvers spend their time on, over a working set larger than a few lines.
_TABLE = {i * 7919 % 1000003: i for i in range(20000)}
_KEYS = [i * 7919 % 1000003 for i in range(0, 20000, 50)]


def _step(m: int) -> tuple[int, int]:
    low = m & -m
    return low.bit_length(), m ^ low


def _probe_unit() -> int:
    acc = 0
    get = _TABLE.get
    for key in _KEYS:
        m = (get(key, 0) * 2654435761) & 0xFFFF
        while m:
            b, m = _step(m)
            acc += b
    return acc


class HostClock:
    """Reference-speed seconds since construction; call ``stop`` when done.

    The alarm handler replaces ``_state`` in one assignment, so ``now`` reads
    a consistent state without blocking the signal.  An alarm that lands
    between ``now``'s two reads adds at most one probe's duration to that
    reading.
    """

    def __init__(self):
        self._perf = time.perf_counter
        scale = self._probe()
        # (reference seconds so far, perf_counter at that point, current scale)
        self._state = (0.0, self._perf(), scale)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _probe(self) -> float:
        start = self._perf()
        _probe_unit()
        return REF_PROBE_S / (self._perf() - start)

    def _on_alarm(self, signum, frame) -> None:
        start = self._perf()
        norm, last, scale = self._state
        new_scale = self._probe()
        norm += (start - last) * (scale + new_scale) / 2
        self._state = (norm, self._perf(), new_scale)

    def now(self) -> float:
        norm, last, scale = self._state
        return norm + (self._perf() - last) * scale

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
