"""Host-speed reference: a fixed computation that uses no monogal code.

On a shared machine the speed of the same code drifts: the same P3P
instances ran 1.5x slower for minutes at a time, and every workload and the
set-up probes slowed together. The benchmark therefore times this
reference between instances, throughout the run, and scales its times to a
host on which one sample takes NOMINAL_S. A change to monogal cannot move
the reference, so it cannot move the correction either.

The work mixes what monogal's hot path does: straight-line complex
arithmetic in Python and small numpy calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.04
_A = np.eye(3, dtype=complex) * 2.0 + 0.1j
_B = np.ones(3, dtype=complex)


def sample() -> float:
    """Seconds the reference computation takes now."""
    t0 = time.perf_counter()
    x = [complex(i, 1.0) for i in range(11)]
    for _ in range(4000):
        for i in range(11):
            x[i] = x[i] * (0.999 + 0.001j) + 0.001
        np.linalg.solve(_A, _B)
    return time.perf_counter() - t0


class HostSpeed:
    """Reference samples spread over a run: one per second of instance time."""

    def __init__(self):
        self.samples: list[float] = []

    def keep_up(self, elapsed: float) -> None:
        while len(self.samples) <= elapsed:
            self.samples.append(sample())

    def factor(self) -> float:
        """Multiplier that turns a time measured in this run into seconds on
        the nominal host."""
        return NOMINAL_S / statistics.median(self.samples)
