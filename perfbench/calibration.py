"""Machine-speed calibration: a fixed kernel timed between pieces of work.

The benchmark's host is shared. Its cores run at one speed for a while and
then, for seconds to minutes, up to twice as slow (another tenant on the
same physical core, most likely); the process keeps its CPU the whole
time, so CPU time does not show it. Raw rates from such a host spread
far past any useful bound.

So the benchmark times a fixed kernel of the same kind of work as the
program -- a Python loop over small numpy array maths, batched 4x4
linear algebra, and plain Python dictionary arithmetic -- at every
checkpoint between pieces of timed work. Each piece's time is scaled by
``REFERENCE_S`` over the mean kernel time at its two ends, so it reads as
if the host had run at the reference speed throughout. The kernel is the
benchmark's own code and calls nothing in the program, so a change to the
program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: one kernel pass on the reference host (2-vCPU Intel Xeon VM, Python
#: 3.11, numpy 2.4 with OpenBLAS, one BLAS thread) in its fast state
REFERENCE_S = 3.6e-3

#: kernel passes per calibration; the fastest one is kept
PASSES = 2

_rng = np.random.default_rng(20240821)
_DECAYS = _rng.uniform(0.1, 1.0, (100, 10))
_JACOBIANS = _rng.standard_normal((100, 10, 4))
_EYE10 = np.eye(10)
_EYE4 = np.eye(4)


def kernel_pass() -> float:
    """One pass of the fixed kernel; returns a checksum so nothing is skipped."""
    acc = 0.0
    for i in range(40):
        y = np.exp(-_DECAYS * (1 + i % 5))
        acc += float(np.trace(np.linalg.inv(y.T @ y + _EYE10)))
        acc += sum(j * i for j in range(60)) * 1e-9
        acc += float(np.sort(y[:, i % 10])[50])
    for i in range(8):
        jac = _JACOBIANS * (1.0 + 0.01 * i)
        fisher = np.einsum("mbi,mbj->mij", jac, jac) + _EYE4
        eigvals = np.linalg.eigvalsh(fisher)
        inverse = np.linalg.inv(fisher)
        acc += float(np.diagonal(inverse, axis1=1, axis2=2).sum() + eigvals[:, 0].sum())
        acc += sum(float(v) for v in eigvals[:20, 1])
    table = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    return acc + sum(table.values())


def calibrate() -> float:
    """Seconds of the fastest of PASSES kernel passes, timed now."""
    best = float("inf")
    for _ in range(PASSES):
        t0 = time.perf_counter()
        kernel_pass()
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Times pieces of work and scales each by the kernel time at its two ends.

    ``start()`` opens a piece, ``checkpoint()`` closes it, calibrates and
    opens the next, ``stop()`` closes it and calibrates. Calibration is
    never inside a piece.
    """

    def __init__(self):
        kernel_pass()  # first-call costs stay out of every reading
        self.calibrations = [calibrate()]
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._opened = None

    def start(self) -> None:
        self._opened = time.perf_counter()

    def _close(self) -> None:
        piece_s = time.perf_counter() - self._opened
        before = self.calibrations[-1]
        after = calibrate()
        self.calibrations.append(after)
        self.raw_s += piece_s
        self.scaled_s += piece_s * REFERENCE_S / ((before + after) / 2.0)

    def checkpoint(self) -> None:
        self._close()
        self.start()

    def stop(self) -> None:
        self._close()
        self._opened = None

    def scale(self, seconds: float) -> float:
        """``seconds`` that just ended, at the reference speed (latest calibration)."""
        return seconds * REFERENCE_S / self.calibrations[-1]

    def median_ms(self) -> float:
        return statistics.median(self.calibrations) * 1e3
