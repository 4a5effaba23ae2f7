"""Host speed reference: a fixed job timed between the benchmark's operations.

On a shared virtual machine the same code can run up to twice as slow for
minutes at a time, because other tenants load the physical cores.  The
benchmark times this fixed job after every operation, once per quarter
second the operation took, and rescales the pass time by REFERENCE_S over
the job's median time in the run, so that run_s reads as seconds on a host
where the job takes REFERENCE_S.  The job mixes the kinds of work the
workloads do (interpreter loops, small numpy calls, a LAPACK eigensolve,
FFTs) on fixed inputs, and it never calls into thermoplate, so a change to
the package cannot change it.  NOTES.md shows how much of the drift it
removes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median seconds of reference() on the 2-vCPU sizing VM (NOTES.md); it only
# sets the scale of the rescaled times
REFERENCE_S = 0.02
# one reference run per this many seconds of timed operation, so that the
# samples weigh each stretch of the run by the operation time spent in it
SAMPLE_EVERY_S = 0.25

_rng = np.random.default_rng(20261018)
_MATRIX = _rng.standard_normal((120, 120))
_GRID = _rng.standard_normal((128, 128))
_VECTOR = _rng.standard_normal(96) + 1j
# bound at import, so the traced pass's wrappers on numpy.linalg never see it
_eigvals = np.linalg.eigvals
_fft2 = np.fft.fft2


def reference() -> float:
    """Wall seconds of one run of the fixed reference job."""
    start = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i
    for _ in range(400):
        np.sqrt(_VECTOR + 1.0)
        np.argsort(_VECTOR.real)
    _eigvals(_MATRIX)
    for _ in range(6):
        _fft2(_GRID)
    return time.perf_counter() - start


def samples_after(seconds: float) -> list:
    """Reference times to take after an operation that ran for seconds."""
    return [reference() for _ in range(max(1, round(seconds / SAMPLE_EVERY_S)))]


def rescale(seconds: float, samples: list) -> float:
    """seconds measured while reference() took samples, as on the reference host."""
    return seconds * REFERENCE_S / statistics.median(samples)
