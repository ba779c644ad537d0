"""A fixed reference computation that measures how fast this CPU is right now.

On a shared host the same call set can take 3.6 s in one minute and 6.6 s
in the next: the machine moves between faster and slower phases that last
from seconds to minutes, far longer than a benchmark run can average out.
CPU time grows with wall time in the slow phases (their ratio stays
~0.99), so the slowdown is in execution speed, not in waiting for a CPU.

`probe()` runs a fixed mix of the work corridorsim does: a scalar
complex-phasor loop like the stage-1 scan-gain closure, and small numpy
array operations like the evaluator's. It belongs to the benchmark, so a
change to corridorsim never changes it. `wall_s` scales each call set's wall
time by REFERENCE_S over the mean of the probes run just before and just
after it. That gives the call set's wall time at the speed where the probe
takes REFERENCE_S. On a logged four-minute series of 44 `comparison` call
sets, probe time and call-set time correlated at 0.90, and the spread
(interquartile range over median) of the medians of 5 consecutive sets fell
from 38% raw to 7% scaled.

`import_probe()` does the same for `setup_s`. The in-process probe tracks
set-up time poorly (a fresh interpreter mostly starts, reads files and
unmarshals code), so each set-up is scaled by a fresh interpreter that
imports numpy and scipy.optimize, timed just before it. On a logged
ten-minute series of 359 such pairs, the spread of the medians of 5
consecutive set-ups fell from 16% raw to 7% scaled, and of 7 from 14% to 4%.
Scaling by the in-process probe instead gave 19% and 13%.
"""

from __future__ import annotations

import cmath
import math
import subprocess
import sys
import time

import numpy as np

# About the probe's time in a fast phase of a 2-vCPU Intel Xeon VM with
# Python 3.11.7 and numpy 2.4.6; it only sets the scale of `wall_s`.
REFERENCE_S = 0.1
# The same for import_probe(); it only sets the scale of `setup_s`.
IMPORT_REFERENCE_S = 0.6
IMPORT_CODE = "import numpy, scipy.optimize"

_COEFFS = [complex(0.3, 0.1 * k) for k in range(4)]
_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((64, 16)) + 1j * _rng.standard_normal((64, 16))


def probe() -> float:
    """Seconds one pass of the reference computation takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60_000):
        step = 1.7 * math.sin(i * 1e-3)
        phasor = 0j
        for k, c in enumerate(_COEFFS):
            phasor += c * cmath.exp(1j * step * k)
        acc += math.log10(phasor.real * phasor.real + phasor.imag * phasor.imag + 1e-30)
    for _ in range(150):
        np.log10(np.maximum(np.abs(_MATRIX @ _MATRIX[0].conj()) ** 2, 1e-40))
    return time.perf_counter() - t0


def import_probe(env: dict, cwd, timeout: float) -> float:
    """Seconds a fresh interpreter takes now to import numpy and scipy.optimize."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_CODE], cwd=cwd, env=env, check=True,
        capture_output=True, timeout=timeout,
    )
    return time.perf_counter() - t0
