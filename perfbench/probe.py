"""Host speed probe: a fixed piece of work timed between ops.

The benchmark shares a few cores of a busy host, whose speed drifts by
up to a factor of two over a minute.  The probe is a frozen mix of the
work the afd ops do (scalar complex Horner loops in Python, small numpy
calls, FFTs, a dense mat-vec) and imports nothing from afd, so a change
to the program never moves it.  Its time between ops tracks the host's
speed for that kind of work; dividing an op's time by the local probe
time and multiplying by NOMINAL_S expresses the op in seconds on a host
running at nominal speed.
"""

import statistics
import time

import numpy as np

# probe time on a calm 2-vCPU 2.0 GHz Xeon; sets the scale of the
# normalized figures, not their spread
NOMINAL_S = 0.008
# probes on each side of an op that make its local speed estimate
HALF_WINDOW = 2

_K = np.arange(129)
_COEFFS = (1.0 + 0.5j * np.cos(_K)) / (1.0 + _K) ** 1.5
_POINTS = 0.9 * np.exp(2j * np.pi * np.arange(64) / 64)
_CIRCLE = np.exp(1j * np.linspace(0.0, 6.0, 4096))
_MATRIX = np.cos(np.outer(np.arange(256), np.arange(256)) * 0.01)


def work():
    acc = 0j
    for j in range(12):
        a = 0.3 + 0.05j * j
        for c in _COEFFS[::-1]:
            acc = acc * a + c
    for j in range(40):
        acc += np.polyval(_COEFFS, _POINTS * (1.0 - 0.001 * j)).sum()
    for _ in range(3):
        acc += np.fft.ifft(np.fft.fft(_CIRCLE) * _CIRCLE)[0]
    v = _CIRCLE[:256].real
    for _ in range(3):
        v = _MATRIX @ v
        v /= np.abs(v).max()
    return acc + v[0]


def measure():
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def normalize(times, probes):
    """Op times scaled to nominal host speed.

    `probes[i]` was taken just before op i and `probes[-1]` after the
    last op; op i's speed is the median of the probes within HALF_WINDOW
    of it, so one probe that a single interrupt slowed does not matter.
    """
    out = []
    for i, t in enumerate(times):
        lo = max(0, i - HALF_WINDOW + 1)
        local = statistics.median(probes[lo:i + HALF_WINDOW + 1])
        out.append(t * NOMINAL_S / local)
    return out
