"""A fixed speed probe that normalises timings to a reference machine speed.

The shared 2-vCPU virtual machine the benchmark was tuned on changes speed
by up to 1.7x over minutes, as other tenants of its host come and go; a
25-second run cannot average that out, and runs a few minutes apart disagree
by more than any useful bound.  The probe is a fixed mix of interpreter, small-array
numpy, ``ndtri`` and memory-streaming work that calls no marginlab code, so
no change to the package moves it.  A timing multiplied by ``factor()``
measured next to it reads as the time on a machine where the probe takes
``PROBE_REF_S``.  Over five 25-second runs of ``online``, the quartile spread
of ops/s was 0.154 raw and 0.025 normalised.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.special import ndtri

#: Probe seconds at the reference speed, a typical reading on that machine.
PROBE_REF_S = 0.005


class SpeedProbe:
    """Times the fixed probe; owns its input arrays (about 2.6 MB)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal(256)
        self._uniform = rng.random(1 << 16)
        self._stream = rng.standard_normal(1 << 18)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(7_000):
            acc += k * k
        for _ in range(130):
            acc += float(np.max(np.abs(self._small * 1.0001 + 0.5)))
        acc += float(ndtri(self._uniform).sum())
        for _ in range(6):
            acc += float(self._stream.sum())
        return time.perf_counter() - t0

    def factor(self, repeats: int = 1) -> float:
        """``PROBE_REF_S`` over the median probe time of ``repeats`` runs."""
        return PROBE_REF_S / statistics.median(self.seconds() for _ in range(repeats))
