"""Machine-speed calibration: a fixed numpy kernel timed between the items.

On a shared host, neighbours can slow a core by a third for minutes at a
time, longer than a run. The reference kernel calls no staralg code, so no
change to the package moves it: its time measures only the machine. Its mix
is the package's: small complex einsum products, and svd and eig on small
complex matrices. Reported latencies are the measured ones scaled by
REFERENCE_S over the kernel's best time in the run.
"""

import time

import numpy as np

# Best time of the kernel within a run on an idle 2-CPU Xeon VM, one BLAS
# thread, numpy 2.4.6: reported times are scaled to that machine.
REFERENCE_S = 0.0039
# Sample the kernel once per this much item time.
SAMPLE_EVERY_S = 0.1


class Calibration:
    """Samples of the reference kernel, taken between items."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._c = rng.standard_normal((12, 12, 12)) + 1j * rng.standard_normal((12, 12, 12))
        self._v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        self._m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.samples = []
        self._since = 0.0

    def kernel(self):
        c, v, m = self._c, self._v, self._m
        t0 = time.perf_counter()
        for _ in range(200):
            np.einsum("i,j,ijk->k", v, v, c)
        for _ in range(10):
            np.linalg.svd(m)
            np.linalg.eig(m)
        return time.perf_counter() - t0

    def sample(self):
        self._since = 0.0
        self.samples.append(self.kernel())

    def after_item(self, latency):
        """Sample the kernel once per SAMPLE_EVERY_S of item time."""
        self._since += latency
        if self._since >= SAMPLE_EVERY_S:
            self.sample()

    def slowdown(self):
        """Best kernel time in this run over REFERENCE_S: 1.0 on a quiet host."""
        return min(self.samples) / REFERENCE_S
