"""Host-speed probe for the nevpick benchmark.

Other tenants of a shared host slow it by up to twofold for minutes at a
time, which moves raw wall times between runs by more than the bounds in
``BENCHMARK.json``.  The benchmark therefore precedes each timed operation
with a probe run and reports the operation's time scaled by
``PROBE_REF_S / probe``: as it would read on a host where the probe takes
``PROBE_REF_S``.  The probe does not call nevpick, so a change to the
program cannot move it, and it mixes the same kinds of work as the
workloads: small dense solves and polynomial roots (the path following), a
recursive filter (ingestion) and a dense solve of a few megabytes (the
Kronecker Stein solve at large orders), so that contention for caches and
memory shows in the probe as it does in the items.
"""

import statistics
import time

import numpy as np
from scipy.signal import lfilter

# the probe's duration on the host the benchmark was tuned on (2 vCPUs of an
# Intel Xeon virtual machine)
PROBE_REF_S = 6.0e-3


class HostProbe:
    """A fixed computation whose duration tracks the speed of the host."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._A = rng.standard_normal((10, 10)) + 10.0 * np.eye(10)
        self._b = rng.standard_normal(10)
        self._x = rng.standard_normal(20_000)
        self._K = rng.standard_normal((400, 400)) + 40.0 * np.eye(400)
        self.samples: list[float] = []

    def __call__(self, repeats: int = 1) -> float:
        """Median duration of ``repeats`` probe runs, in seconds."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for k in range(50):
                x = np.linalg.solve(self._A, self._b + k)
                np.roots(np.concatenate(([1.0], x[:6])))
            lfilter([1.0], [1.0, -0.7], self._x)
            np.linalg.solve(self._K, self._x[:400])
            times.append(time.perf_counter() - start)
        self.samples += times
        return statistics.median(times)
