"""A fixed probe of the machine's current speed, and the scale that turns a
measured time into seconds at the reference speed.

On a shared host the speed of a core drifts by tens of percent over tens
of seconds, in CPU time as much as in wall time, so two runs of the same
code can differ by more than any change worth measuring. The probe is a
fixed mix of the kinds of work irkprec does (a sparse LU factorisation
and solve, sparse matrix-vector products and vector updates, and a sweep
over an array larger than a core's private caches) that never calls
irkprec, so no change to the library changes it. A workload pass times the probe before every library
call it makes and after its last one; each call's time is multiplied by
REFERENCE_PROBE_S over the mean of the probe times on either side of it.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Median probe time on the reference machine (2 vCPUs of a shared x86_64
# host, scipy-openblas 0.3.31, one BLAS thread); scaled times are
# seconds at that machine's median speed.
REFERENCE_PROBE_S = 0.010
REPEATS = 5


def _laplacian(n):
    """Five-point Laplacian on an n x n grid (CSC)."""
    ones = np.ones(n - 1)
    T = sp.diags([-ones, 4.0 * np.ones(n), -ones], [-1, 0, 1])
    S = sp.diags([-ones, -ones], [-1, 1])
    return (sp.kron(sp.eye(n), T) + sp.kron(S, sp.eye(n))).tocsc()


class SpeedProbe:
    def __init__(self):
        self.small = _laplacian(40)
        self.large = _laplacian(160).tocsr()
        self.b = np.linspace(1.0, 2.0, self.small.shape[0])
        self.x = np.linspace(1.0, 2.0, self.large.shape[0])
        self.sweep = np.linspace(0.0, 1.0, 2_000_000)      # 16 MB
        self.measure()

    def _once(self):
        t0 = time.perf_counter()
        spla.splu(self.small).solve(self.b)
        x = self.x
        for _ in range(6):
            x = self.large @ x
            x *= 1.0 / np.linalg.norm(x)
        self.sweep.sum()
        return time.perf_counter() - t0

    def measure(self):
        """Seconds of one probe: the median of a few repeats, so that a
        single preempted repeat does not count."""
        return sorted(self._once() for _ in range(REPEATS))[REPEATS // 2]
