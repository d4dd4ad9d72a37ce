"""A fixed computation, independent of cpdyn, timed between rounds to
measure how fast the host runs at that moment.

The host this benchmark was written on runs up to twice as slow for
stretches of seconds to minutes, as the machines it shares load it; process
CPU time slows with wall time, so the process is not waiting but computing
more slowly.  A round's wall time divided by the yardstick's time next to it
cancels that factor and keeps the cost that belongs to cpdyn.

The yardstick mixes kinds of work the workloads do: interpreted Python,
small LAPACK calls, a mid-size SVD, matrix product and Kronecker product.
On a 2-core Xeon host with one BLAS thread, a pass takes 15-20 ms, of which
the SVD and the product take about 13 ms, the Python loop 4 ms and the
small `eigvalsh` calls 1.4 ms.  It allocates at most about 1 MB at a time;
with the library code it pages in, it adds about 4 MB to `peak_rss_mb`.
Its inputs are fixed, so it does the same work in every run and every
checkout, whatever the seed.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20160601)


def _hermitian(n: int) -> np.ndarray:
    a = _rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))
    return a + a.conj().T


_SMALL = [_hermitian(16) for _ in range(8)]
_MID = _hermitian(128)
_PRODUCT = _rng.standard_normal((256, 256)) + 0j
_KRON = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))


def _one_pass():
    total = 0
    for i in range(3000):
        entry = {"k": i, "v": [i, i + 1]}
        total += len(str(entry["v"]))
    for _ in range(4):
        for h in _SMALL:
            np.linalg.eigvalsh(h)
    np.linalg.svd(_MID)
    _PRODUCT @ _PRODUCT
    np.kron(_KRON, _KRON.conj())


def yardstick(budget: float = 0.0) -> float:
    """Mean seconds per pass of the fixed computation, over as many passes
    as fit in `budget` seconds, and at least one.  A single pass jitters by
    a tenth or more; a budget in proportion to the round
    it stands next to keeps that jitter small beside long rounds."""
    passes, t0 = 0, time.perf_counter()
    while True:
        _one_pass()
        passes += 1
        spent = time.perf_counter() - t0
        if spent >= budget:
            return spent / passes
