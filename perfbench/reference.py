"""A fixed piece of reference work that does not touch tnn.

The machines this runs on change speed by a fifth to a half within seconds
(shared cores and memory; the work itself runs slower, it is not stolen
time), and code of different kinds slows by different amounts.  Timing this
reference between groups of operations measures the machine's current
speed, and the operations' time divided by it moves with the library rather
than the machine.  It mixes, in about equal time, the kinds of work the
library does: a Python heap loop, batched small SVDs and einsums, a
256 x 256 matrix product, and a 16 MB vector streamed from memory.  Weighting
them equally kept the ratio's spread near 10% for every operation kind
tried (branch-and-bound, sandwich, dense and power-iteration RPCA), where
any single kind left some operation at 14-18%.
"""

import heapq
import time

import numpy as np

_rng = np.random.default_rng(20240817)
_BATCH = _rng.standard_normal((64, 4, 6))
_MATRIX = _rng.standard_normal((256, 256))
_VECTOR = _rng.standard_normal(2_000_000)


def reference_work():
    total = 0.0
    for _ in range(12):
        heap = []
        for i in range(400):
            heapq.heappush(heap, ((i * 7919) % 1009, i))
        while heap:
            total += heapq.heappop(heap)[0]
    for _ in range(12):
        total += float(np.linalg.svd(_BATCH, compute_uv=False)[:, 0].sum())
        total += float(np.einsum("zab,zcb->zac", _BATCH, _BATCH).sum())
    for _ in range(5):
        total += float((_MATRIX @ _MATRIX)[0, 0])
    for _ in range(10):
        total += float(_VECTOR @ _VECTOR)
    return total


def time_reference():
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
