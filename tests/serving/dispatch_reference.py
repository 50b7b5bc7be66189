"""The batch loop of ``ServingPlane._dispatch`` without the lone-request
fast path: every batch, one request or several, goes through the
``bisect_right`` search.  The plane's dispatch must match it exactly."""

from __future__ import annotations

from bisect import bisect_right
from heapq import heapreplace

import numpy as np


def reference_dispatch(plane, t1: float) -> "tuple[np.ndarray, int]":
    """``plane._dispatch(t1)``, spelled as one search per batch."""
    arrivals = plane.arrivals.arrivals_h[plane._head:plane._admitted]
    window = arrivals.tolist()
    size = len(window)
    served = np.ones(size, dtype=bool)
    heap, batch_h = plane._heap, plane._batch_h
    shed_h = plane.shed_after_s / 3600.0
    max_batch = plane.service.max_batch
    window_end = t1 - 1e-12
    dones, sizes, socs = [], [], []
    i = 0
    if not heap:
        while i < size and t1 - window[i] > shed_h:
            i += 1
        served[:i] = False
    while heap and i < size:
        free, soc = heap[0]
        arrived = window[i]
        start = free if free > arrived else arrived
        if start >= window_end:
            break
        if start - arrived > shed_h:
            j = i + 1
            while j < size and start - window[j] > shed_h:
                j += 1
            served[i:j] = False
            i = j
            if i >= size:
                break
            arrived = window[i]
            start = free if free > arrived else arrived
            if start >= window_end:
                break
        stop = i + max_batch
        n = bisect_right(window, start + 1e-12, i,
                         stop if stop < size else size) - i
        done = start + batch_h[n]
        heapreplace(heap, (done, soc))
        dones.append(done)
        sizes.append(n)
        socs.append(soc)
        i += n
    plane._head += i

    latencies_ms = (np.repeat(np.array(dones), sizes)
                    - arrivals[:i][served[:i]]) * 3_600_000.0
    top = max(plane.replicas, default=-1) + 1
    batches = np.bincount(socs, minlength=top)
    requests = np.bincount(socs, weights=sizes, minlength=top)
    for free, soc in heap:
        replica = plane.replicas[soc]
        replica.free_hour = free
        replica.batches += int(batches[soc])
        replica.requests_served += int(requests[soc])
    return latencies_ms, i - len(latencies_ms)
