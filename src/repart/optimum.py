"""Brute-force offline optimum for tiny instances.

Dynamic program over every labeled valid mapping (exactly k nodes per
cluster, clusters distinguishable). Transition cost between mappings is
the number of nodes assigned differently; serving a request costs 1
when its endpoints sit in different clusters under the current mapping,
else 0. Moves happen before the request they precede; the result is the
exact optimum and the denominator of empirical competitive ratios.

Mappings are deliberately not quotiented by cluster relabeling: the
move metric depends on concrete cluster identities.

numpy is imported by the functions that use it: only the optimum needs
it, and importing it with the package would double the package's import
time and memory.
"""

from __future__ import annotations

import threading

from .errors import InputError, ResourceLimitError
from .model import Instance, Mapping, validate_request

OPT_N_GUARD = 9


def _guard(instance: Instance) -> None:
    if instance.n > OPT_N_GUARD:
        raise ResourceLimitError(
            f"offline optimum guarded at n <= {OPT_N_GUARD}, got n={instance.n}"
        )


def enumerate_valid_mappings(instance: Instance) -> np.ndarray:
    """All valid assignment vectors as int8 rows, lexicographic order."""
    import numpy as np

    _guard(instance)
    k, l, n = instance.k, instance.l, instance.n
    rows = []
    assign = [0] * n
    counts = [0] * l

    def rec(i):
        if i == n:
            rows.append(assign.copy())
            return
        for c in range(l):
            if counts[c] < k:
                counts[c] += 1
                assign[i] = c
                rec(i + 1)
                counts[c] -= 1

    rec(0)
    return np.array(rows, dtype=np.int8)


_MAPS_CACHE: dict = {}
_DIST_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def _mappings(instance: Instance) -> np.ndarray:
    key = (instance.k, instance.l)
    with _CACHE_LOCK:
        maps = _MAPS_CACHE.get(key)
        if maps is None:
            maps = enumerate_valid_mappings(instance)
            _MAPS_CACHE[key] = maps
    return maps


def _distances(instance: Instance) -> np.ndarray:
    import numpy as np

    key = (instance.k, instance.l)
    with _CACHE_LOCK:
        dist = _DIST_CACHE.get(key)
    if dist is not None:
        return dist
    maps = _mappings(instance)
    s = len(maps)
    dist = np.empty((s, s), dtype=np.int16)
    step = max(1, (1 << 22) // (s * instance.n))  # cap chunk scratch at ~4MB
    for lo in range(0, s, step):
        hi = min(s, lo + step)
        dist[lo:hi] = (maps[lo:hi, None, :] != maps[None, :, :]).sum(
            axis=2, dtype=np.int16
        )
    with _CACHE_LOCK:
        _DIST_CACHE[key] = dist
    return dist


def opt_cost(instance: Instance, initial: Mapping, requests) -> int:
    """Minimum total communication + migration over all offline plays."""
    import numpy as np

    _guard(instance)
    requests = list(requests)
    for r in requests:
        validate_request(instance, r)
    if instance.k == 1:
        # singleton clusters: every request is inter-cluster under every
        # mapping and moving nodes never changes that
        return len(requests)
    maps = _mappings(instance)
    dist = _distances(instance)
    init = np.array(initial.as_list(), dtype=np.int8)
    cost = (maps != init).sum(axis=1).astype(np.int32)
    for r in requests:
        cost = (cost[:, None] + dist).min(axis=0)
        cost += (maps[:, r.u] != maps[:, r.v]).astype(np.int32)
    return int(cost.min())


def opt_per_phase_lower_bound(instance: Instance, requests, phase_ranges) -> list:
    """One boolean per range: does every mapping split some request in it?

    True certifies that any offline strategy pays at least 1 inside the
    range (communication if it never moves, a move otherwise).
    """
    import numpy as np

    _guard(instance)
    requests = list(requests)
    for r in requests:
        validate_request(instance, r)
    checked = []
    for start, end in phase_ranges:
        if not 0 <= start <= end <= len(requests):
            raise InputError(
                f"phase range ({start}, {end}) outside 0..{len(requests)}"
            )
        checked.append((start, end))
    if instance.k == 1:
        # any nonempty range qualifies: endpoints can never share a cluster
        return [end > start for start, end in checked]
    maps = _mappings(instance)
    results = []
    for start, end in checked:
        alive = np.ones(len(maps), dtype=bool)
        for idx in range(start, end):
            r = requests[idx]
            alive &= maps[:, r.u] == maps[:, r.v]
            if not alive.any():
                break
        results.append(not alive.any())
    return results
