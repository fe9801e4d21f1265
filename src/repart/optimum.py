"""Exact offline optimum for tiny instances.

The optimum is the work function of a metrical task system over labeled
valid mappings (exactly k nodes per cluster, clusters distinguishable):
moving between mappings costs the number of nodes assigned differently,
and serving a request costs 1 when its endpoints sit in different
clusters under the current mapping, else 0. Moves happen before the
request they precede; the result is the exact optimum and the
denominator of empirical competitive ratios.

The DP runs over the full label grid [l]^n, one axis per node, so no
mapping is enumerated and no pairwise distance is stored. The Hamming
transition min_i W(i) + |{v : i_v != j_v}| separates by node: one
min-plus step along each axis is an exact distance transform (the
discrete case of Felzenszwalb & Huttenlocher). Label vectors without
exactly k nodes per cluster are set back to infinity after every
transition, so moves may pass through them but the play may not rest
on them.

Mappings are deliberately not quotiented by cluster relabeling: the
move metric depends on concrete cluster identities.

The phase certificates need no grid: some valid mapping keeps every
request of a range inside one cluster exactly when the components the
range's requests form pack into l clusters of k, the test that also
ends the online algorithm's phases. So only opt_cost is guarded at
n <= OPT_N_GUARD, and only it uses numpy, which it imports on first
use: importing numpy with the package would double the package's
import time and memory.
"""

from __future__ import annotations

from functools import lru_cache

from .configs import demand_packable
from .errors import InputError, ResourceLimitError
from .model import ComponentPartition, Instance, Mapping, validate_request

OPT_N_GUARD = 9


def _guard(instance: Instance) -> None:
    if instance.n > OPT_N_GUARD:
        raise ResourceLimitError(
            f"offline optimum guarded at n <= {OPT_N_GUARD}, got n={instance.n}"
        )


def _labels(instance: Instance) -> tuple:
    """Per node, the cluster labels 0..l-1 laid along that node's grid axis."""
    import numpy as np

    return np.ix_(*[np.arange(instance.l)] * instance.n)


@lru_cache(maxsize=None)  # unbounded is safe: few (k, l) pass the guard
def _valid_mask(k: int, l: int):
    """Read-only bool grid over [l]^n: True where every cluster holds k nodes."""
    import numpy as np

    labels = _labels(Instance(k, l))
    mask = np.ones((l,) * (k * l), dtype=bool)
    for c in range(l):
        count = np.zeros_like(mask, dtype=np.int8)
        for axis in labels:
            count += axis == c
        mask &= count == k
    mask.flags.writeable = False
    return mask


def _checked_requests(instance: Instance, requests) -> list:
    requests = list(requests)
    for r in requests:
        validate_request(instance, r)
    return requests


def opt_cost(instance: Instance, initial: Mapping, requests) -> int:
    """Minimum total communication + migration over all offline plays."""
    import numpy as np

    _guard(instance)
    requests = _checked_requests(instance, requests)
    if initial.instance != instance:
        raise InputError(
            f"initial mapping is for {initial.instance}, not {instance}"
        )
    if instance.k == 1:
        # singleton clusters: every request is inter-cluster under every
        # mapping and moving nodes never changes that
        return len(requests)
    labels = _labels(instance)
    invalid = ~_valid_mask(instance.k, instance.l)
    work = np.full((instance.l,) * instance.n, np.inf)
    work[tuple(initial.as_list())] = 0.0
    for r in requests:
        for v in range(instance.n):
            np.minimum(work, work.min(axis=v, keepdims=True) + 1, out=work)
        np.copyto(work, np.inf, where=invalid)
        work += labels[r.u] != labels[r.v]
    return int(work.min())


def opt_per_phase_lower_bound(instance: Instance, requests, phase_ranges) -> list:
    """One boolean per range: does every mapping split some request in it?

    True certifies that any offline strategy pays at least 1 inside the
    range (communication if it never moves, a move otherwise). It holds
    when the components the range's requests form do not pack: one of
    them outgrows k, or their size demand fills no l clusters of k.
    """
    requests = _checked_requests(instance, requests)
    k = instance.k
    results = []
    for start, end in phase_ranges:
        if not 0 <= start <= end <= len(requests):
            raise InputError(
                f"phase range ({start}, {end}) outside 0..{len(requests)}"
            )
        partition = ComponentPartition(instance.n)
        grown = any(partition.merge(r.u, r.v).size > k for r in requests[start:end])
        results.append(grown or not demand_packable(partition.demand(k), k))
    return results
