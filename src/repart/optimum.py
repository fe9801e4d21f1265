"""Exact offline optimum for tiny instances.

The optimum is the work function of a metrical task system over labeled
valid mappings (exactly k nodes per cluster, clusters distinguishable):
moving between mappings costs the number of nodes assigned differently,
and serving a request costs 1 when its endpoints sit in different
clusters under the current mapping, else 0. Moves happen before the
request they precede; the result is the exact optimum and the
denominator of empirical competitive ratios.

The DP runs over unlabeled balanced partitions (l blocks of k nodes),
which is exact by two facts.

(1) Quotient. For partitions P and Q let d(P, Q) = n - max over label
bijections s of sum_c |P_c & Q_s(c)|. Relabeling both mappings by the
same bijection keeps their Hamming distance, so for every labeling i of
P the nearest labeling of Q is at distance exactly d(P, Q). A request's
cost depends only on the partition. Write W_t for the labeled work
function after t requests and L_t(Q) for the minimum of W_t over the
labelings of Q. Then L_0 = d(P_0, .) for the initial partition P_0, and

    L_{t+1}(Q) = min_{j in Q} min_i W_t(i) + ham(i, j) + c(Q)
               = min_P L_t(P) + d(P, Q) + c(Q),

so the DP over partitions under d yields the labeled DP's minimum over
each partition's labelings, and both end at the same optimum. In terms
of plays: a labeled play projects to a partition play that costs no
more, and a partition play lifts to a labeled one of the same cost by
relabeling each next partition to best match the current labels. The
states drop from l^n label vectors to n!/((k!)^l l!) partitions: 105 at
k=2 l=4, 280 at k=3 l=3.

(2) Shortcut. d is a metric. It is symmetric with d(P, P) = 0, and for
partitions P, Q, R take a labeling p of P, the labeling q of Q nearest
p, and the labeling r of R nearest q: then
d(P, R) <= ham(p, r) <= d(P, Q) + d(Q, R).
Let G_t = min_P L_t(P) + d(P, .), the work function after the move
that precedes request t+1, with G_0 = L_0. Each term L_t(P) + d(P, .)
is 1-Lipschitz by the triangle inequality, and so is their minimum:
G_t(P) + d(P, Q) >= G_t(Q). Hence

    G_{t+1}(Q) = min_P G_t(P) + c(P) + d(P, Q)

lies between G_t(Q) and G_t(Q) + c(Q) (take P = Q). A partition that
keeps the request's endpoints together (c = 0) keeps its value. A
partition that splits them gains 1, unless some together P has
G_t(P) + d(P, Q) = G_t(Q); a split P cannot reach it, as it pays
c(P) = 1 on top. So each request compares the split partitions only
with the together ones, 90 x 15 at k=2 l=4, and OPT is the minimum of
G after the last request.

The tables are built once per (k, l): the canonical labelings (blocks
named in order of first appearance), an index from every valid labeled
mapping to its partition, and d between all partitions. Only d's row
of the block partition is solved as an assignment over the l! label
bijections. d is invariant under node permutations, so the row of any
other partition P is that row carried by a node permutation taking the
block partition to P.

The phase certificates need no DP: some valid mapping keeps every
request of a range inside one cluster exactly when the components the
range's requests form pack into l clusters of k, the test that also
ends the online algorithm's phases. So only opt_cost is guarded at
n <= OPT_N_GUARD.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from operator import add, itemgetter
from typing import NamedTuple

from .configs import demand_packable
from .errors import InputError, ResourceLimitError
from .model import ComponentPartition, Instance, Mapping, validate_request

OPT_N_GUARD = 9


def opt_guard(instance: Instance) -> None:
    """Refuse instances past OPT_N_GUARD, before any work is spent."""
    if instance.n > OPT_N_GUARD:
        raise ResourceLimitError(
            f"offline optimum guarded at n <= {OPT_N_GUARD}, got n={instance.n}"
        )


class _Partitions(NamedTuple):
    parts: list  # canonical labelings, lexicographic; parts[0] is the block partition
    index: dict  # every valid labeled mapping (tuple) -> its partition's position
    dist: list  # dist[i][j] = d(parts[i], parts[j]), rows as bytes
    # (u, v) -> (together, split): the positions keeping u and v in one
    # block, and per splitting position q the pair (q, its d to each together one)
    sides: dict


def _canonical_labelings(k: int, l: int) -> list:
    """Labelings of k*l nodes with l blocks of k, blocks named by first appearance."""
    n = k * l
    found = []
    labels = [0] * n
    counts = [0] * l

    def extend(node: int, named: int) -> None:
        if node == n:
            found.append(tuple(labels))
            return
        for c in range(min(named + 1, l)):
            if counts[c] < k:
                labels[node] = c
                counts[c] += 1
                extend(node + 1, max(named, c + 1))
                counts[c] -= 1

    extend(0, 0)
    return found


@lru_cache(maxsize=None)  # unbounded is safe: few (k, l) pass the guard
def _partitions(k: int, l: int) -> _Partitions:
    n = k * l
    parts = _canonical_labelings(k, l)
    bijections = list(permutations(range(l)))
    index = {
        tuple(s[c] for c in part): i for i, part in enumerate(parts) for s in bijections
    }
    block = parts[0]

    def block_distance(part):
        overlap = [[0] * l for _ in range(l)]
        for a, b in zip(block, part):
            overlap[a][b] += 1
        kept = max(sum(row[s[c]] for c, row in enumerate(overlap)) for s in bijections)
        return n - kept

    block_row = [block_distance(part) for part in parts]
    dist = []
    for part in parts:
        # carry relabels nodes by a permutation that takes part to the
        # block partition, which leaves d unchanged
        carry = itemgetter(*sorted(range(n), key=part.__getitem__))
        dist.append(bytes([block_row[index[carry(q)]] for q in parts]))
    sides = {}
    for u, v in combinations(range(n), 2):
        together = [i for i, part in enumerate(parts) if part[u] == part[v]]
        split = [
            (q, bytes(map(dist[q].__getitem__, together)))
            for q, part in enumerate(parts)
            if part[u] != part[v]
        ]
        sides[u, v] = sides[v, u] = (together, split)
    return _Partitions(parts, index, dist, sides)


def _checked_requests(instance: Instance, requests) -> list:
    requests = list(requests)
    for r in requests:
        validate_request(instance, r)
    return requests


def opt_cost(instance: Instance, initial: Mapping, requests) -> int:
    """Minimum total communication + migration over all offline plays."""
    opt_guard(instance)
    requests = _checked_requests(instance, requests)
    if initial.instance != instance:
        raise InputError(
            f"initial mapping is for {initial.instance}, not {instance}"
        )
    if instance.k == 1:
        # singleton clusters: every request is inter-cluster under every
        # mapping and moving nodes never changes that
        return len(requests)
    tables = _partitions(instance.k, instance.l)
    work = list(tables.dist[tables.index[tuple(initial.as_list())]])
    for r in requests:
        together, split = tables.sides[r.u, r.v]
        near = [work[p] for p in together]
        for q, gaps in split:
            if min(map(add, near, gaps)) > work[q]:
                work[q] += 1
    return min(work)


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
        grown = any(partition.merge(r.u, r.v) > k for r in requests[start:end])
        results.append(grown or not demand_packable(partition.demand(k), k))
    return results
