"""Problem instance, node-to-cluster mapping, communication components,
and exact cost accounting.

An instance has n = k * l nodes, l clusters, exactly k nodes per cluster.
Components are the connected components of the requests seen so far in
the current phase; between requests every component lives entirely
inside one cluster.

Mappings keep the node set of each cluster. Partitions keep each
node's root label, the member list of each component of two or more
nodes and the number of components of each size, so reading one
cluster or one component never scans all n nodes, and starting a phase
builds no per-node containers. The cost ledger keeps one row per phase,
with the request index that opened it; the engine writes the rows by
folding in each outcome it returns, and nothing else changes them.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError, InvariantViolation, ResourceLimitError

MAX_NODES = 1 << 20


@dataclass(frozen=True)
class Instance:
    """k nodes per cluster, l clusters, n = k * l <= MAX_NODES nodes."""

    k: int
    l: int

    def __post_init__(self):
        # type(), not isinstance(): a bool is an int, not a size
        if type(self.k) is not int or type(self.l) is not int:
            raise InputError(f"k and l must be integers, got ({self.k!r}, {self.l!r})")
        if self.k < 1:
            raise InputError(f"nodes per cluster must be >= 1, got {self.k}")
        if self.l < 2:
            raise InputError(f"cluster count must be >= 2, got {self.l}")
        if self.k * self.l > MAX_NODES:
            raise ResourceLimitError(
                f"n = k * l = {self.k * self.l} exceeds the instance guard ({MAX_NODES})"
            )

    @property
    def n(self) -> int:
        return self.k * self.l


@dataclass(frozen=True, slots=True)
class Request:
    """One pairwise communication request between two distinct nodes."""

    u: int
    v: int

    def __post_init__(self):
        # type(), not isinstance(): a bool is an int, not a node id
        if type(self.u) is not int or type(self.v) is not int:
            raise InputError(f"node ids must be integers, got ({self.u!r}, {self.v!r})")
        if self.u == self.v:
            raise InputError(f"request endpoints must differ, got ({self.u}, {self.v})")
        if self.u < 0 or self.v < 0:
            raise InputError(f"node ids must be nonnegative, got ({self.u}, {self.v})")


def validate_request(instance: Instance, request: Request) -> None:
    if request.u >= instance.n or request.v >= instance.n:
        raise InputError(
            f"request ({request.u}, {request.v}) out of range for n={instance.n}"
        )


class Mapping:
    """Assignment of nodes to clusters with exactly k nodes per cluster.

    move() performs a single unchecked reassignment. The engine checks
    that each cluster a batch of moves changed holds k nodes again
    (Engine._refresh); is_valid() rechecks every cluster, and audit()
    runs it.
    """

    __slots__ = ("instance", "_assign", "_nodes")

    def __init__(self, instance: Instance, assignment):
        assign = list(assignment)
        if len(assign) != instance.n:
            raise InputError(
                f"mapping length {len(assign)} != n={instance.n}"
            )
        counts = [0] * instance.l
        for node, cluster in enumerate(assign):
            # type(), not isinstance(): a bool is an int, not a cluster id
            if type(cluster) is not int or not 0 <= cluster < instance.l:
                raise InputError(f"node {node} mapped to invalid cluster {cluster!r}")
            counts[cluster] += 1
        if any(c != instance.k for c in counts):
            raise InputError(f"cluster sizes {counts} != {instance.k} everywhere")
        self.instance = instance
        self._assign = assign
        self._nodes = [set() for _ in range(instance.l)]
        for node, cluster in enumerate(assign):
            self._nodes[cluster].add(node)

    @classmethod
    def _unchecked(cls, instance: Instance, assign: list, nodes: list) -> "Mapping":
        """A mapping from parts already known to be valid."""
        mapping = cls.__new__(cls)
        mapping.instance, mapping._assign, mapping._nodes = instance, assign, nodes
        return mapping

    @classmethod
    def default(cls, instance: Instance) -> "Mapping":
        # node i starts in cluster i // k
        k = instance.k
        assign = [i // k for i in range(instance.n)]
        nodes = [set(range(j * k, j * k + k)) for j in range(instance.l)]
        return cls._unchecked(instance, assign, nodes)

    def cluster_of(self, node: int) -> int:
        return self._assign[node]

    def nodes_in(self, cluster: int) -> list:
        return sorted(self._nodes[cluster])

    def move(self, node: int, cluster: int) -> None:
        self._nodes[self._assign[node]].discard(node)
        self._nodes[cluster].add(node)
        self._assign[node] = cluster

    def as_list(self) -> list:
        return list(self._assign)

    def copy(self) -> "Mapping":
        nodes = [members.copy() for members in self._nodes]
        return Mapping._unchecked(self.instance, self._assign.copy(), nodes)

    def is_valid(self) -> bool:
        counts = [0] * self.instance.l
        for cluster in self._assign:
            if not 0 <= cluster < self.instance.l:
                return False
            counts[cluster] += 1
        return all(c == self.instance.k for c in counts)

    def __eq__(self, other):
        return isinstance(other, Mapping) and self._assign == other._assign

    def __repr__(self):
        return f"Mapping({self._assign})"


@lru_cache(maxsize=8)
def _identity(n: int) -> tuple:
    """0..n-1, kept so that every fresh label list of n nodes shares one
    set of int objects instead of allocating and freeing n of them."""
    return tuple(range(n))


class ComponentPartition:
    """Root label per node plus the member list of each non-singleton
    component.

    A merge keeps the root of the larger component, ties going to the
    smaller root id, so the partition evolution is reproducible. It
    appends the smaller member list to the larger one and relabels the
    nodes it appended, so a node is relabeled O(log n) times per phase.

    Only components of size >= 2 have a member list; a root without one
    is a singleton, read as [root]. A fresh or reset partition is the
    label list and the size counts, a constant number of containers
    whatever n is. member_lists() and components() build every
    component and cost O(n): audits, the merge-chain adversary and
    tests call them, the engine's serve path never does.
    """

    def __init__(self, n: int):
        if n < 1:
            raise InputError(f"need at least one node, got {n}")
        self.n = n
        self.reset()

    def reset(self) -> None:
        self._root = list(_identity(self.n))
        self._members = {}  # root -> member list, components of size >= 2
        # _size_counts[s]: components of size s
        self._size_counts = [0] * (self.n + 1)
        self._size_counts[1] = self.n

    def find(self, u: int) -> int:
        if not 0 <= u < self.n:
            raise InputError(f"node id {u} out of range for n={self.n}")
        return self._root[u]

    @staticmethod
    def union_root(ru: int, su: int, rv: int, sv: int) -> int:
        """Root kept when roots ru and rv, of sizes su and sv, merge."""
        return ru if su > sv or (su == sv and ru < rv) else rv

    def merge(self, u: int, v: int) -> int:
        """Join the components of u and v; returns the joined size."""
        ru, rv = self.find(u), self.find(v)
        a = self._list(ru)
        if ru == rv:
            return len(a)
        b = self._list(rv)
        sa, sb = len(a), len(b)
        keep = self.union_root(ru, sa, rv, sb)
        kept, gone, gone_root = (a, b, rv) if keep == ru else (b, a, ru)
        self._members.pop(gone_root, None)
        for node in gone:
            self._root[node] = keep
        kept.extend(gone)
        self._members[keep] = kept
        self._size_counts[sa] -= 1
        self._size_counts[sb] -= 1
        self._size_counts[sa + sb] += 1
        return sa + sb

    def _list(self, root: int) -> list:
        return self._members.get(root) or [root]

    def size_of(self, u: int) -> int:
        return len(self._list(self.find(u)))

    def members(self, u: int) -> list:
        """Members of u's component, in merge order; do not mutate."""
        return self._list(self.find(u))

    def member_lists(self) -> dict:
        """root -> member list of every component, roots in ascending
        order; O(n). Do not mutate the lists."""
        return {
            root: self._list(root)
            for root, label in enumerate(self._root)
            if root == label
        }

    def demand(self, k: int) -> tuple:
        """Component counts by size 1..k (entry s - 1 counts size s)."""
        return tuple(self._size_counts[1 : k + 1])

    def components(self) -> dict:
        """root -> sorted member list, roots in ascending order.

        Rebuilt from the root labels alone, so it can check the kept
        member lists.
        """
        out: dict = {}
        for node, root in enumerate(self._root):
            out.setdefault(root, []).append(node)
        return dict(sorted(out.items()))


class ClusterCensus:
    """Size-count vector of every cluster, kept up to date by its owner.

    counts[j][s - 1] is the number of size-s components in cluster j;
    clusters_with maps each count vector (a configuration) to the sorted
    ids of the clusters holding it. A fresh census is the start of a
    phase: k singletons in every cluster.
    """

    def __init__(self, instance: Instance):
        start = (instance.k,) + (0,) * (instance.k - 1)
        self.counts = [start] * instance.l
        self.clusters_with = {start: list(range(instance.l))}

    def set(self, cluster: int, counts: tuple) -> None:
        old = self.counts[cluster]
        if old == counts:
            return
        ids = self.clusters_with[old]
        del ids[bisect_left(ids, cluster)]
        if not ids:
            del self.clusters_with[old]
        insort(self.clusters_with.setdefault(counts, []), cluster)
        self.counts[cluster] = counts


def component_size_census(partition: ComponentPartition, mapping: Mapping) -> tuple:
    """Sizes of the components in each cluster, largest first.

    Raises InvariantViolation on a component that spans clusters.
    """
    per_cluster = [[] for _ in range(mapping.instance.l)]
    for root, members in partition.components().items():
        clusters = {mapping.cluster_of(m) for m in members}
        if len(clusters) != 1:
            raise InvariantViolation(
                f"component {root} spans clusters {sorted(clusters)}"
            )
        per_cluster[clusters.pop()].append(len(members))
    return tuple(tuple(sorted(sizes, reverse=True)) for sizes in per_cluster)


@dataclass
class PhaseRow:
    """Costs of one phase; its phase number is its index in the ledger."""

    start: int = 0  # index of the request that opened the phase
    communication: int = 0
    migration: int = 0
    remap_events: int = 0
    max_affected: int = 0

    @property
    def cost(self) -> int:
        return self.communication + self.migration


class CostLedger:
    """Exact per-phase costs, one row per phase, the open phase last.

    The engine folds each served outcome into the rows
    (Engine._fold); totals are sums over rows.
    """

    def __init__(self):
        self.rows = [PhaseRow()]

    @property
    def communication(self) -> int:
        return sum(r.communication for r in self.rows)

    @property
    def migration(self) -> int:
        return sum(r.migration for r in self.rows)

    @property
    def total(self) -> int:
        return self.communication + self.migration
