"""Online engine: phases, component maintenance, minimal remapping.

The engine owns a mapping of n = l*k nodes into l clusters of exactly k
and a partition of nodes into components grown by requests. Between
requests every component lies inside one cluster. Serving (u, v):

* same component: free, nothing changes;
* different components, same cluster: merge, no cost;
* different clusters: pay 1 communication, merge, then either remap
  nodes so the merged component is co-located again (paying 1 per moved
  node) or, when no valid mapping can host the merged component family,
  reset all components to singletons and reprocess the request in the
  fresh phase (communication is not charged twice).

Remapping minimizes the number of clusters whose content changes.
comp-min finds the target census by a direct search that lets t = 0, 1,
... further clusters join the two merge participants and repacks them
(configs.min_affected_target); it picks the target the Graver-basis
scan would, and the Graver machinery only certifies it. comp-any skips
minimization and takes any valid target. _realize turns the target
census into moves one size class at a time: each affected cluster takes
the first open configuration that keeps the most of it and keeps its
lowest-root components of each size there, the merged component offered
last; the rest move, larger first, to the first affected cluster with
room.

A request is planned in full before anything changes, so a serve that
raises leaves the engine as it was; the plan is the RemapRecord that is
applied and kept. The planner alone decides a cross-cluster request: no
plan means the merged family cannot be hosted, so serve resets the
phase, and on the fresh phase (k = 1 only) the merge is dropped; a
planner that finds none for a size demand that packs is a fault. The
engine keeps the component size demand, each cluster's size-count
vector and the clusters of each configuration up to date, so a request
reads only the two components it joins and the clusters it changes. A
phase reset builds no container per node: it copies one shared label
tuple, zeroes n + 1 size counts and frees the old phase's member lists.
Its median serve at k = 4 takes 129 / 156 / 318 us at l = 64 / 256 /
1024, against 111-121 us for a remap (Python 3.11, one core of an Intel
Xeon). Each fact is kept once. The run is the list of StepOutcomes
serve returned, one per request, a phase reset included: its plan is
the remap that reprocessed its request. The request count, the remap
records, the --events lines (event_lines) and the replay of remap
before-states on live state (replay_remaps) are read from it. The cost
ledger is its fold: once a request is served, serve folds its outcome
into the ledger's rows (_fold), so a serve that raises charges nothing;
the open phase, phase ranges and f_obs are read from those rows. The
audit after each request checks the clusters the request changed, the
only ones that can have broken an invariant; audit() checks everything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import islice

from .configs import (
    config_matrix,
    counts_from_sizes,
    demand_packable,
    is_valid_target,
    merged,
    min_affected_target,
    revlex_key,
    solve_any_target,
)
from .errors import InputError, InvariantViolation
from .model import (
    ClusterCensus,
    ComponentPartition,
    CostLedger,
    Instance,
    Mapping,
    PhaseRow,
    Request,
    component_size_census,
    validate_request,
)

ALGORITHMS = ("comp-min", "comp-any")


class StepTag(Enum):
    """Serve-case taxonomy."""

    FREE = "free"
    PAID_MERGE_SAME_CLUSTER = "paid-merge-same-cluster"
    PAID_REMAP = "paid-remap"
    PHASE_RESET = "phase-reset"


def feasibility_exists(component_sizes, instance: Instance) -> bool:
    """Can this component-size multiset be mapped validly at all?

    True iff no component exceeds k and the sizes pack into l bins of
    exactly k. Depends only on sizes, not on current placement.
    """
    sizes = list(component_sizes)
    if sum(sizes) != instance.n:
        raise InputError(
            f"component sizes sum to {sum(sizes)}, expected n={instance.n}"
        )
    if any(s < 1 for s in sizes):
        raise InputError("component sizes must be positive")
    if max(sizes) > instance.k:
        return False
    return demand_packable(counts_from_sizes(sizes, instance.k), instance.k)


def graver_min_move(basis, x):
    """Cheapest applicable basis move that resolves the pseudo, or None.

    Minimizes the one-norm; ties go to the reverse-lexicographically
    smallest element. The engine does not use this: it is the
    Graver-basis oracle that certifies the planner.
    """
    pi = len(x) - 1
    cands = [
        g for g in basis if g[pi] == 1 and all(gi <= xi for gi, xi in zip(g, x))
    ]
    if not cands:
        return None
    return min(cands, key=lambda g: (sum(abs(c) for c in g), revlex_key(g)))


@dataclass(frozen=True, slots=True)
class RemapRecord:
    """One remap event: what the planner decided, planned in full before
    anything changes, then applied and kept in the run's outcome.

    pseudo is the tuple the cached config_matrix holds, so records of
    one pseudo share it. replay_remaps() walks the mapping and the
    components the event started from, so the record holds no O(n)
    snapshot.
    """

    request: Request
    pseudo: tuple
    x: tuple
    y: tuple
    affected: tuple
    moves: tuple

    @property
    def u(self) -> tuple:
        """Component demand by size, A*x."""
        return config_matrix(len(self.pseudo), self.pseudo).mat_vec(self.x)

    @property
    def distance(self) -> int:
        """One-norm of the move x - y."""
        return sum(abs(a - b) for a, b in zip(self.x, self.y))


@dataclass(frozen=True, slots=True)
class StepOutcome:
    """What serving one request did. A phase reset keeps the phase it
    ended; its plan, if any, is the remap that reprocessed its request
    in the next phase."""

    tag: StepTag
    request: Request
    phase: int
    communication: int = 0
    plan: RemapRecord | None = None

    @property
    def migration(self) -> int:
        return 0 if self.plan is None else len(self.plan.moves)


def _start_mapping(instance: Instance, initial: Mapping | None) -> Mapping:
    """A copy of the initial mapping, or the block layout for None."""
    if initial is None:
        return Mapping.default(instance)
    if initial.instance != instance:
        raise InputError("initial mapping built for a different instance")
    return initial.copy()


class Engine:
    """One online run over a fixed instance; single-threaded."""

    def __init__(
        self,
        instance: Instance,
        initial: Mapping | None = None,
        algorithm: str = "comp-min",
    ):
        if algorithm not in ALGORITHMS:
            raise InputError(
                f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}"
            )
        self.instance = instance
        self.algorithm = algorithm
        self.mapping = _start_mapping(instance, initial)
        self.partition = ComponentPartition(instance.n)
        self.census = ClusterCensus(instance)
        self.ledger = CostLedger()
        self.outcomes: list = []

    @property
    def phase(self) -> int:
        """The open phase: the ledger keeps one row per phase."""
        return len(self.ledger.rows) - 1

    @property
    def requests_served(self) -> int:
        return len(self.outcomes)

    @property
    def remap_records(self) -> list:
        """The run's remap records in order, read from the outcomes."""
        return remap_records(self.outcomes)

    @property
    def f_obs(self) -> int:
        """Most clusters any remap of the run affected."""
        return max(row.max_affected for row in self.ledger.rows)

    def phase_ranges(self) -> list:
        """Request-index range of every ledger row, the open phase last.

        A reset's triggering request belongs to both the phase it ended
        and the phase it started (it is reprocessed in the new one), so
        a range ends one past the next phase's start.
        """
        rows = self.ledger.rows
        ends = [row.start + 1 for row in rows[1:]] + [self.requests_served]
        return [(row.start, end) for row, end in zip(rows, ends)]

    @property
    def completed_phases(self) -> list:
        """Request-index ranges of the phases a reset has ended."""
        return self.phase_ranges()[:-1]

    def serve(self, request: Request) -> StepOutcome:
        validate_request(self.instance, request)
        outcome = self._serve_case(request)
        self._fold(outcome)
        self.outcomes.append(outcome)
        return outcome

    def serve_all(self, requests) -> list:
        return [self.serve(r) for r in requests]

    def audit(self) -> None:
        """Check every invariant and all kept state from scratch; O(n).

        Between requests the mapping holds exactly k nodes per cluster
        and every component lies inside one cluster; the kept node sets,
        member lists, size demand and cluster census equal a recount.
        """
        instance, mapping, partition = self.instance, self.mapping, self.partition
        k = instance.k
        if not mapping.is_valid():
            raise InvariantViolation("mapping lost the exactly-k-per-cluster shape")
        per_cluster = component_size_census(partition, mapping)
        nodes = [[] for _ in range(instance.l)]
        for node, cluster in enumerate(mapping.as_list()):
            nodes[cluster].append(node)
        if any(mapping.nodes_in(j) != nodes[j] for j in range(instance.l)):
            raise InvariantViolation("cluster node sets disagree with the mapping")
        components = partition.components()
        kept = {root: sorted(m) for root, m in partition.member_lists().items()}
        if kept != components:
            raise InvariantViolation("component member lists disagree with the roots")
        if partition.demand(k) != counts_from_sizes(
            (len(members) for members in components.values()), k
        ):
            raise InvariantViolation("component size demand disagrees with a recount")
        clusters_with: dict = {}
        for j, sizes in enumerate(per_cluster):
            counts = counts_from_sizes(sizes, k)
            if self.census.counts[j] != counts:
                raise InvariantViolation(
                    f"cluster {j} census {self.census.counts[j]} != recount {counts}"
                )
            clusters_with.setdefault(counts, []).append(j)
        if self.census.clusters_with != clusters_with:
            raise InvariantViolation("clusters per configuration disagree with a recount")

    # -- serve internals -------------------------------------------------

    def _serve_case(self, request: Request) -> StepOutcome:
        u, v = request.u, request.v
        partition = self.partition
        if partition.find(u) == partition.find(v):
            return StepOutcome(StepTag.FREE, request, self.phase)
        cu = self.mapping.cluster_of(u)
        if cu == self.mapping.cluster_of(v):
            partition.merge(u, v)
            self._refresh((cu,))
            return StepOutcome(StepTag.PAID_MERGE_SAME_CLUSTER, request, self.phase)
        plan = self._build_plan(partition, self.census, request)
        if plan is None:
            return self._reset_and_reprocess(request)
        self._apply_plan(plan)
        return StepOutcome(StepTag.PAID_REMAP, request, self.phase, 1, plan)

    def _reset_and_reprocess(self, request: Request) -> StepOutcome:
        """End the phase and serve the request again on singletons.

        The fresh phase state is built and the request planned on it
        before anything is committed. The outcome carries the request's
        one communication charge and the reprocessed remap's plan.
        """
        partition = ComponentPartition(self.instance.n)
        census = ClusterCensus(self.instance)
        plan = self._build_plan(partition, census, request)
        self.partition, self.census = partition, census
        # no plan only at k = 1: the fresh phase stays all singletons
        if plan is not None:
            self._apply_plan(plan)
        return StepOutcome(StepTag.PHASE_RESET, request, self.phase, 1, plan)

    # -- remap planning --------------------------------------------------

    def _build_plan(self, partition, census, request: Request) -> RemapRecord | None:
        """Plan the remap that merges the components of the request's
        endpoints, which lie in different clusters; None when no valid
        mapping can host the merged component family. Past k that is
        known at once; otherwise the planner alone decides, and its None
        must come with a size demand that does not pack.

        Reads the two components, the size demand, the census of their
        clusters and the clusters the plan changes; changes nothing.
        """
        k = self.instance.k
        u, v = request.u, request.v
        ru, rv = partition.find(u), partition.find(v)
        su, sv = partition.size_of(ru), partition.size_of(rv)
        demand = merged(partition.demand(k), su, sv)
        if demand is None:
            return None
        ca, cb = sorted((self.mapping.cluster_of(u), self.mapping.cluster_of(v)))
        own = (census.counts[ca], census.counts[cb])
        matrix = config_matrix(k, merged([a + b for a, b in zip(*own)], su, sv))
        columns = matrix.columns[:-1]
        # clusters per configuration, the two participants left out
        held = census.clusters_with
        x = tuple(len(held.get(cfg, ())) - own.count(cfg) for cfg in columns) + (1,)

        if self.algorithm == "comp-any":
            y = solve_any_target(matrix, demand)
        else:
            y = min_affected_target(matrix, x)
        if y is None:
            if demand_packable(demand, k):
                raise InvariantViolation("feasible event lost its valid target")
            return None
        # demand is the partition's, so a census that drifted from it fails here
        if not is_valid_target(y, matrix, demand):
            raise InvariantViolation(f"planned target {y} is not valid")
        affected, moves = self._realize(
            partition, census, (ca, cb), (ru, rv), x, y, columns
        )
        record = RemapRecord(request, matrix.pseudo, x, y, tuple(affected), tuple(moves))
        expected = (record.distance + 1) // 2
        if len(affected) != expected:
            raise InvariantViolation(
                f"{len(affected)} affected clusters, expected {expected}"
            )
        return record

    def _realize(self, partition, census, clusters, merging, x, y, columns):
        """Concrete moves for target census y; columns are the real
        configurations, in the order of x and y.

        Keeps min(x_c, y_c) lowest-id clusters per configuration
        untouched, so the x_c - y_c highest-id ones of each shrinking
        configuration are affected; the two merge participants always
        are. y - x counts the open configurations. Each affected
        cluster, in id order, takes the first in column order that keeps
        the largest total size of its components, and keeps the
        lowest-root ones of each size. The merged component is offered
        last among its size, in the first participant and then, if not
        kept there, in the second. The rest go, larger first, to the
        first affected cluster with room.
        """
        mapping = self.mapping
        ru, rv = merging
        merged_nodes = partition.members(ru) + partition.members(rv)
        merged_root = ComponentPartition.union_root(
            ru, partition.size_of(ru), rv, partition.size_of(rv)
        )

        affected, opened = list(clusters), {}
        for c, cfg in enumerate(columns):
            if x[c] > y[c]:
                evicted = (
                    j for j in reversed(census.clusters_with[cfg]) if j not in clusters
                )
                affected.extend(islice(evicted, x[c] - y[c]))
            elif y[c] > x[c]:
                opened[cfg] = y[c] - x[c]
        affected.sort()
        if sum(opened.values()) != len(affected):
            raise InvariantViolation(
                f"{sum(opened.values())} open slots for {len(affected)} affected clusters"
            )

        placed, room, spare = {}, {}, set()
        for j in affected:
            # every component here but the merged one lies whole in j
            by_size: dict = {}
            roots = {partition.find(node) for node in mapping.nodes_in(j)}
            for root in sorted(roots.difference(merging)):
                by_size.setdefault(partition.size_of(root), []).append(root)
            if j in clusters and merged_root not in placed:
                by_size.setdefault(len(merged_nodes), []).append(merged_root)
            # max keeps the first best, in column order
            best = max(
                (cfg for cfg, left in opened.items() if left),
                key=lambda cfg: sum(s * min(len(rs), cfg[s - 1]) for s, rs in by_size.items()),
            )
            opened[best] -= 1
            room[j] = free = list(best)
            for s, rs in by_size.items():
                keep = min(free[s - 1], len(rs))
                free[s - 1] -= keep
                placed.update(dict.fromkeys(rs[:keep], j))
                spare.update((-s, root) for root in rs[keep:])

        for neg_size, root in sorted(spare):
            if root in placed:
                continue
            s = -neg_size
            target = next((j for j in affected if room[j][s - 1] > 0), None)
            if target is None:
                raise InvariantViolation(f"no capacity left for a size-{s} component")
            room[target][s - 1] -= 1
            placed[root] = target

        moves = []
        for root, target in placed.items():
            nodes = merged_nodes if root == merged_root else partition.members(root)
            moves.extend(
                (node, target) for node in nodes if mapping.cluster_of(node) != target
            )
        moves.sort()
        return affected, moves

    def _apply_plan(self, plan: RemapRecord) -> None:
        self.partition.merge(plan.request.u, plan.request.v)
        for node, cluster in plan.moves:
            self.mapping.move(node, cluster)
        self._refresh(plan.affected)

    def _fold(self, outcome: StepOutcome) -> None:
        """Charge a served outcome to the ledger. A reset's communication
        stays with the phase it ends; the new phase's row opens at the
        request's index and takes the reprocessed remap."""
        rows = self.ledger.rows
        rows[-1].communication += outcome.communication
        if outcome.tag is StepTag.PHASE_RESET:
            rows.append(PhaseRow(len(self.outcomes)))
        plan = outcome.plan
        if plan is not None:
            row = rows[-1]
            row.migration += len(plan.moves)
            row.remap_events += 1
            row.max_affected = max(row.max_affected, len(plan.affected))

    def _refresh(self, clusters) -> None:
        """Recount the census of changed clusters and audit them.

        Clusters a request did not change keep their nodes and their
        components, so checking the changed ones is the full audit.
        """
        k = self.instance.k
        partition, mapping = self.partition, self.mapping
        for j in clusters:
            nodes = mapping.nodes_in(j)
            if len(nodes) != k:
                raise InvariantViolation("mapping lost the exactly-k-per-cluster shape")
            counts = [0] * k
            for root in {partition.find(node) for node in nodes}:
                members = partition.members(root)
                if any(mapping.cluster_of(m) != j for m in members):
                    raise InvariantViolation(
                        f"component {root} spans clusters between requests"
                    )
                counts[len(members) - 1] += 1
            self.census.set(j, tuple(counts))


def remap_records(outcomes) -> list:
    """The remap records of a run's outcomes in order, a reset's
    reprocessed remap included."""
    return [outcome.plan for outcome in outcomes if outcome.plan is not None]


def event_lines(outcomes):
    """The event log as JSON lines: one per outcome, and after a reset
    with a plan one more, a paid remap of the next phase with no
    communication, for its reprocessed remap."""
    for outcome in outcomes:
        tag, phase, plan = outcome.tag, outcome.phase, outcome.plan
        if tag is StepTag.PHASE_RESET:
            steps = [(tag, phase, outcome.communication, None)]
            if plan is not None:
                steps.append((StepTag.PAID_REMAP, phase + 1, 0, plan))
        else:
            steps = [(tag, phase, outcome.communication, plan)]
        for tag, phase, communication, plan in steps:
            entry = {
                "phase": phase,
                "request": [outcome.request.u, outcome.request.v],
                "outcome": tag.value,
                "comm": communication,
                "moves": 0 if plan is None else len(plan.moves),
                "affected": 0 if plan is None else len(plan.affected),
                "g_norm": None if plan is None else plan.distance,
            }
            yield json.dumps(entry, sort_keys=True) + "\n"


def replay_remaps(instance: Instance, initial: Mapping | None, outcomes):
    """Walk the run's remap events on live state.

    Replays the outcomes from the initial mapping (None: the block
    layout) on one mapping and one partition. Yields, per remap record
    and in order, (record, mapping before its moves, partition right
    after its merge). Both are the replay's own state: valid until the
    next iteration, and not to be mutated; copy or recount what must
    outlive it. An event costs its merge and its moves, no O(n)
    snapshot; a phase reset costs a partition reset.
    """
    mapping = _start_mapping(instance, initial)
    partition = ComponentPartition(instance.n)
    for outcome in outcomes:
        if outcome.tag is StepTag.PHASE_RESET:
            partition.reset()
            if outcome.plan is None:
                continue  # k = 1: the merge was dropped
        partition.merge(outcome.request.u, outcome.request.v)
        record = outcome.plan
        if record is not None:
            yield record, mapping, partition
            for node, cluster in record.moves:
                mapping.move(node, cluster)
