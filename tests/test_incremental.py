"""The engine's kept state against from-scratch recounts.

The engine keeps component member lists, cluster node sets, the size
demand and the per-cluster census up to date instead of rebuilding them
per request, and remap records hold no snapshot: replay_remaps walks
live state instead. These tests recompute all of that from scratch after
every request.
"""

import copy
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repart.configs import counts_from_sizes
from repart.engine import ALGORITHMS, Engine, StepTag, replay_remaps
from repart.errors import InvariantViolation
from repart.model import (
    ComponentPartition,
    Instance,
    Mapping,
    Request,
    component_size_census,
)


def _assert_state_matches_recount(eng):
    inst, mapping, partition = eng.instance, eng.mapping, eng.partition
    k = inst.k
    assign = mapping.as_list()
    for j in range(inst.l):
        assert mapping.nodes_in(j) == [i for i, c in enumerate(assign) if c == j]
    components = partition.components()
    assert sum(partition.demand(inst.n)) == len(components)
    for root, members in components.items():
        assert sorted(partition.members(root)) == members
    assert partition.member_lists().keys() == components.keys()
    assert partition.demand(k) == counts_from_sizes(
        [len(m) for m in components.values()], k
    )
    census = component_size_census(partition, mapping)
    counts = [counts_from_sizes(sizes, k) for sizes in census]
    assert eng.census.counts == counts
    for cfg, ids in eng.census.clusters_with.items():
        assert ids == [j for j, c in enumerate(counts) if c == cfg]
    clusters_with = eng.census.clusters_with
    assert {cfg: len(ids) for cfg, ids in clusters_with.items()} == Counter(counts)


@st.composite
def runs(draw):
    k = draw(st.integers(1, 5))
    l = draw(st.integers(2, 12 // k))
    n = k * l
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    requests = draw(
        st.lists(pair.filter(lambda p: p[0] != p[1]), min_size=20, max_size=60)
    )
    order = draw(st.permutations(range(n)))
    initial = [0] * n
    for slot, node in enumerate(order):
        initial[node] = slot // k
    algorithm = draw(st.sampled_from(ALGORITHMS))
    return Instance(k, l), Mapping(Instance(k, l), initial), requests, algorithm


@settings(max_examples=80, deadline=None)
@given(runs())
def test_kept_state_and_replayed_snapshots_match_recounts(run):
    inst, initial, requests, algorithm = run
    eng = Engine(inst, initial, algorithm)
    expected = []
    for u, v in requests:
        mapping_before = eng.mapping.copy()
        partition_before = copy.deepcopy(eng.partition)
        out = eng.serve(Request(u, v))
        _assert_state_matches_recount(eng)
        eng.audit()
        if out.tag is StepTag.PHASE_RESET:
            if out.plan is None:
                continue
            partition_before = ComponentPartition(inst.n)
        elif out.tag is not StepTag.PAID_REMAP:
            continue
        partition_before.merge(u, v)
        components = tuple(tuple(m) for m in partition_before.components().values())
        expected.append((mapping_before.as_list(), components))
    # the replay hands out live state, so copy it at each step
    replayed = [
        (rec, m.as_list(), tuple(tuple(c) for c in p.components().values()))
        for rec, m, p in replay_remaps(inst, initial, eng.outcomes)
    ]
    assert [rec for rec, _, _ in replayed] == eng.remap_records
    assert [(m, c) for _, m, c in replayed] == expected


def _served_engine():
    inst = Instance(3, 3)
    eng = Engine(inst)
    for u, v in ((0, 3), (1, 4), (6, 7)):
        eng.serve(Request(u, v))
    eng.audit()
    return eng


def test_audit_catches_a_stale_cluster_census():
    eng = _served_engine()
    eng.census.set(2, (3, 0, 0))
    with pytest.raises(InvariantViolation):
        eng.audit()


def test_audit_catches_a_stale_member_list():
    eng = _served_engine()
    eng.partition.members(6).append(8)
    with pytest.raises(InvariantViolation):
        eng.audit()


def test_audit_catches_a_component_split_across_clusters():
    eng = _served_engine()
    eng.mapping.move(7, 0)
    eng.mapping.move(0, 2)
    with pytest.raises(InvariantViolation):
        eng.audit()
