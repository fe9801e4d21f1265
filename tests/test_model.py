"""Tests for instances, mappings, component tracking, and cost accounting."""

import copy
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repart.errors import InputError, InvariantViolation, ResourceLimitError
from repart.model import (
    MAX_NODES,
    ComponentPartition,
    Instance,
    Mapping,
    Request,
    component_size_census,
    validate_request,
)
from repart.rng import SplitMix64


def test_instance_node_count():
    assert Instance(3, 4).n == 12
    assert Instance(1, 2).n == 2


# a bool would be saved as a JSON boolean, which load_workload refuses
@pytest.mark.parametrize(
    "k,l",
    [(0, 2), (-1, 3), (2, 1), (2, 0), (True, 2), (2, True), (2.0, 3), (2, 3.0), ("2", 3)],
)
def test_instance_rejects_bad_shape(k, l):
    with pytest.raises(InputError):
        Instance(k, l)


def test_instance_size_is_guarded_before_anything_of_size_n_is_built():
    assert Instance(1, MAX_NODES).n == MAX_NODES
    for k, l in [(10**9, 2), (1, MAX_NODES + 1), (2**19 + 1, 2)]:
        with pytest.raises(ResourceLimitError):
            Instance(k, l)
    # the shape checks come first
    with pytest.raises(InputError):
        Instance(10**9, 1)


def test_request_rejects_self_loop():
    with pytest.raises(InputError):
        Request(2, 2)


def test_request_rejects_negative_node():
    with pytest.raises(InputError):
        Request(-1, 2)


@pytest.mark.parametrize("u,v", [(True, 2), (0, False), (0.5, 2), (0, 2.0), ("0", 1)])
def test_request_rejects_non_int_node_ids(u, v):
    with pytest.raises(InputError, match="node ids must be integers"):
        Request(u, v)


def test_validate_request_checks_range():
    inst = Instance(2, 2)
    validate_request(inst, Request(3, 0))
    with pytest.raises(InputError):
        validate_request(inst, Request(0, 4))


def test_default_mapping_fills_clusters_in_blocks():
    assert Mapping.default(Instance(3, 2)).as_list() == [0, 0, 0, 1, 1, 1]
    assert Mapping.default(Instance(1, 3)).as_list() == [0, 1, 2]


def test_mapping_requires_exactly_k_per_cluster():
    inst = Instance(2, 2)
    with pytest.raises(InputError):
        Mapping(inst, [0, 0, 0, 1])
    with pytest.raises(InputError):
        Mapping(inst, [0, 0, 2, 2])


def test_mapping_rejects_bool_cluster_ids():
    # a saved workload would write them as JSON booleans, which
    # load_workload refuses
    with pytest.raises(InputError, match="invalid cluster False"):
        Mapping(Instance(2, 2), [False, False, True, True])


def test_mapping_move_is_unchecked_until_validated():
    m = Mapping.default(Instance(2, 2))
    m.move(0, 1)
    assert not m.is_valid()
    m.move(3, 0)
    assert m.is_valid()
    assert m.as_list() == [1, 0, 1, 0]


def test_mapping_copy_is_independent():
    m = Mapping.default(Instance(2, 2))
    c = m.copy()
    c.move(0, 1)
    assert m.as_list() == [0, 0, 1, 1]
    assert m != c
    # the per-cluster node sets are copied too, not shared
    assert m.nodes_in(0) == [0, 1]
    assert m.nodes_in(1) == [2, 3]
    assert c.nodes_in(0) == [1]
    assert c.nodes_in(1) == [0, 2, 3]


def test_mapping_nodes_in():
    m = Mapping(Instance(2, 2), [1, 0, 0, 1])
    assert m.nodes_in(0) == [1, 2]
    assert m.nodes_in(1) == [0, 3]
    assert m.cluster_of(3) == 1


def test_merge_two_singletons():
    p = ComponentPartition(4)
    assert p.merge(0, 1) == 2
    assert p.demand(2) == (2, 1)


def test_merge_already_joined_pair():
    p = ComponentPartition(4)
    p.merge(0, 1)
    before = {root: list(m) for root, m in p.member_lists().items()}
    assert p.merge(1, 0) == 2
    assert p.member_lists() == before
    assert p.demand(2) == (2, 1)


def test_merge_of_two_groups_reports_combined_size():
    p = ComponentPartition(6)
    p.merge(0, 1)
    p.merge(2, 3)
    p.merge(3, 4)
    assert p.merge(1, 4) == 5
    assert p.demand(5) == (1, 0, 0, 0, 1)


def test_union_keeps_larger_root():
    p = ComponentPartition(5)
    p.merge(2, 3)
    p.merge(3, 0)
    # {2,3} outweighs {0}, so the established root survives
    assert p.find(0) == 2


def test_union_size_tie_prefers_smaller_root():
    p = ComponentPartition(4)
    p.merge(1, 0)
    assert p.find(1) == 0


def _blocks(partition):
    return {frozenset(m) for m in partition.member_lists().values()}


def test_merge_order_is_irrelevant_to_final_components():
    rng = SplitMix64(11)
    for _ in range(60):
        n = rng.randint(2, 10)
        pairs = []
        for _ in range(8):
            u, v = rng.below(n), rng.below(n)
            if u != v:
                pairs.append((u, v))
        a = ComponentPartition(n)
        b = ComponentPartition(n)
        for u, v in pairs:
            a.merge(u, v)
        for u, v in reversed(pairs):
            b.merge(u, v)
        assert _blocks(a) == _blocks(b)


def test_components_listing_sizes_and_reset():
    p = ComponentPartition(4)
    p.merge(0, 2)
    assert sorted(tuple(m) for m in p.components().values()) == [(0, 2), (1,), (3,)]
    assert p.demand(4) == (2, 1, 0, 0)
    assert p.size_of(2) == 2
    p.reset()
    assert len(p.member_lists()) == 4
    assert p.demand(4) == (4, 0, 0, 0)


def test_partition_copy_is_independent():
    p = ComponentPartition(4)
    p.merge(0, 1)
    q = copy.deepcopy(p)
    q.merge(2, 3)
    assert len(p.member_lists()) == 3
    assert len(q.member_lists()) == 2


class _EagerPartition:
    """Reference partition that keeps a member list for every root,
    singletons included, in a dict built in ascending root order."""

    def __init__(self, n):
        self.n = n
        self.reset()

    def reset(self):
        self._root = list(range(self.n))
        self._members = {node: [node] for node in range(self.n)}
        self._size_counts = [0] * (self.n + 1)
        self._size_counts[1] = self.n

    def find(self, u):
        return self._root[u]

    def merge(self, u, v):
        ru, rv = self.find(u), self.find(v)
        sa = len(self._members[ru])
        if ru == rv:
            return sa
        sb = len(self._members[rv])
        keep = ComponentPartition.union_root(ru, sa, rv, sb)
        gone = self._members.pop(rv if keep == ru else ru)
        for node in gone:
            self._root[node] = keep
        self._members[keep].extend(gone)
        self._size_counts[sa] -= 1
        self._size_counts[sb] -= 1
        self._size_counts[sa + sb] += 1
        return sa + sb

    def size_of(self, u):
        return len(self._members[self.find(u)])

    def members(self, u):
        return self._members[self.find(u)]

    def member_lists(self):
        return self._members

    def demand(self, k):
        return tuple(self._size_counts[1 : k + 1])

    def components(self):
        out = {}
        for node, root in enumerate(self._root):
            out.setdefault(root, []).append(node)
        return dict(sorted(out.items()))


def _assert_same_partition(p, ref):
    for u in range(p.n):
        assert p.find(u) == ref.find(u)
        assert p.size_of(u) == ref.size_of(u)
        assert p.members(u) == ref.members(u)
    assert list(p.member_lists().items()) == list(ref.member_lists().items())
    for k in range(1, p.n + 1):
        assert p.demand(k) == ref.demand(k)
    assert p.components() == ref.components()
    assert sum(p.demand(p.n)) == len(ref.member_lists())


@st.composite
def partition_steps(draw):
    """(n, steps): each step is a merge (u, v) or, one time in four,
    None for a reset."""
    n = draw(st.integers(1, 24))
    node = st.integers(0, n - 1)
    merge = st.tuples(node, node)
    steps = draw(st.lists(st.one_of(merge, merge, merge, st.none()), max_size=60))
    return n, steps


@settings(max_examples=200, deadline=None)
@given(partition_steps())
def test_partition_matches_eager_member_lists(case):
    n, steps = case
    p, ref = ComponentPartition(n), _EagerPartition(n)
    _assert_same_partition(p, ref)
    for step in steps:
        if step is None:
            p.reset()
            ref.reset()
        else:
            assert p.merge(*step) == ref.merge(*step)
        _assert_same_partition(p, ref)


def _tracked_objects_added(action):
    """GC-tracked objects alive after action() minus those before it,
    with collection off in between; returns (added, action's result)."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = action()
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    return added, result


def test_fresh_and_reset_partitions_allocate_no_per_node_containers():
    added, p = _tracked_objects_added(lambda: ComponentPartition(4096))
    assert added < 16
    for u in range(0, 4096, 2):
        p.merge(u, u + 1)
    added, _ = _tracked_objects_added(p.reset)
    assert added < 16
    assert p.demand(2) == (4096, 0)


def test_census_groups_component_sizes_by_cluster():
    inst = Instance(2, 3)
    m = Mapping.default(inst)
    p = ComponentPartition(inst.n)
    p.merge(4, 5)
    assert component_size_census(p, m) == ((1, 1), (1, 1), (2,))


def test_census_rejects_component_across_two_clusters():
    inst = Instance(2, 2)
    m = Mapping.default(inst)
    p = ComponentPartition(inst.n)
    p.merge(1, 2)
    with pytest.raises(InvariantViolation, match=r"component 1 spans clusters \[0, 1\]"):
        component_size_census(p, m)


def test_census_with_full_cluster_components():
    inst = Instance(2, 2)
    m = Mapping.default(inst)
    p = ComponentPartition(inst.n)
    p.merge(0, 1)
    p.merge(2, 3)
    assert component_size_census(p, m) == ((2,), (2,))


def test_census_rejects_two_spanning_components():
    inst = Instance(2, 3)
    m = Mapping.default(inst)
    p = ComponentPartition(inst.n)
    p.merge(1, 2)
    p.merge(3, 4)
    with pytest.raises(InvariantViolation):
        component_size_census(p, m)


def test_census_rejects_component_across_three_clusters():
    inst = Instance(2, 3)
    m = Mapping.default(inst)
    p = ComponentPartition(inst.n)
    p.merge(0, 2)
    p.merge(2, 4)
    with pytest.raises(InvariantViolation):
        component_size_census(p, m)
