"""Tests for workload generation, adaptive adversaries, and file round-trips."""

import json
import random
from dataclasses import astuple
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repart.engine import ALGORITHMS, Engine, StepTag, feasibility_exists
from repart.errors import InputError
from repart.model import ComponentPartition, Instance, Mapping, Request
from repart.workloads import (
    KINDS,
    generate_workload,
    load_workload,
    save_workload,
)


def test_uniform_random_is_deterministic_per_seed():
    inst = Instance(3, 3)
    a = generate_workload("uniform-random", inst, 50, 42)
    b = generate_workload("uniform-random", inst, 50, 42)
    c = generate_workload("uniform-random", inst, 50, 43)
    assert a.requests == b.requests
    assert a.requests != c.requests
    assert a.is_static


def test_uniform_random_requests_are_normalized_pairs():
    inst = Instance(2, 4)
    wl = generate_workload("uniform-random", inst, 200, 7)
    for req in wl.requests:
        assert 0 <= req.u < req.v < inst.n


def test_adaptive_kinds_are_not_static():
    inst = Instance(2, 2)
    for kind in ("merge-chain", "split-probe"):
        wl = generate_workload(kind, inst, 10, 0)
        assert not wl.is_static
        assert wl.requests is None


def test_generate_workload_rejects_bad_arguments():
    inst = Instance(2, 2)
    with pytest.raises(InputError):
        generate_workload("zipf", inst, 10, 0)
    with pytest.raises(InputError):
        generate_workload("uniform-random", inst, -1, 0)
    for length, seed in ((10, "seed"), (True, 0), (10.0, 0), (10, True), (10, 1.0)):
        with pytest.raises(InputError):
            generate_workload("uniform-random", inst, length, seed)


def test_split_probe_always_requests_a_split_pair():
    inst = Instance(2, 2)
    wl = generate_workload("split-probe", inst, 15, 0)
    eng = Engine(inst)
    gen = wl.make_generator()
    for _ in range(wl.length):
        req = gen.next(eng)
        assert req is not None
        assert req.u == 0  # lowest-id convention pins the first endpoint
        assert eng.mapping.cluster_of(req.u) != eng.mapping.cluster_of(req.v)
        out = eng.serve(req)
        assert out.tag in (StepTag.PAID_REMAP, StepTag.PHASE_RESET)
        assert out.communication == 1


def test_merge_chain_resets_within_n_requests():
    inst = Instance(2, 2)
    wl = generate_workload("merge-chain", inst, inst.n, 0)
    eng = Engine(inst)
    gen = wl.make_generator()
    for _ in range(wl.length):
        req = gen.next(eng)
        assert req is not None
        eng.serve(req)
    assert eng.completed_phases


class _ReferenceMergeChain:
    """The merge-chain adversary checking feasibility of every pair in full."""

    def __init__(self, instance):
        self.instance = instance
        self.partition = ComponentPartition(instance.n)

    def next(self, mapping):
        comps = [
            (members[0], len(members), mapping.cluster_of(members[0]))
            for members in self.partition.components().values()
        ]
        best = None
        for (m1, s1, c1), (m2, s2, c2) in combinations(comps, 2):
            if c1 == c2:
                continue
            others = [s for m, s, _ in comps if m not in (m1, m2)]
            feasible = feasibility_exists(others + [s1 + s2], self.instance)
            key = (0 if feasible else 1, -(s1 + s2), min(m1, m2), max(m1, m2))
            best = key if best is None else min(best, key)
        if best is None:
            return None
        u, v = best[2], best[3]
        others = [
            len(m)
            for m in self.partition.components().values()
            if u not in m and v not in m
        ]
        merged = self.partition.size_of(u) + self.partition.size_of(v)
        if not feasibility_exists(others + [merged], self.instance):
            self.partition.reset()
            if self.instance.k == 1:
                return Request(u, v)
        self.partition.merge(u, v)
        return Request(u, v)


def _shuffled_mapping(inst, seed):
    nodes = list(range(inst.n))
    random.Random(seed).shuffle(nodes)
    assign = [0] * inst.n
    for slot, node in enumerate(nodes):
        assign[node] = slot // inst.k
    return Mapping(inst, assign)


def test_merge_chain_emits_the_reference_requests():
    # block layouts, then seeded shuffled starts like the benchmark's
    shapes = ((1, 3, None), (2, 5, None), (3, 4, None), (4, 4, None))
    shapes += ((2, 4, 1), (3, 5, 2), (4, 6, 3))
    for (k, l, seed), algorithm in product(shapes, ALGORITHMS):
        inst = Instance(k, l)
        initial = None if seed is None else _shuffled_mapping(inst, seed)
        wl = generate_workload("merge-chain", inst, 60, 0)
        eng = Engine(inst, initial, algorithm)
        gen, ref = wl.make_generator(), _ReferenceMergeChain(inst)
        for _ in range(wl.length):
            req = gen.next(eng)
            assert req == ref.next(eng.mapping)
            if req is None:
                break
            eng.serve(req)


def _engine_state(eng):
    return (
        eng.mapping.as_list(),
        eng.partition.components(),
        eng.partition.member_lists(),
        list(eng.census.counts),
        {cfg: list(ids) for cfg, ids in eng.census.clusters_with.items()},
        [astuple(row) for row in eng.ledger.rows],
        len(eng.outcomes),
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("kind", KINDS)
def test_generators_only_read_the_engine(kind, algorithm):
    for k, l, seed in ((1, 3, None), (2, 4, 1), (3, 4, None), (4, 5, 2)):
        inst = Instance(k, l)
        initial = None if seed is None else _shuffled_mapping(inst, seed)
        wl = generate_workload(kind, inst, 40, 5)
        eng = Engine(inst, initial, algorithm)
        gen = wl.make_generator()
        for _ in range(wl.length):
            before = _engine_state(eng)
            req = gen.next(eng)
            assert _engine_state(eng) == before
            if req is None:
                break
            eng.serve(req)


def test_workload_roundtrip(tmp_path):
    inst = Instance(2, 3)
    wl = generate_workload("uniform-random", inst, 25, 99)
    path = tmp_path / "wl.json"
    save_workload(wl, path)
    back = load_workload(path)
    assert back.instance == inst
    assert back.requests == wl.requests
    assert back.initial is None


def test_workload_roundtrip_with_initial_mapping(tmp_path):
    inst = Instance(2, 2)
    payload = {"k": 2, "l": 2, "initial": [0, 1, 0, 1], "requests": [[0, 2], [1, 3]]}
    path = tmp_path / "wl.json"
    path.write_text(json.dumps(payload))
    wl = load_workload(path)
    assert wl.initial == Mapping(inst, [0, 1, 0, 1])
    assert [(r.u, r.v) for r in wl.requests] == [(0, 2), (1, 3)]
    saved = tmp_path / "saved.json"
    save_workload(wl, saved)
    back = load_workload(saved)
    assert back.initial == wl.initial
    assert back.requests == wl.requests


def test_save_workload_refuses_adaptive(tmp_path):
    wl = generate_workload("split-probe", Instance(2, 2), 5, 0)
    with pytest.raises(InputError):
        save_workload(wl, tmp_path / "x.json")


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        json.dumps([1, 2, 3]),
        json.dumps({"l": 2, "requests": []}),
        json.dumps({"k": "two", "l": 2, "requests": []}),
        json.dumps({"k": 2, "l": 2}),
        json.dumps({"k": 2, "l": 2, "requests": [[0]]}),
        json.dumps({"k": 2, "l": 2, "requests": [[0, "a"]]}),
        json.dumps({"k": 2, "l": 2, "requests": [[0, 9]]}),
        json.dumps({"k": 2, "l": 2, "requests": [[1, 1]]}),
        json.dumps({"k": 2, "l": 2, "requests": [], "initial": [0, 0, 0, 1]}),
        json.dumps({"k": 2, "l": 2, "requests": [], "initial": [0, 0]}),
        json.dumps({"k": True, "l": 2, "requests": []}),
        json.dumps({"k": 2, "l": True, "requests": []}),
        json.dumps({"k": 2, "l": 2, "requests": [[False, True]]}),
        json.dumps(
            {"k": 2, "l": 2, "requests": [], "initial": [False, False, True, True]}
        ),
    ],
)
def test_load_workload_rejects_malformed_files(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(InputError):
        load_workload(path)


def test_load_workload_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_workload(tmp_path / "absent.json")


# raw bytes, alone or after a prefix that opens a workload object or
# nests arrays past the recursion limit
_raw_files = st.binary(max_size=64) | st.builds(
    bytes.__add__,
    st.sampled_from([b'{"k": 2, "l": 2, "requests": [', b"[" * 5000, b'{"k": 1']),
    st.binary(max_size=32),
)


@settings(max_examples=200, deadline=None)
@given(_raw_files)
def test_load_workload_raises_only_input_error_on_raw_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("raw") / "workload.json"
    path.write_bytes(data)
    with pytest.raises(InputError):
        load_workload(path)


def test_kind_list_is_stable():
    assert KINDS == ("uniform-random", "merge-chain", "split-probe")
