"""Tests for the offline optimum and the phase certificates."""

import itertools
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repart
from repart.engine import Engine
from repart.errors import InputError, ResourceLimitError
from repart.model import Instance, Mapping, Request
from repart.optimum import (
    OPT_N_GUARD,
    _partitions,
    opt_cost,
    opt_per_phase_lower_bound,
)
from repart.rng import SplitMix64
from repart.workloads import generate_workload


def _default(instance):
    return Mapping.default(instance)


def test_mapping_enumeration_counts():
    # n!/((k!)^l l!) balanced partitions: mappings up to cluster relabeling
    for (k, l), count in {(2, 2): 3, (3, 2): 10, (4, 2): 35, (2, 4): 105, (3, 3): 280}.items():
        n = k * l
        assert count == math.factorial(n) // (math.factorial(k) ** l * math.factorial(l))
        assert len(_partitions(k, l).parts) == count


def test_enumerated_mappings_are_valid_and_unique():
    inst = Instance(2, 3)
    tables = _partitions(inst.k, inst.l)
    assert len(set(tables.parts)) == len(tables.parts) == 15
    for i, part in enumerate(tables.parts):
        # canonical: blocks named in order of first appearance
        assert list(dict.fromkeys(part)) == list(range(inst.l))
        assert tables.index[part] == i
    # their relabelings are exactly the label vectors Mapping accepts
    for cell in itertools.product(range(inst.l), repeat=inst.n):
        if cell in tables.index:
            assert Mapping(inst, list(cell)).is_valid()
        else:
            with pytest.raises(InputError):
                Mapping(inst, list(cell))
    assert len(tables.index) == 90


# every shape with at most 90 valid mappings, so the dense reference stays small
SMALL_SHAPES = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (4, 2))


def _hamming(a, b):
    return sum(x != y for x, y in zip(a, b))


def _dense_reference(inst, initial, requests, phase_ranges):
    """Both answers by the textbook DP over an explicit list of mappings."""
    maps = [
        m
        for m in itertools.product(range(inst.l), repeat=inst.n)
        if all(m.count(c) == inst.k for c in range(inst.l))
    ]
    assert len(maps) == math.factorial(inst.n) // math.factorial(inst.k) ** inst.l
    assert len(_partitions(inst.k, inst.l).parts) * math.factorial(inst.l) == len(maps)
    start = tuple(initial.as_list())
    cost = {m: _hamming(start, m) for m in maps}
    for r in requests:
        cost = {
            j: min(cost[i] + _hamming(i, j) for i in maps) + (j[r.u] != j[r.v])
            for j in maps
        }
    certificates = [
        not any(
            all(m[r.u] == m[r.v] for r in requests[lo:hi]) for m in maps
        )
        for lo, hi in phase_ranges
    ]
    return min(cost.values()), certificates


@st.composite
def small_runs(draw):
    k, l = draw(st.sampled_from(SMALL_SHAPES))
    inst = Instance(k, l)
    n = inst.n
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    raw = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=10))
    requests = [Request(u, v) for u, v in raw]
    if draw(st.booleans()):
        initial = Mapping.default(inst)
    else:
        order = draw(st.permutations(range(n)))
        initial = Mapping(inst, [order.index(node) // k for node in range(n)])
    bound = st.integers(0, len(requests))
    ranges = [tuple(sorted(p)) for p in draw(st.lists(st.tuples(bound, bound)))]
    return inst, initial, requests, ranges


@settings(max_examples=150, deadline=None)
@given(small_runs())
def test_optimum_matches_dense_reference(run):
    inst, initial, requests, ranges = run
    expected_cost, expected_certificates = _dense_reference(
        inst, initial, requests, ranges
    )
    assert opt_cost(inst, initial, requests) == expected_cost
    assert opt_per_phase_lower_bound(inst, requests, ranges) == expected_certificates


def test_partition_distance_is_the_relabeled_hamming_metric():
    for k, l in SMALL_SHAPES:
        tables = _partitions(k, l)
        relabelings = list(itertools.permutations(range(l)))
        for p, row in zip(tables.parts, tables.dist):
            for q, d in zip(tables.parts, row):
                assert d == min(_hamming(p, [s[c] for c in q]) for s in relabelings)
    # the shortcut in opt_cost rests on d being a metric
    shapes = [(k, l) for k in range(1, 5) for l in range(2, 9) if k * l <= 8]
    for k, l in shapes:
        dist = _partitions(k, l).dist
        size = len(dist)
        for i in range(size):
            assert dist[i][i] == 0
            for j in range(size):
                assert dist[i][j] == dist[j][i]
                assert i == j or dist[i][j] >= 2
                reach = [dist[i][j] + d for d in dist[j]]
                assert all(map(int.__le__, dist[i], reach))
    dist = _partitions(3, 3).dist
    rng = random.Random(3)
    for _ in range(2000):
        i, j = rng.randrange(len(dist)), rng.randrange(len(dist))
        reach = [dist[i][j] + d for d in dist[j]]
        assert all(map(int.__le__, dist[i], reach))


def _grid_reference(inst, initial, requests):
    """opt_cost as a distance transform over the label grid [l]^n (numpy)."""
    import numpy as np

    labels = np.ix_(*[np.arange(inst.l)] * inst.n)
    valid = np.ones((inst.l,) * inst.n, dtype=bool)
    for c in range(inst.l):
        count = np.zeros_like(valid, dtype=np.int8)
        for axis in labels:
            count += axis == c
        valid &= count == inst.k
    work = np.full((inst.l,) * inst.n, np.inf)
    work[tuple(initial.as_list())] = 0.0
    for r in requests:
        for v in range(inst.n):
            np.minimum(work, work.min(axis=v, keepdims=True) + 1, out=work)
        np.copyto(work, np.inf, where=~valid)
        work += labels[r.u] != labels[r.v]
    return int(work.min())


def _serve(inst, initial, kind, length, seed):
    """An engine started at initial (None: the default) and the requests it served."""
    wl = generate_workload(kind, inst, length, seed)
    eng = Engine(inst, initial)
    gen = wl.make_generator()
    served = []
    while len(served) < wl.length:
        req = gen.next(eng)
        if req is None:
            break
        served.append(req)
        eng.serve(req)
    return eng, served


@st.composite
def grid_runs(draw):
    # shapes the dense reference cannot reach
    inst = Instance(*draw(st.sampled_from(((2, 4), (4, 2), (3, 3)))))
    n = inst.n
    order = draw(st.permutations(range(n)))
    initial = Mapping(inst, [order.index(node) // inst.k for node in range(n)])
    kind = draw(st.sampled_from(("pairs", "merge-chain", "split-probe")))
    if kind == "pairs":
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        raw = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=30))
        requests = [Request(u, v) for u, v in raw]
    else:
        length = draw(st.integers(0, 30))
        _, requests = _serve(inst, initial, kind, length, draw(st.integers(0, 2**32)))
    return inst, initial, requests


@settings(max_examples=40, deadline=None)
@given(grid_runs())
def test_optimum_matches_grid_reference(run):
    inst, initial, requests = run
    assert opt_cost(inst, initial, requests) == _grid_reference(inst, initial, requests)


def test_opt_empty_request_list():
    inst = Instance(2, 2)
    assert opt_cost(inst, _default(inst), []) == 0


def test_opt_single_cross_request_serves_in_place():
    inst = Instance(2, 2)
    assert opt_cost(inst, _default(inst), [Request(0, 2)]) == 1


def test_opt_repeated_cross_request_swaps_once():
    inst = Instance(2, 2)
    assert opt_cost(inst, _default(inst), [Request(0, 2)] * 5) == 2


def test_opt_single_pair_closed_form():
    """Repeating one pair costs min(#repeats, cheapest co-location)."""
    for inst in (Instance(2, 2), Instance(3, 2)):
        for m in range(6):
            got = opt_cost(inst, _default(inst), [Request(0, inst.k)] * m)
            assert got == min(m, 2)
    inst = Instance(2, 2)
    for m in range(4):
        assert opt_cost(inst, _default(inst), [Request(0, 1)] * m) == 0


def test_opt_respects_given_initial_mapping():
    inst = Instance(2, 2)
    init = Mapping(inst, [0, 1, 0, 1])
    assert opt_cost(inst, init, [Request(0, 2)] * 5) == 0


def test_opt_k1_pays_every_request():
    inst = Instance(1, 4)
    reqs = [Request(0, 1), Request(2, 3), Request(0, 3)]
    assert opt_cost(inst, _default(inst), reqs) == 3


def test_opt_is_monotone_under_extension():
    inst = Instance(2, 3)
    rng = SplitMix64(31)
    reqs = []
    last = 0
    for _ in range(12):
        u = rng.below(inst.n)
        v = rng.below(inst.n - 1)
        if v >= u:
            v += 1
        reqs.append(Request(u, v))
        cur = opt_cost(inst, _default(inst), reqs)
        assert cur >= last
        last = cur


def test_opt_never_exceeds_online_cost():
    for seed in range(10):
        k = 2 + seed % 2
        inst = Instance(k, 2)
        wl = generate_workload("uniform-random", inst, 20, 600 + seed)
        eng = Engine(inst)
        eng.serve_all(wl.requests)
        assert opt_cost(inst, _default(inst), wl.requests) <= eng.ledger.total


def test_opt_guard():
    inst = Instance(2, 5)
    assert inst.n > OPT_N_GUARD
    with pytest.raises(ResourceLimitError):
        opt_cost(inst, _default(inst), [])


def test_opt_rejects_bad_requests():
    inst = Instance(2, 2)
    with pytest.raises(InputError):
        opt_cost(inst, _default(inst), [Request(0, 9)])


def test_opt_rejects_initial_mapping_of_another_instance():
    inst = Instance(2, 3)
    with pytest.raises(InputError):
        opt_cost(inst, _default(Instance(2, 2)), [Request(0, 1)])
    with pytest.raises(InputError):
        opt_cost(Instance(1, 4), _default(Instance(2, 2)), [])


def test_phase_certificate_empty_range_is_false():
    inst = Instance(2, 2)
    assert opt_per_phase_lower_bound(inst, [Request(0, 2)], [(0, 0)]) == [False]


def test_phase_certificate_single_request_is_false():
    # some mapping keeps the endpoints together, so OPT >= 1 is not forced
    inst = Instance(2, 2)
    reqs = [Request(0, 2)]
    assert opt_per_phase_lower_bound(inst, reqs, [(0, 1)]) == [False]


def test_phase_certificate_rejects_bad_range():
    inst = Instance(2, 2)
    with pytest.raises(InputError):
        opt_per_phase_lower_bound(inst, [Request(0, 2)], [(0, 2)])


def test_completed_phases_always_certify():
    for seed in range(6):
        inst = Instance(2, 2)
        eng, served = _serve(inst, None, "merge-chain", 12, seed)
        assert eng.completed_phases
        flags = opt_per_phase_lower_bound(inst, served, eng.completed_phases)
        assert all(flags)


def test_certificates_beyond_the_optimum_guard():
    inst = Instance(3, 4)
    assert inst.n > OPT_N_GUARD
    pairs = [Request(2 * i, 2 * i + 1) for i in range(6)]
    # six size-2 components need six clusters of 3, and there are four
    assert opt_per_phase_lower_bound(inst, pairs, [(0, 6)]) == [True]
    assert opt_per_phase_lower_bound(inst, pairs, [(0, 3)]) == [False]
    path = [Request(0, 1), Request(1, 2), Request(2, 3)]
    assert opt_per_phase_lower_bound(inst, path, [(0, 3)]) == [True]
    for kind, k, l, length in (("merge-chain", 4, 16, 150), ("uniform-random", 2, 40, 300)):
        inst = Instance(k, l)
        eng, served = _serve(inst, None, kind, length, 3)
        assert eng.completed_phases
        assert all(opt_per_phase_lower_bound(inst, served, eng.completed_phases))


def test_k1_certificates_any_nonempty_phase():
    inst = Instance(1, 2)
    reqs = [Request(0, 1)]
    assert opt_per_phase_lower_bound(inst, reqs, [(0, 1), (1, 1)]) == [True, False]


def test_importing_the_package_does_not_load_numpy():
    # The child imports the package this test imported, from wherever it is.
    src = str(Path(repart.__file__).parents[1])
    # neither the phase certificates nor the offline optimum load it
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import repart; "
        "print('numpy' in sys.modules); "
        "repart.opt_per_phase_lower_bound("
        "repart.Instance(2, 2), [repart.Request(0, 2)], [(0, 1)]); "
        "print('numpy' in sys.modules); "
        "inst = repart.Instance(2, 4); "
        "repart.opt_cost(inst, repart.Mapping.default(inst), [repart.Request(0, 2)]); "
        "print('numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False", "False"]


def test_package_source_never_imports_numpy():
    package = Path(repart.__file__).parent
    pattern = re.compile(r"^\s*(import|from)\s+numpy\b", re.MULTILINE)
    assert not [p.name for p in package.rglob("*.py") if pattern.search(p.read_text())]
