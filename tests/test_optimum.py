"""Tests for the exhaustive offline-optimum oracle and phase certificates."""

import subprocess
import sys

import pytest

from repart.engine import Engine
from repart.errors import InputError, ResourceLimitError
from repart.model import Instance, Mapping, Request
from repart.optimum import (
    OPT_N_GUARD,
    enumerate_valid_mappings,
    opt_cost,
    opt_per_phase_lower_bound,
)
from repart.rng import SplitMix64
from repart.workloads import generate_workload


def _default(instance):
    return Mapping.default(instance)


def test_mapping_enumeration_counts():
    assert len(enumerate_valid_mappings(Instance(2, 2))) == 6
    assert len(enumerate_valid_mappings(Instance(1, 3))) == 6
    assert len(enumerate_valid_mappings(Instance(3, 2))) == 20


def test_enumerated_mappings_are_valid_and_unique():
    inst = Instance(2, 3)
    maps = enumerate_valid_mappings(inst)
    seen = set()
    for row in maps:
        assigned = tuple(int(c) for c in row)
        assert assigned not in seen
        seen.add(assigned)
        assert Mapping(inst, list(assigned)).is_valid()


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
    with pytest.raises(ResourceLimitError):
        opt_per_phase_lower_bound(inst, [], [(0, 0)])


def test_opt_rejects_bad_requests():
    inst = Instance(2, 2)
    with pytest.raises(InputError):
        opt_cost(inst, _default(inst), [Request(0, 9)])


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
        wl = generate_workload("merge-chain", inst, 12, seed)
        eng = Engine(inst)
        gen = wl.make_generator()
        served = []
        while len(served) < wl.length:
            req = gen.next(eng.mapping)
            if req is None:
                break
            served.append(req)
            eng.serve(req)
        assert eng.completed_phases
        flags = opt_per_phase_lower_bound(inst, served, eng.completed_phases)
        assert all(flags)


def test_k1_certificates_any_nonempty_phase():
    inst = Instance(1, 2)
    reqs = [Request(0, 1)]
    assert opt_per_phase_lower_bound(inst, reqs, [(0, 1), (1, 1)]) == [True, False]


def test_importing_the_package_does_not_load_numpy():
    # only the offline optimum needs numpy; it is imported on first use
    probe = "import sys, repart; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
