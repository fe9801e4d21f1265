"""Tests for the independent cross-checking oracles and the suite runner."""

import pytest

import parity
from repart import graver, verify
from repart.configs import config_matrix
from repart.errors import InputError, ResourceLimitError
from repart.model import Instance, Mapping
from repart.verify import (
    box_kernel_vectors,
    enumerate_remap_states,
    exhaustive_graver,
    min_affected_over_mappings,
    partition_count,
    random_remap_states,
    verify_suite,
)


def test_partition_count_known_values():
    assert [partition_count(n) for n in range(1, 11)] == [
        1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
    ]
    assert partition_count(12) == 77
    assert partition_count(20) == 627


def test_box_kernel_vectors_small_matrix():
    matrix = config_matrix(2, (2, 1))
    got = box_kernel_vectors(matrix, 2)
    assert set(got) == {(1, 1, -1), (-1, -1, 1), (2, 2, -2), (-2, -2, 2)}


def test_exhaustive_graver_guard():
    with pytest.raises(ResourceLimitError):
        exhaustive_graver(config_matrix(4, (0, 0, 0, 2)))


def test_min_affected_exhaustive_swap_case():
    inst = Instance(2, 2)
    mapping = Mapping.default(inst)
    components = ((0, 2), (1,), (3,))
    assert min_affected_over_mappings(inst, components, mapping) == 2


def test_min_affected_identity_needs_no_changes():
    inst = Instance(2, 2)
    mapping = Mapping.default(inst)
    components = ((0,), (1,), (2,), (3,))
    assert min_affected_over_mappings(inst, components, mapping) == 0


def test_min_affected_reports_impossible_fit():
    inst = Instance(2, 2)
    mapping = Mapping.default(inst)
    components = ((0, 1, 2), (3,))
    assert min_affected_over_mappings(inst, components, mapping) is None


def test_min_affected_guards_and_input_checks():
    big = Instance(2, 5)
    with pytest.raises(ResourceLimitError):
        min_affected_over_mappings(big, ((0,),) * 10, Mapping.default(big))
    inst = Instance(2, 2)
    with pytest.raises(InputError):
        min_affected_over_mappings(inst, ((0, 1),), Mapping.default(inst))


def test_enumerate_remap_states_counts():
    # l=2 leaves only the pseudo-cluster, one state per pseudo
    assert len(enumerate_remap_states(2, 2)) == 3
    assert len(enumerate_remap_states(2, 3)) == 6
    assert len(enumerate_remap_states(1, 5)) == 1


def test_remap_state_shape():
    for pseudo, x, u in enumerate_remap_states(2, 4):
        assert x[-1] == 1
        assert sum(x) == 3
        assert config_matrix(2, pseudo).mat_vec(x) == u


def test_random_remap_states_are_reproducible():
    a = random_remap_states(3, 5, 20, seed=4)
    b = random_remap_states(3, 5, 20, seed=4)
    assert a == b
    for pseudo, x, u in a:
        assert x[-1] == 1
        assert 1 <= sum(x) <= 4


def test_verify_suite_passes_at_k3():
    summary = verify_suite(3)
    assert summary.ok
    text = summary.render()
    assert "[PASS]" in text
    assert "[FAIL]" not in text
    assert "checks passed" in text
    assert len(summary.results) == 6


def test_verify_suite_argument_guards():
    with pytest.raises(InputError):
        verify_suite(0)
    with pytest.raises(ResourceLimitError):
        verify_suite(6)


def test_verify_suite_at_k5_renders_the_pinned_text():
    # the output of `repart verify --k-max 5`, pinned as the parity
    # manifest's verify-suite/k5; k >= 4 is where min-remap-equality
    # draws random states
    summary = verify_suite(5)
    assert summary.ok
    text = summary.render()
    assert "357 solvable and 17 unsolvable states" in text
    assert parity.sha256([text]) == parity.read_manifest()["verify-suite/k5"]


def _decompose_twice(h, basis):
    return [h, h]


# Each row breaks one callee of the suite and names the [FAIL] line that
# `verify_suite(2)` renders for the check it feeds.
FAILING_CALLEES = [
    (
        verify, "partition_count", lambda n: 0,
        "[FAIL] configuration-count: k=1: 1 configurations, oracle says 0",
    ),
    (
        graver, "exp_ceiling", lambda k: 0,
        "[FAIL] subdeterminant-cap: k=1 pseudo=(2,): delta 2 > 0",
    ),
    (
        graver, "max_subdeterminant", lambda matrix: 0,
        "[FAIL] basis-inf-norm: k=1 pseudo=(2,): inf-norm 2 > 0",
    ),
    (
        verify, "exhaustive_graver", lambda matrix: (),
        "[FAIL] basis-exhaustive: k=1 pseudo=(2,): completion and box "
        "enumeration differ",
    ),
    (
        verify, "decompose", _decompose_twice,
        "[FAIL] decomposition: k=1 pseudo=(2,): terms do not sum to [6, -3]",
    ),
    (
        verify, "min_affected_target", lambda matrix, x: None,
        "[FAIL] min-remap-equality: k=1: no planner target for solvable "
        "state x=(0, 1), pseudo=(2,)",
    ),
]


@pytest.mark.parametrize(
    "module,name,replacement,line",
    FAILING_CALLEES,
    ids=[row[3].split(":")[0][7:] for row in FAILING_CALLEES],
)
def test_verify_suite_renders_each_failure(module, name, replacement, line, monkeypatch):
    monkeypatch.setattr(module, name, replacement)
    summary = verify_suite(2)
    assert not summary.ok
    lines = summary.render().splitlines()
    assert [text for text in lines if text.startswith("[FAIL]")] == [line]
    assert lines[-1] == "5/6 checks passed (k <= 2)"
