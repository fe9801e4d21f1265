"""Tests for configuration enumeration, state vectors, and target search.

Expected counts come from the independent recursive partition counter in
repart.verify, which was written before this module and frozen here.
"""

import gc
from collections import defaultdict
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repart import configs
from repart.configs import (
    brute_force_min_target,
    build_state,
    config_matrix,
    counts_from_sizes,
    demand_packable,
    enumerate_configurations,
    is_valid_target,
    merged,
    min_affected_target,
    nd,
    pseudo_configurations,
    solve_any_target,
)
from repart.engine import graver_min_move
from repart.errors import InputError, InvariantViolation, ResourceLimitError
from repart.graver import graver_basis_for
from repart.rng import SplitMix64
from repart.verify import partition_count, random_remap_states

# Frozen from the oracle: partition_count(k) for k = 1..10.
PARTITION_COUNTS = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_configuration_counts_match_partition_oracle():
    for k in range(1, 11):
        got = len(enumerate_configurations(k))
        assert got == partition_count(k)
        assert got == PARTITION_COUNTS[k - 1]


def test_configurations_k1_and_k2():
    assert enumerate_configurations(1) == ((1,),)
    assert enumerate_configurations(2) == ((2, 0), (0, 1))
    assert len(enumerate_configurations(4)) == 5


def test_every_configuration_demands_exactly_k():
    for k in range(1, 8):
        for c in enumerate_configurations(k):
            assert nd(c) == k
        for p in pseudo_configurations(k):
            assert nd(p) == 2 * k


def test_nd_examples():
    assert nd((2, 0)) == 2
    assert nd((0, 0, 1)) == 3
    assert nd((2, 1)) == 4


def test_counts_from_sizes():
    assert counts_from_sizes([1, 1, 2], 2) == (2, 1)
    assert counts_from_sizes([3], 3) == (0, 0, 1)
    assert counts_from_sizes([], 2) == (0, 0)


def test_config_matrix_layout():
    matrix = config_matrix(2, (2, 1))
    assert matrix.q == 3
    assert matrix.pseudo_index == 2
    assert matrix.rows() == ((2, 0, 2), (0, 1, 1))
    assert matrix.mat_vec((0, 1, 1)) == (2, 2)


def test_config_matrix_rejects_non_pseudo_column():
    with pytest.raises(InputError):
        config_matrix(2, (2, 0))


# Worked states used below: E1 is k=2, l=3 with one untouched cluster
# holding a size-2 component; E2 is k=2, l=2 with no untouched cluster.
E1_MATRIX = config_matrix(2, (2, 1))
E1_X = (0, 1, 1)
E1_U = (2, 2)
E2_X = (0, 0, 1)
E2_U = (2, 1)


def test_build_state_with_untouched_cluster():
    x, u = build_state([[2]], (2, 1), 2)
    assert x == E1_X
    assert u == E1_U


def test_build_state_no_untouched_clusters():
    x, u = build_state([], (2, 1), 2)
    assert x == E2_X
    assert u == E2_U


def test_build_state_demand_totals_lk():
    x, u = build_state([[3], [1, 1, 1]], (2, 2, 0), 3)
    clusters = sum(x) + 1
    assert x[-1] == 1
    assert nd(u) == clusters * 3


def test_build_state_rejects_unknown_census():
    with pytest.raises(InvariantViolation):
        build_state([[1]], (2, 1), 2)


def test_is_valid_target_examples():
    assert is_valid_target((1, 2, 0), E1_MATRIX, E1_U)
    assert not is_valid_target((0, 2, 0), E1_MATRIX, E1_U)
    # nonzero pseudo coordinate disqualifies even when demand matches
    assert E1_MATRIX.mat_vec((0, 1, 1)) == E1_U
    assert not is_valid_target((0, 1, 1), E1_MATRIX, E1_U)


def test_solve_any_target_unique_solution():
    assert solve_any_target(E1_MATRIX, E1_U) == (1, 2, 0)


def test_solve_any_target_infeasible_demand():
    matrix = config_matrix(3, pseudo_configurations(3)[0])
    # three size-2 components cannot fill two capacity-3 clusters
    assert solve_any_target(matrix, (0, 3, 0)) is None


def test_solve_any_target_scaled_column():
    matrix = config_matrix(3, pseudo_configurations(3)[0])
    for c in enumerate_configurations(3):
        u = tuple(4 * entry for entry in c)
        y = solve_any_target(matrix, u)
        assert y is not None
        assert is_valid_target(y, matrix, u)


def test_demand_packable():
    assert demand_packable((2, 2), 2)
    assert not demand_packable((0, 3, 0), 3)


def test_merged_joins_one_component_of_each_size():
    assert merged((4, 0, 0, 0), 1, 1) == (2, 1, 0, 0)
    assert merged((1, 1, 1, 0), 1, 3) == (0, 1, 0, 1)
    assert merged([0, 2, 0, 0], 2, 2) == (0, 0, 0, 1)
    assert merged((0, 2, 0), 2, 2) is None  # size 4 outgrows k = 3


def _first_packing(u, columns):
    """Reference: the packing search written as plain recursion."""
    fail = set()

    def rec(rem):
        live = [i for i, r in enumerate(rem) if r > 0]
        if not live:
            return ()
        if rem in fail:
            return None
        s = live[-1]
        for j, col in enumerate(columns):
            if col[s] and all(c <= r for c, r in zip(col, rem)):
                sub = rec(tuple(r - c for r, c in zip(rem, col)))
                if sub is not None:
                    return (j,) + sub
        fail.add(rem)
        return None

    picks = rec(tuple(u))
    if picks is None:
        return None
    return tuple(picks.count(j) for j in range(len(columns))) + (0,)


def test_solve_any_target_finds_the_reference_search_first_solution():
    rng = SplitMix64(515)
    solvable = 0
    for _ in range(3000):
        k = rng.randint(1, 6)
        columns = enumerate_configurations(k)
        u = [0] * k
        for _ in range(rng.randint(1, 9)):
            u = [a + b for a, b in zip(u, rng.choice(columns))]
        # one unit of demand moved to another size: often unpackable
        i, j = rng.below(k), rng.below(k)
        if u[i]:
            u[i] -= 1
            u[j] += 1
        matrix = config_matrix(k, (0,) * (k - 1) + (2,))
        want = _first_packing(u, columns)
        assert solve_any_target(matrix, u) == want
        assert demand_packable(u, k) == (want is not None)
        solvable += want is not None
    assert 0 < solvable < 3000


@st.composite
def filled_demands(draw):
    """(u, k): drawn counts of components of size 2..k, and singletons
    to fill whole clusters; larger components often do not fit."""
    k = draw(st.integers(1, 6))
    larger = st.lists(st.integers(0, 6), min_size=k - 1, max_size=k - 1)
    u = [draw(st.integers(0, 2))] + draw(larger)
    u[0] += -nd(u) % k
    return tuple(u), k


@settings(max_examples=500, deadline=None)
@given(filled_demands())
@example(((0, 3, 0), 3))
@example(((0, 0, 2, 1, 0), 5))
@example(((1, 1, 3, 37), 4))
def test_demand_packable_agrees_with_the_fixed_order_search(demand):
    # demand_packable searches the configurations in reverse order
    u, k = demand
    want = _first_packing(u, enumerate_configurations(k)) is not None
    assert demand_packable(u, k) == want


def _every_packing(columns, clusters):
    """Demand -> every count vector of exactly `clusters` configurations
    that meets it, by drawing every multiset of that many columns."""
    out = defaultdict(list)
    for picks in combinations_with_replacement(range(len(columns)), clusters):
        y = tuple(picks.count(j) for j in range(len(columns)))
        d = tuple(sum(n * col[s] for n, col in zip(y, columns)) for s in range(len(columns[0])))
        out[d].append(y)
    return out


def test_packings_are_the_extremes_of_every_packing():
    # every demand of one to four clusters at k <= 6, and every demand
    # one merge away from one of them that no packing meets
    unpackable = 0
    for k in range(1, 7):
        columns = enumerate_configurations(k)
        matrix = config_matrix(k, (0,) * (k - 1) + (2,))
        largest = [max(s for s, c in enumerate(col) if c) for col in columns]
        # solve_any_target reads the configurations largest component
        # first, ties in configuration order
        visit = sorted(range(len(columns)), key=lambda j: -largest[j])
        for clusters in range(1, 5):
            packings = _every_packing(columns, clusters)
            for d, ys in packings.items():
                assert configs._least_packing(d, k) == min(ys)
                greatest = max(ys, key=lambda y: [y[j] for j in visit])
                assert solve_any_target(matrix, d) == greatest + (0,)
                assert demand_packable(d, k)
                for a in range(1, k + 1):
                    for b in range(a, k + 1):
                        after = merged(d, a, b)
                        if after is None or min(after) < 0 or after in packings:
                            continue
                        unpackable += 1
                        assert configs._least_packing(after, k) is None
                        assert solve_any_target(matrix, after) is None
                        assert not demand_packable(after, k)
    assert unpackable > 0


def test_packing_search_handles_thousands_of_clusters():
    # the search once recursed once per cluster filled; now its depth is
    # at most the configuration count, 77 at MAX_ENUMERATION_K
    l = 5000
    for k in (2, 4, configs.MAX_ENUMERATION_K):
        u = (k * l - 2, 1) + (0,) * (k - 2)
        assert demand_packable(u, k)
        y = solve_any_target(config_matrix(k, (0,) * (k - 1) + (2,)), u)
        assert sum(y) == l
    # three size-3 components but one singleton to complete them
    assert not demand_packable((1, 1, 3, l - 3), 4)


def test_brute_force_min_target_worked_states():
    assert brute_force_min_target(E1_X, E1_MATRIX, E1_U) == ((1, 2, 0), 3)
    assert brute_force_min_target(E2_X, E1_MATRIX, E2_U) == ((1, 1, 0), 3)


def test_brute_force_min_target_infeasible():
    matrix = config_matrix(3, (0, 3, 0))
    x = (0, 0, 0, 1)
    u = matrix.mat_vec(x)
    assert u == (0, 3, 0)
    assert demand_packable(u, 3) is False
    assert brute_force_min_target(x, matrix, u) is None


def test_brute_force_min_target_checks_state():
    with pytest.raises(InputError):
        brute_force_min_target((0, 1, 0), E1_MATRIX, E1_U)
    with pytest.raises(InputError):
        brute_force_min_target(E1_X, E1_MATRIX, (9, 9))


def test_brute_force_min_target_leaves_nothing_for_the_collector():
    # a self-recursive closure once left 22 objects per call to the
    # cyclic collector, on every remap that --verify checks
    matrix = config_matrix(4, (0, 0, 0, 2))
    x = (0, 0, 1, 0, 1, 1)
    u = matrix.mat_vec(x)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert brute_force_min_target(x, matrix, u) == ((0, 0, 1, 0, 3, 0), 3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_brute_force_min_target_budget_guard(monkeypatch):
    monkeypatch.setattr(configs, "DEFAULT_SEARCH_BUDGET", 1)
    with pytest.raises(ResourceLimitError):
        brute_force_min_target(E1_X, E1_MATRIX, E1_U)


def test_targets_have_norm_l_and_odd_distance():
    """‖y‖₁ = cluster count and ‖x − y‖₁ is odd and at least 3."""
    for k in range(1, 5):
        for pseudo, x, u in random_remap_states(k, l_max=6, count=40, seed=97 + k):
            matrix = config_matrix(k, pseudo)
            l = sum(x) + 1
            found = brute_force_min_target(x, matrix, u)
            if found is None:
                assert solve_any_target(matrix, u) is None
                continue
            y, d = found
            assert sum(y) == l
            assert d == sum(abs(a - b) for a, b in zip(x, y))
            assert d % 2 == 1
            assert d >= 3
            any_y = solve_any_target(matrix, u)
            assert any_y is not None
            assert sum(any_y) == l


@st.composite
def remap_states(draw, k_min, k_max, l_max):
    """(k, pseudo, x) of a remap event with 2..l_max clusters."""
    k = draw(st.integers(k_min, k_max))
    pseudo = draw(st.sampled_from(pseudo_configurations(k)))
    n_real = len(enumerate_configurations(k))
    l = draw(st.integers(2, l_max))
    x = [0] * n_real + [1]
    for c in draw(st.lists(st.integers(0, n_real - 1), min_size=l - 2, max_size=l - 2)):
        x[c] += 1
    return k, pseudo, tuple(x)


@settings(max_examples=300, deadline=None)
@given(remap_states(1, 5, 40))
def test_min_affected_target_is_the_basis_scan_target(state):
    k, pseudo, x = state
    matrix = config_matrix(k, pseudo)
    g = graver_min_move(graver_basis_for(k, pseudo), x)
    want = None if g is None else tuple(a - b for a, b in zip(x, g))
    assert min_affected_target(matrix, x) == want


@settings(max_examples=60, deadline=None)
@given(remap_states(6, 8, 12))
def test_min_affected_target_distance_matches_deepening_search(state):
    k, pseudo, x = state
    matrix = config_matrix(k, pseudo)
    u = matrix.mat_vec(x)
    y = min_affected_target(matrix, x)
    found = brute_force_min_target(x, matrix, u)
    if found is None:
        assert y is None
        return
    assert is_valid_target(y, matrix, u)
    assert sum(abs(a - b) for a, b in zip(x, y)) == found[1]


# The comp-min target search as first written, kept verbatim as the
# reference for the search that replaced its multiset enumeration.
DEFAULT_SEARCH_BUDGET = configs.DEFAULT_SEARCH_BUDGET
_least_packing = configs._least_packing


def _reference_min_affected_target(matrix, x):
    """Minimum-distance valid target for state x, or None if none exists.

    For t = 0, 1, ... tries every multiset R of t real clusters taken
    from x: the pseudo and R hold demand d = A*(R + pseudo), and when d
    packs, y = x - R + Y - pseudo is a target at distance 2t + 3, where
    Y is the lexicographically least packing of d. The first t with a
    candidate is the minimum; ties go to the lexicographically least y,
    which is the target the Graver-basis scan picks. Raises
    ResourceLimitError past DEFAULT_SEARCH_BUDGET multisets.
    """
    pi = matrix.pseudo_index
    x = tuple(x)
    if len(x) != matrix.q or x[pi] != 1:
        raise InputError(f"state {x} needs length q={matrix.q} and pseudo entry 1")
    support = [c for c in range(pi) if x[c]]
    examined = 0
    for t in range(sum(x[:pi]) + 1):
        # no t helps when the whole demand does not pack; most remaps
        # succeed at t = 0, so the check waits until that fails
        if t == 1 and not demand_packable(matrix.mat_vec(x), matrix.k):
            return None
        best = None
        for r in _bounded_multisets(x, support, 0, t, [0] * pi + [1]):
            examined += 1
            if examined > DEFAULT_SEARCH_BUDGET:
                raise ResourceLimitError(
                    f"min-affected target search exceeded {DEFAULT_SEARCH_BUDGET} multisets"
                )
            packing = _least_packing(matrix.mat_vec(r), matrix.k)
            if packing is None:
                continue
            y = tuple(a - b + c for a, b, c in zip(x, r, packing)) + (0,)
            if best is None or y < best:
                best = y
        if best is not None:
            return best
    return None


def _bounded_multisets(x, support, at, left, r):
    """Each way to add left more clusters to r from support[at:], taking
    at most x_c of configuration c; r is restored afterwards.

    Module-level rather than a closure: a self-recursive closure is a
    reference cycle, garbage that only the cyclic collector frees.
    """
    if left == 0:
        yield tuple(r)
        return
    if at == len(support):
        return
    c = support[at]
    for take in range(min(left, x[c]), -1, -1):
        r[c] = take
        yield from _bounded_multisets(x, support, at + 1, left - take, r)
    r[c] = 0


@st.composite
def skewed_remap_states(draw, k_min, k_max, l_max):
    """(k, pseudo, x) with the 0..l_max - 2 real clusters on one to three
    configurations, so a multiset of t clusters often wants more of a
    configuration than x holds."""
    k = draw(st.integers(k_min, k_max))
    pseudo = draw(st.sampled_from(pseudo_configurations(k)))
    n_real = len(enumerate_configurations(k))
    used = draw(st.lists(st.integers(0, n_real - 1), min_size=1, max_size=3, unique=True))
    l = draw(st.integers(2, l_max))
    x = [0] * n_real + [1]
    for c in draw(st.lists(st.sampled_from(used), min_size=l - 2, max_size=l - 2)):
        x[c] += 1
    return k, pseudo, tuple(x)


@settings(max_examples=300, deadline=None)
@given(st.one_of(remap_states(1, 8, 16), skewed_remap_states(1, 8, 16)))
# t = 2 further clusters, with some configuration held once
@example((6, (0, 0, 0, 3, 0, 0), (0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 1)))
@example((6, (0, 1, 0, 0, 2, 0), (0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 1)))
@example((6, (0, 0, 1, 1, 1, 0), (0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1)))
def test_min_affected_target_matches_the_reference_enumeration(state):
    k, pseudo, x = state
    matrix = config_matrix(k, pseudo)
    assert min_affected_target(matrix, x) == _reference_min_affected_target(matrix, x)


def test_a_least_packing_miss_leaves_no_reference_cycle():
    # the packing search's serving callers, on a demand that packs and
    # on one that does not
    matrix = config_matrix(4, (0, 0, 0, 2))
    x = (0, 0, 1, 0, 1, 1)
    configs._least_packing.cache_clear()
    configs._packable.cache_clear()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert min_affected_target(matrix, x) is not None
        assert configs._least_packing.cache_info().misses > 0
        misses = configs._packable.cache_info().misses
        for u, packs in (((1, 1, 3, 37), False), ((3, 0, 3, 37), True)):
            assert demand_packable(u, 4) is packs
            assert (solve_any_target(matrix, u) is not None) is packs
        assert configs._packable.cache_info().misses == misses + 2
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
