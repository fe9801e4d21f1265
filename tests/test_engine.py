"""Tests for the online engine: serve cases, remap plans, and phase resets."""

import dataclasses
import time
from collections import Counter

import pytest

from repart import configs, model
from repart import engine as engine_module
from repart.engine import (
    ALGORITHMS,
    Engine,
    RemapRecord,
    StepOutcome,
    StepTag,
    feasibility_exists,
    graver_min_move,
    replay_remaps,
)
from repart.errors import InputError, InvariantViolation, ResourceLimitError
from repart.graver import graver_basis_for
from repart.model import (
    ComponentPartition,
    CostLedger,
    Instance,
    Mapping,
    PhaseRow,
    Request,
)
from repart.report import run_experiment
from repart.rng import SplitMix64
from repart.verify import check_remap
from repart.workloads import generate_workload

import parity


def _random_requests(instance, count, seed):
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        u = rng.below(instance.n)
        v = rng.below(instance.n - 1)
        if v >= u:
            v += 1
        out.append(Request(u, v))
    return out


def _assert_component_invariant(engine):
    assert engine.mapping.is_valid()
    for members in engine.partition.components().values():
        clusters = {engine.mapping.cluster_of(m) for m in members}
        assert len(clusters) == 1


def test_same_cluster_merge_costs_nothing():
    eng = Engine(Instance(2, 2))
    out = eng.serve(Request(0, 1))
    assert out.tag is StepTag.PAID_MERGE_SAME_CLUSTER
    assert out.communication == 0
    assert out.migration == 0
    assert eng.partition.size_of(0) == 2
    assert eng.ledger.total == 0


def test_repeat_request_within_component_is_free():
    eng = Engine(Instance(2, 2))
    eng.serve(Request(0, 1))
    out = eng.serve(Request(1, 0))
    assert out.tag is StepTag.FREE
    assert eng.ledger.total == 0


def test_cross_cluster_swap():
    """Joining nodes from different two-node clusters pays 1 + 2 moves."""
    eng = Engine(Instance(2, 2))
    out = eng.serve(Request(0, 2))
    assert out.tag is StepTag.PAID_REMAP
    assert out.communication == 1
    assert out.migration == 2
    assert out.plan.distance == 3
    assert out.plan.affected == (0, 1)
    assert out.plan.moves == ((1, 1), (2, 0))
    assert eng.mapping.as_list() == [0, 1, 0, 1]
    assert eng.ledger.total == 3
    _assert_component_invariant(eng)


def test_remap_leaves_untouched_cluster_alone():
    eng = Engine(Instance(2, 3))
    eng.serve(Request(4, 5))
    out = eng.serve(Request(0, 2))
    rec = eng.remap_records[0]
    assert rec.pseudo == (2, 1)
    assert rec.x == (0, 1, 1)
    assert rec.u == (2, 2)
    assert rec.y == (1, 2, 0)
    assert rec.distance == 3
    assert rec.affected == (0, 1)
    assert out.migration == 2
    # cluster 2 kept its paired component and its nodes
    assert eng.mapping.nodes_in(2) == [4, 5]
    assert eng.ledger.total == 3


def test_phase_reset_on_infeasible_packing():
    eng = Engine(Instance(3, 2))
    eng.serve(Request(0, 1))
    eng.serve(Request(3, 4))
    out = eng.serve(Request(2, 5))
    assert out.tag is StepTag.PHASE_RESET
    assert out.phase == 0
    assert out.communication == 1
    assert out.plan is not None
    assert eng.phase == 1
    # the reprocessed remap is phase 1's one remap
    assert eng.ledger.rows[1].remap_events == 1
    assert eng.completed_phases == [(0, 3)]
    assert eng.phase_ranges() == [(0, 3), (2, 3)]
    # communication charged to the old phase, moves to the new one
    assert eng.ledger.rows[0].communication == 1
    assert eng.ledger.rows[0].migration == 0
    assert eng.ledger.rows[1].migration == out.migration
    assert eng.partition.size_of(2) == 2
    _assert_component_invariant(eng)


def test_the_run_is_kept_once_as_the_returned_outcomes():
    eng = Engine(Instance(3, 2))
    assert set(vars(eng)) == {
        "instance",
        "algorithm",
        "mapping",
        "partition",
        "census",
        "ledger",
        "outcomes",
    }
    returned = [eng.serve(Request(u, v)) for u, v in ((0, 1), (3, 4), (2, 5), (2, 5))]
    assert eng.outcomes == returned
    assert eng.requests_served == 4
    assert eng.phase == len(eng.ledger.rows) - 1 == 1
    assert eng.remap_records == [returned[2].plan]


def test_k1_requests_always_reset_and_abandon_the_merge():
    eng = Engine(Instance(1, 2))
    first = eng.serve(Request(0, 1))
    assert first.tag is StepTag.PHASE_RESET
    assert first.plan is None
    second = eng.serve(Request(0, 1))
    assert second.tag is StepTag.PHASE_RESET
    assert eng.completed_phases == [(0, 1), (0, 2)]
    assert eng.phase == 2
    assert eng.ledger.total == 2
    assert eng.mapping.as_list() == [0, 1]
    assert eng.partition.demand(1) == (2,)


def _rows(eng):
    return [dataclasses.astuple(row) for row in eng.ledger.rows]


def test_ledger_rows_are_the_fold_of_the_outcomes():
    # (start, communication, migration, remap_events, max_affected)
    eng = Engine(Instance(3, 2))
    tags = [eng.serve(Request(u, v)).tag for u, v in ((0, 3), (1, 2), (4, 5), (0, 4))]
    assert tags == [
        StepTag.PAID_REMAP,
        StepTag.PAID_REMAP,
        StepTag.PHASE_RESET,
        StepTag.PAID_MERGE_SAME_CLUSTER,
    ]
    # the reset's communication stays with phase 0; its reprocessed
    # remap's two moves open phase 1 at the reset's request index
    assert _rows(eng) == [(0, 3, 4, 2, 2), (2, 0, 2, 1, 2)]
    assert [row.cost for row in eng.ledger.rows] == [7, 2]
    assert (eng.ledger.communication, eng.ledger.migration, eng.ledger.total) == (3, 6, 9)
    assert eng.ledger.communication == sum(o.communication for o in eng.outcomes)
    assert eng.ledger.migration == sum(o.migration for o in eng.outcomes)

    # k = 1: every request resets without a reprocessed remap
    eng = Engine(Instance(1, 3))
    eng.serve(Request(0, 1))
    eng.serve(Request(1, 2))
    assert _rows(eng) == [(0, 1, 0, 0, 0), (0, 1, 0, 0, 0), (1, 0, 0, 0, 0)]
    assert eng.ledger.total == 2


def test_a_serve_whose_audit_fails_charges_nothing(monkeypatch):
    eng = Engine(Instance(3, 2))
    eng.serve(Request(0, 3))
    before = _rows(eng)

    def broken(self, clusters):
        raise InvariantViolation("audit failed")

    monkeypatch.setattr(Engine, "_refresh", broken)
    with pytest.raises(InvariantViolation):
        eng.serve(Request(1, 4))
    assert _rows(eng) == before
    assert len(eng.outcomes) == 1


def test_records_keep_what_the_planner_decided():
    assert [f.name for f in dataclasses.fields(RemapRecord)] == [
        "request", "pseudo", "x", "y", "affected", "moves",
    ]
    assert "phase" not in {f.name for f in dataclasses.fields(PhaseRow)}
    assert {n for n in dir(CostLedger) if not n.startswith("_")} == {
        "communication", "migration", "total",
    }
    inst = Instance(4, 16)
    report = run_experiment(generate_workload("uniform-random", inst, 200, 1))
    records = report.records
    assert records
    for record in records:
        matrix = configs.config_matrix(inst.k, record.pseudo)
        assert record.pseudo is matrix.pseudo
        assert record.u == matrix.mat_vec(record.x)
        assert record.distance == sum(abs(a - b) for a, b in zip(record.x, record.y))
    outcome = report.outcomes[0]
    for obj in (outcome, records[0], outcome.request):
        assert not hasattr(obj, "__dict__")


def test_feasibility_examples():
    assert not feasibility_exists([4, 1, 1], Instance(3, 2))
    assert feasibility_exists([2, 1, 1, 2], Instance(2, 3))
    assert not feasibility_exists([2, 2, 2], Instance(3, 2))


def test_feasibility_rejects_wrong_total():
    with pytest.raises(InputError):
        feasibility_exists([2, 2], Instance(3, 2))


def test_graver_candidate_selection():
    basis = graver_basis_for(2, (2, 1))
    x = (0, 1, 1)
    assert graver_min_move(basis, x) == (-1, -1, 1)


def test_step_tags_are_the_declared_four():
    assert {t.value for t in StepTag} == {
        "free",
        "paid-merge-same-cluster",
        "paid-remap",
        "phase-reset",
    }
    assert ALGORITHMS == ("comp-min", "comp-any")


def test_engine_rejects_bad_setup():
    with pytest.raises(InputError):
        Engine(Instance(2, 2), algorithm="comp-best")
    with pytest.raises(InputError):
        Engine(Instance(2, 2), initial=Mapping.default(Instance(2, 3)))


def test_replay_rejects_an_initial_mapping_of_another_instance():
    inst = Instance(2, 3)
    eng = Engine(inst)
    eng.serve_all([Request(0, 2), Request(1, 4)])
    assert eng.remap_records
    with pytest.raises(InputError, match="different instance"):
        list(replay_remaps(inst, Mapping.default(Instance(2, 4)), eng.outcomes))


def test_replay_walks_live_state_without_whole_state_copies(monkeypatch):
    """An outcome is flat, and replay_remaps hands out its one live
    mapping and partition at every event instead of O(n) snapshots."""
    assert [f.name for f in dataclasses.fields(StepOutcome)] == [
        "tag", "request", "phase", "communication", "plan",
    ]
    inst = Instance(4, 256)
    eng = Engine(inst)
    eng.serve_all(generate_workload("uniform-random", inst, 1000, 3).requests)
    assert any(o.tag is StepTag.PHASE_RESET for o in eng.outcomes)

    def refuse(*args, **kwargs):
        raise AssertionError("replay made an O(n) copy or listing")

    for owner, name in [
        (Mapping, "copy"),
        (ComponentPartition, "components"),
        (ComponentPartition, "member_lists"),
    ]:
        monkeypatch.setattr(owner, name, refuse)
    replayed = list(replay_remaps(inst, None, eng.outcomes))
    assert [record for record, _, _ in replayed] == eng.remap_records
    _, mapping, partition = replayed[0]
    assert all(m is mapping and p is partition for _, m, p in replayed)
    # the live state ends where the engine did
    assert mapping == eng.mapping
    assert [partition.find(u) for u in range(inst.n)] == [
        eng.partition.find(u) for u in range(inst.n)
    ]


def test_initial_mapping_is_copied():
    init = Mapping.default(Instance(2, 2))
    eng = Engine(Instance(2, 2), initial=init)
    eng.serve(Request(0, 2))
    assert init.as_list() == [0, 0, 1, 1]


def test_serve_rejects_out_of_range_request():
    eng = Engine(Instance(2, 2))
    with pytest.raises(InputError):
        eng.serve(Request(0, 4))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_invariants_hold_after_every_request(algorithm):
    for seed in range(6):
        inst = Instance(2 + seed % 2, 2 + seed % 3)
        eng = Engine(inst, algorithm=algorithm)
        for req in _random_requests(inst, 40, 1000 + seed):
            eng.serve(req)
            _assert_component_invariant(eng)
        assert eng.requests_served == 40


def test_merge_participants_are_always_affected():
    for seed in range(8):
        inst = Instance(3, 3)
        eng = Engine(inst)
        for req in _random_requests(inst, 40, 2000 + seed):
            eng.serve(req)
        for rec, before, _ in replay_remaps(inst, None, eng.outcomes):
            assert len(rec.affected) == (rec.distance + 1) // 2
            assert len(rec.affected) >= 2
            assert before.cluster_of(rec.request.u) in rec.affected
            assert before.cluster_of(rec.request.v) in rec.affected


def test_moves_touch_only_affected_clusters_and_respect_k():
    for seed in range(8):
        inst = Instance(3, 4)
        eng = Engine(inst)
        for req in _random_requests(inst, 50, 3000 + seed):
            eng.serve(req)
        for rec, before, _ in replay_remaps(inst, None, eng.outcomes):
            from_counts = dict.fromkeys(rec.affected, 0)
            for node, dest in rec.moves:
                src = before.cluster_of(node)
                assert src != dest
                assert src in rec.affected
                assert dest in rec.affected
                from_counts[src] += 1
            for cluster, moved in from_counts.items():
                assert moved <= inst.k


def test_unreachable_tag_is_never_emitted():
    # endpoints of one component always share a cluster, so a request
    # inside a component is free and a paid one never is
    for seed in range(10):
        inst = Instance(2 + seed % 3, 2 + seed % 2)
        eng = Engine(inst)
        for req in _random_requests(inst, 40, 4000 + seed):
            inside = eng.partition.find(req.u) == eng.partition.find(req.v)
            if inside:
                assert eng.mapping.cluster_of(req.u) == eng.mapping.cluster_of(req.v)
            out = eng.serve(req)
            assert (out.tag is StepTag.FREE) == inside


def test_k2_remaps_always_affect_exactly_two_clusters():
    for l in (2, 3, 4):
        inst = Instance(2, l)
        eng = Engine(inst)
        for req in _random_requests(inst, 60, 50 + l):
            eng.serve(req)
        assert eng.remap_records, "workload produced no remap events"
        assert all(len(r.affected) == 2 for r in eng.remap_records)


def test_merges_per_phase_stay_below_node_count():
    inst = Instance(3, 3)
    eng = Engine(inst)
    for req in _random_requests(inst, 120, 77):
        eng.serve(req)
    merging = {StepTag.PAID_MERGE_SAME_CLUSTER, StepTag.PAID_REMAP}
    per_phase: dict = {}
    for outcome in eng.outcomes:
        # a reset merges in the next phase when it has a plan
        if outcome.tag in merging or outcome.plan is not None:
            phase = outcome.phase + (outcome.tag is StepTag.PHASE_RESET)
            per_phase[phase] = per_phase.get(phase, 0) + 1
    assert per_phase
    for count in per_phase.values():
        assert count <= inst.n - 1


def test_comp_any_uses_valid_but_not_necessarily_minimal_targets():
    inst = Instance(3, 3)
    eng = Engine(inst, algorithm="comp-any")
    for req in _random_requests(inst, 60, 9):
        eng.serve(req)
    assert eng.remap_records
    for rec in eng.remap_records:
        assert rec.distance % 2 == 1
        assert rec.distance >= 3
        assert sum(rec.y) == inst.l


@pytest.mark.parametrize("k,l", [(2, 1100), (4, 1024)])
def test_large_instances_serve_cross_cluster_requests(k, l):
    # the packing search once recursed once per cluster and hit the
    # interpreter's recursion limit on the first cross-cluster request
    workload = generate_workload("uniform-random", Instance(k, l), 20, 1)
    report = run_experiment(workload)
    assert report.requests_served == 20
    assert report.records


def test_merge_check_does_not_backtrack_on_a_skewed_packing():
    # 686, 637, 366, 58 and 366 components of sizes 1..5: checking the
    # merges below in the fixed configuration order took over 1 s each.
    # comp-min plans them at t = 0 and asks for no check, so ask here
    eng = parity.skewed_engine("comp-min")
    assert eng.requests_served == 3007
    assert all(o.tag is StepTag.PAID_MERGE_SAME_CLUSTER for o in eng.outcomes)
    configs._packable.cache_clear()
    start = time.perf_counter()
    for u, v in parity.SKEWED_REQUESTS:
        partition = eng.partition
        su, sv = (partition.size_of(partition.find(node)) for node in (u, v))
        assert configs.demand_packable(configs.merged(partition.demand(5), su, sv), 5)
        assert eng.serve(Request(u, v)).tag is StepTag.PAID_REMAP
    assert time.perf_counter() - start < 1.0
    assert [len(record.affected) for record in eng.remap_records] == [2, 2, 2]


def test_comp_any_serves_a_skewed_packing_within_a_second():
    # its greatest packing backtracked for about 1 s a serve here, and
    # scoring every open slot per affected cluster then took most of 0.1 s
    eng = parity.skewed_engine("comp-any")
    configs._packable.cache_clear()
    start = time.perf_counter()
    for u, v in parity.SKEWED_REQUESTS:
        assert eng.serve(Request(u, v)).tag is StepTag.PAID_REMAP
    assert time.perf_counter() - start < 1.0


def test_remap_check_does_not_backtrack_on_a_skewed_packing():
    # the --verify check of the three remaps above capped its deepening
    # search with the fixed-order packing, over 1 s per remap
    eng = parity.skewed_engine("comp-min")
    for u, v in parity.SKEWED_REQUESTS:
        eng.serve(Request(u, v))
    records = eng.remap_records
    assert len(records) == 3
    for record in records:
        graver_basis_for(5, record.pseudo)
    start = time.perf_counter()
    for record in records:
        assert check_remap(5, record.pseudo, record.x, record.y) is None
    assert time.perf_counter() - start < 1.0


def test_remaps_planned_at_t0_ask_for_no_packing_check():
    # the planner alone decides a remap: the whole-demand check runs only
    # when it finds no target, and a remap it plans at t = 0 never does
    inst = Instance(4, 256)
    eng = Engine(inst)
    configs._packable.cache_clear()
    for request in generate_workload("uniform-random", inst, 150, 5).requests:
        assert eng.serve(request).tag is not StepTag.PHASE_RESET
    assert len(eng.remap_records) > 100
    assert all(len(record.affected) == 2 for record in eng.remap_records)
    assert configs._packable.cache_info().misses == 0


def test_serves_and_resets_stay_off_the_whole_state_scans(monkeypatch):
    """Serving reads only the components and clusters a request touches:
    the O(n) listings and recounts are for audit() alone."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in [
        (ComponentPartition, "member_lists"),
        (ComponentPartition, "components"),
        (Mapping, "is_valid"),
        (model, "component_size_census"),
        (engine_module, "component_size_census"),
    ]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    inst = Instance(4, 1024)
    eng = Engine(inst)
    tags = Counter(
        eng.serve(r).tag
        for r in generate_workload("uniform-random", inst, 2000, 3).requests
    )
    assert tags[StepTag.PAID_REMAP] > 0
    assert tags[StepTag.PHASE_RESET] > 0
    assert calls == {}
    eng.audit()
    assert set(calls) == {"member_lists", "components", "is_valid", "component_size_census"}


def _engine_state(eng):
    return (
        eng.mapping.as_list(),
        eng.partition.components(),
        eng.partition.demand(eng.instance.k),
        list(eng.census.counts),
        {cfg: list(ids) for cfg, ids in eng.census.clusters_with.items()},
        [dataclasses.astuple(row) for row in eng.ledger.rows],
        list(eng.outcomes),
        eng.remap_records,
        list(eng.completed_phases),
        eng.phase_ranges(),
        eng.phase,
        eng.requests_served,
        eng.f_obs,
    )


def test_serve_that_fails_to_plan_leaves_the_engine_unchanged(monkeypatch):
    # with no search budget the planner stops at its first multiset
    monkeypatch.setattr(configs, "DEFAULT_SEARCH_BUDGET", 0)
    eng = Engine(Instance(8, 4))
    eng.serve(Request(0, 1))
    before = _engine_state(eng)
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            eng.serve(Request(0, 8))
        assert _engine_state(eng) == before
        eng.audit()
    eng.serve(Request(8, 9))
    assert eng.requests_served == 2
    eng.audit()


def test_reset_that_fails_to_plan_leaves_the_engine_unchanged(monkeypatch):
    monkeypatch.setattr(configs, "DEFAULT_SEARCH_BUDGET", 0)
    eng = Engine(Instance(8, 2))
    for v in range(1, 5):
        eng.serve(Request(0, v))
        eng.serve(Request(8, 8 + v))
    before = _engine_state(eng)
    # two size-5 components cannot share a cluster: the request resets
    # the phase, and planning it again on singletons runs out of budget
    with pytest.raises(ResourceLimitError):
        eng.serve(Request(0, 8))
    assert _engine_state(eng) == before
    eng.audit()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_census_that_drifted_from_the_partition_is_caught(algorithm):
    eng = Engine(Instance(2, 4), algorithm=algorithm)
    # cluster 3 drops out of the census, so the state the planner reads,
    # x = (1, 0, 1), no longer holds the partition's size demand
    eng.census.clusters_with[(2, 0)].remove(3)
    before = _engine_state(eng)
    with pytest.raises(InvariantViolation):
        eng.serve(Request(0, 2))
    assert _engine_state(eng) == before


def test_remaps_keep_the_lowest_id_clusters_of_each_configuration():
    partial = 0
    for seed in range(8):
        inst = Instance(3, 5)
        eng = Engine(inst)
        for req in _random_requests(inst, 60, 5000 + seed):
            eng.serve(req)
        for rec, before, partition in replay_remaps(inst, None, eng.outcomes):
            merged = {before.cluster_of(n) for n in (rec.request.u, rec.request.v)}
            sizes = {}
            for members in partition.components().values():
                home = {before.cluster_of(m) for m in members}
                if len(home) == 1:
                    sizes.setdefault(home.pop(), []).append(len(members))
            same_config = {}
            for j in range(inst.l):
                if j not in merged:
                    same_config.setdefault(tuple(sorted(sizes[j])), []).append(j)
            for ids in same_config.values():
                evicted = [j for j in ids if j in rec.affected]
                assert evicted == ids[len(ids) - len(evicted) :]
                partial += 0 < len(evicted) < len(ids)
    assert partial > 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_planner_that_refuses_a_feasible_event_is_caught(monkeypatch, algorithm):
    monkeypatch.setattr(engine_module, "min_affected_target", lambda matrix, x: None)
    monkeypatch.setattr(engine_module, "solve_any_target", lambda matrix, u: None)
    eng = Engine(Instance(2, 4), algorithm=algorithm)
    eng.serve(Request(0, 1))
    before = _engine_state(eng)
    with pytest.raises(InvariantViolation, match="feasible event lost its valid target"):
        eng.serve(Request(2, 4))
    assert _engine_state(eng) == before
