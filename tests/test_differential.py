"""Whole runs against the exhaustive hosting oracle.

Every remap of a run is rebuilt with replay_remaps and handed to
verify.min_affected_over_mappings, which tries every placement of whole
components: comp-min must change exactly as few clusters as the oracle
finds, comp-any at least that many. The ledger rows must stay within
the per-phase cap, and f_obs must be the largest affected count.

At n <= 9 nearly every remap changes only the two merge participants
(3 of 22 333 remaps over 3 000 drawn runs changed three), so the count
check mostly guards the moves the engine realizes, not the planner's
choice of target. The planner is checked at up to 40 clusters against
the census-level deepening search instead.
"""

import dataclasses
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repart.configs import (
    brute_force_min_target,
    config_matrix,
    enumerate_configurations,
    min_affected_target,
)
from repart.engine import ALGORITHMS, Engine, replay_remaps
from repart.model import Instance, Mapping, Request
from repart.report import ExperimentOptions, run_experiment
from repart.verify import min_affected_over_mappings
from repart.workloads import KINDS, generate_workload


@st.composite
def runs(draw):
    # every shape with n <= 9; k is drawn first so that k = 1, which
    # never remaps, gets a quarter of the runs rather than most of them
    k = draw(st.integers(1, 4))
    instance = Instance(k, draw(st.integers(2, 9 // k)))
    workload = generate_workload(
        draw(st.sampled_from(KINDS)),
        instance,
        draw(st.integers(0, 60)),
        draw(st.integers(0, 2**16)),
    )
    if draw(st.booleans()):
        nodes = list(range(instance.n))
        random.Random(draw(st.integers(0, 2**16))).shuffle(nodes)
        assign = [0] * instance.n
        for slot, node in enumerate(nodes):
            assign[node] = slot // k
        workload = dataclasses.replace(workload, initial=Mapping(instance, assign))
    return workload, draw(st.sampled_from(ALGORITHMS))


@settings(max_examples=150, deadline=None)
@given(runs())
def test_every_remap_against_the_hosting_oracle(run):
    workload, algorithm = run
    instance = workload.instance
    report = run_experiment(workload, ExperimentOptions(algorithm=algorithm))
    for record, before, partition in replay_remaps(
        instance, workload.initial, report.outcomes
    ):
        components = partition.components().values()
        oracle = min_affected_over_mappings(instance, components, before)
        assert oracle is not None
        if algorithm == "comp-min":
            assert len(record.affected) == oracle
        else:
            assert len(record.affected) >= oracle
    for row in report.phases:
        cap = (instance.n - 1) * (1 + instance.k * row["max_affected"])
        assert row["cost"] <= cap
    assert report.f_obs == max(report.remap_histogram, default=0)


@st.composite
def census_states(draw):
    """A comp-min engine at k = 2..4 and l <= 40 whose clusters hold drawn
    configurations, and a request joining components of two clusters."""
    k = draw(st.integers(2, 4))
    l = draw(st.integers(2, 40))
    engine = Engine(Instance(k, l))
    heads = []  # (first node, size, cluster) of every component
    for j in range(l):
        counts = draw(st.sampled_from(enumerate_configurations(k)))
        node = j * k
        for size in range(k, 0, -1):
            for _ in range(counts[size - 1]):
                for other in range(node + 1, node + size):
                    engine.serve(Request(node, other))
                heads.append((node, size, j))
                node += size
    pairs = [
        (a, b)
        for a, sa, ca in heads
        for b, sb, cb in heads
        if ca < cb and sa + sb <= k
    ]
    assume(pairs)
    return engine, Request(*draw(st.sampled_from(pairs)))


@settings(max_examples=200, deadline=None)
@given(census_states())
def test_comp_min_plans_the_minimal_census_distance(state):
    engine, request = state
    outcome = engine.serve(request)
    # a merge that cannot be hosted is planned again on singletons
    record = outcome.plan
    matrix = config_matrix(engine.instance.k, record.pseudo)
    _, d = brute_force_min_target(record.x, matrix, record.u)
    y = min_affected_target(matrix, record.x)
    assert sum(abs(a - b) for a, b in zip(record.x, y)) == d
    assert record.distance == d
    assert len(record.affected) == (d + 1) // 2
