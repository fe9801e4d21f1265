"""Acceptance gate for the artifact.

Each test covers one release criterion end to end and prints a single
[PASS] line (visible with `pytest -v -s`) once its assertions clear; a
failed criterion surfaces as a plain pytest failure. The heavyweight
shared input is a 1000-run simulation batch over the full k <= 4,
l <= 8 grid with a fixed master seed.
"""

import json

import pytest

import repart.cli as cli
from repart.configs import (
    brute_force_min_target,
    config_matrix,
    pseudo_configurations,
    solve_any_target,
)
from repart.engine import graver_min_move, replay_remaps
from repart.graver import (
    compute_graver,
    decompose,
    exp_ceiling,
    graver_basis_for,
    kernel_basis,
    max_subdeterminant,
    sign_compatible,
)
from repart.model import Instance
from repart.report import ExperimentOptions, run_experiment
from repart.rng import SplitMix64
from repart.verify import (
    enumerate_remap_states,
    exhaustive_graver,
    min_affected_over_mappings,
    partition_count,
    random_remap_states,
)
from repart.workloads import generate_workload

SHAPES = [(k, l) for k in range(1, 5) for l in range(2, 9)]
BATCH_SEED = 20240817
BATCH_RUNS = 1000
RUN_LENGTH = 25

# Frozen list; must agree with the independent recursive counter.
PARTITION_COUNTS = (1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def _passed(capsys, num: int, label: str) -> None:
    # bypass capture so the gate always emits its one-line verdicts
    with capsys.disabled():
        print(f"[PASS] criterion {num:02d}: {label}")


@pytest.fixture(scope="module")
def sim_batch():
    rng = SplitMix64(BATCH_SEED)
    batch = []
    for i in range(BATCH_RUNS):
        k, l = SHAPES[i % len(SHAPES)]
        inst = Instance(k, l)
        workload = generate_workload("uniform-random", inst, RUN_LENGTH, rng.next_u64())
        options = ExperimentOptions(compute_opt=(inst.n <= 8))
        batch.append((inst, run_experiment(workload, options)))
    return batch


def test_criterion_01_partition_counts(capsys):
    for k in range(1, 11):
        assert cli.main(["configs", "--k", str(k)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == PARTITION_COUNTS[k - 1]
        assert payload["count"] == partition_count(k)
    _passed(capsys, 1, "configuration counts for k <= 10 match the recursive oracle")


def test_criterion_02_subdeterminant_cap(capsys):
    checked = 0
    for k in range(1, 6):
        cap = exp_ceiling(k)
        for pseudo in pseudo_configurations(k):
            assert max_subdeterminant(config_matrix(k, pseudo)) <= cap
            checked += 1
    _passed(capsys, 2, f"max subdeterminant within the exp(k) ceiling on {checked} matrices")


def test_criterion_03_basis_infinity_norm_bound(capsys):
    checked = 0
    for k in range(1, 6):
        for pseudo in pseudo_configurations(k):
            matrix = config_matrix(k, pseudo)
            bound = matrix.q * max_subdeterminant(matrix)
            basis = graver_basis_for(k, pseudo)
            for g in basis:
                assert max(abs(e) for e in g) <= bound
                checked += 1
    _passed(capsys, 3, f"all {checked} basis elements obey the q*delta cap")


def test_criterion_04_basis_matches_exhaustive_enumeration(capsys):
    matrices = 0
    for k in range(1, 4):
        for pseudo in pseudo_configurations(k):
            matrix = config_matrix(k, pseudo)
            assert set(compute_graver(matrix)) == set(exhaustive_graver(matrix))
            matrices += 1
    _passed(capsys, 4, f"completion equals box enumeration on {matrices} matrices")


def test_criterion_05_decomposition_totality(capsys):
    rng = SplitMix64(BATCH_SEED + 5)
    total = 0
    for k in range(1, 5):
        for pseudo in pseudo_configurations(k):
            matrix = config_matrix(k, pseudo)
            kernel = kernel_basis(matrix)
            basis = graver_basis_for(k, pseudo)
            done = 0
            while done < 500:
                h = [0] * matrix.q
                for b in kernel:
                    coeff = rng.randint(-4, 4)
                    h = [a + coeff * e for a, e in zip(h, b)]
                if all(v == 0 for v in h) or max(abs(v) for v in h) > 20:
                    continue
                terms = decompose(tuple(h), basis, matrix)
                assert [sum(col) for col in zip(*terms)] == h
                for t in terms:
                    assert t in basis
                    assert sign_compatible(t, h)
                done += 1
                total += 1
    _passed(capsys, 5, f"{total} random kernel vectors decompose sign-compatibly")


def test_criterion_06_valid_target_norms(sim_batch, capsys):
    events = 0
    for inst, report in sim_batch:
        for rec in report.records:
            matrix = config_matrix(inst.k, rec.pseudo)
            assert sum(rec.y) == inst.l
            any_y = solve_any_target(matrix, rec.u)
            assert any_y is not None
            assert sum(any_y) == inst.l
            brute = brute_force_min_target(rec.x, matrix, rec.u)
            assert brute is not None
            assert sum(brute[0]) == inst.l
            events += 1
    assert events > 0
    _passed(capsys, 6, f"target one-norms equal the cluster count on {events} remap events")


def test_criterion_07_min_remap_oracle_equality(sim_batch, capsys):
    def scan_equals_deepening(k, pseudo, x, u):
        matrix = config_matrix(k, pseudo)
        basis = graver_basis_for(k, pseudo)
        g = graver_min_move(basis, x)
        brute = brute_force_min_target(x, matrix, u)
        if brute is None:
            assert g is None
            return 0
        assert g is not None
        assert sum(abs(e) for e in g) == brute[1]
        return 1

    feasible = 0
    states = 0
    for k in range(1, 4):
        for l in range(2, 6):
            for pseudo, x, u in enumerate_remap_states(k, l):
                feasible += scan_equals_deepening(k, pseudo, x, u)
                states += 1
    for pseudo, x, u in random_remap_states(4, 6, 1000, seed=BATCH_SEED + 7):
        feasible += scan_equals_deepening(4, pseudo, x, u)
        states += 1

    third = 0
    for inst, report in sim_batch:
        if inst.n > 8:
            continue
        # the batch's workloads start from the block layout
        for rec, before, partition in replay_remaps(inst, None, report.outcomes):
            components = partition.components().values()
            oracle = min_affected_over_mappings(inst, components, before)
            assert oracle == len(rec.affected)
            third += 1
    assert feasible > 0 and third > 0
    _passed(
        capsys,
        7,
        f"scan = deepening on {states} states; third oracle agrees on {third} events",
    )


def test_criterion_08_k2_always_affects_two_clusters(sim_batch, capsys):
    for pseudo in pseudo_configurations(2):
        basis = graver_basis_for(2, pseudo)
        assert len(basis) > 0
        for g in basis:
            assert sum(abs(e) for e in g) == 3
    events = 0
    for inst, report in sim_batch:
        if inst.k != 2:
            continue
        assert set(report.remap_histogram) <= {2}
        for rec in report.records:
            assert len(rec.affected) == 2
            events += 1
    assert events > 0
    _passed(capsys, 8, f"all k=2 bases have one-norm 3; {events} events affected exactly 2")


def test_criterion_09_per_phase_bound_and_opt_certificates(sim_batch, capsys):
    certified = 0
    for inst, report in sim_batch:
        cap = (inst.n - 1) * (1 + inst.k * report.f_obs)
        assert report.bound_cap == cap
        assert report.bound_holds
        for row in report.phases:
            assert row["cost"] <= cap
        if report.opt is not None:
            completed = sum(1 for row in report.phases if row["completed"])
            assert len(report.phase_certificates) == completed
            assert all(report.phase_certificates)
            certified += completed
    assert certified > 0
    _passed(capsys, 9, f"phase costs within cap; {certified} completed phases certify opt >= 1")


def test_criterion_10_golden_run(tmp_path, capsys):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"k": 2, "l": 2, "requests": [[0, 2]] * 5}))
    outputs = []
    for _ in range(2):
        assert cli.main(["simulate", "--workload", str(path), "--opt"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["totals"] == {"communication": 1, "migration": 2, "total": 3}
    assert payload["opt"]["cost"] == 2
    assert payload["opt"]["ratio"] == "3/2"
    assert payload["opt"]["ratio_decimal"] == "1.500000"
    _passed(capsys, 10, "golden swap run: cost 3 vs opt 2, byte-identical reports")
