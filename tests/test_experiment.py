"""Tests for experiment orchestration, report assembly, and serialization."""

import csv
import io
import json

import pytest

from repart.errors import InputError
from repart.model import Instance, Request
from repart.report import ExperimentOptions, ratio_strings, run_experiment
from repart.workloads import Workload, generate_workload


def _static(instance, pairs, initial=None):
    return Workload(
        instance=instance,
        kind="static",
        length=len(pairs),
        seed=None,
        requests=tuple(Request(u, v) for u, v in pairs),
        initial=initial,
    )


def test_ratio_strings():
    assert ratio_strings(3, 2) == ("3/2", "1.500000")
    assert ratio_strings(4, 2) == ("2/1", "2.000000")
    assert ratio_strings(1, 3) == ("1/3", "0.333333")
    assert ratio_strings(1, 6) == ("1/6", "0.166667")
    # sixth decimal exactly on a half rounds away from zero
    assert ratio_strings(1, 2000000) == ("1/2000000", "0.000001")


def test_options_reject_unknown_algorithm():
    with pytest.raises(InputError):
        ExperimentOptions(algorithm="comp-max")


def test_repeated_cross_pair_report():
    wl = _static(Instance(2, 2), [(0, 2)] * 5)
    report = run_experiment(wl, ExperimentOptions(compute_opt=True, verify=True))
    assert report.communication == 1
    assert report.migration == 2
    assert report.total == 3
    assert report.opt == 2
    assert report.verified is True
    assert report.f_obs == 2
    assert report.remap_histogram == {2: 1}
    assert report.bound_cap == (wl.instance.n - 1) * (1 + 2 * report.f_obs)
    assert report.bound_holds
    block = report.to_dict()["opt"]
    assert block["ratio"] == "3/2"
    assert block["ratio_decimal"] == "1.500000"


def test_report_json_is_stable_across_runs():
    wl = _static(Instance(2, 2), [(0, 2)] * 5)
    opts = ExperimentOptions(compute_opt=True)
    a = run_experiment(wl, opts).to_json()
    b = run_experiment(wl, opts).to_json()
    assert a == b
    assert a.endswith("\n")
    parsed = json.loads(a)
    assert parsed["totals"]["communication"] + parsed["totals"]["migration"] == 3


def test_empty_workload_reports_zero():
    wl = _static(Instance(2, 2), [])
    report = run_experiment(wl, ExperimentOptions(compute_opt=True))
    assert report.total == 0
    assert report.opt == 0
    assert report.requests_served == 0
    # a zero-cost run has no ratio to report
    assert report.to_dict()["opt"]["ratio"] is None


def test_ratio_absent_without_opt():
    wl = _static(Instance(2, 2), [(0, 2)])
    report = run_experiment(wl, ExperimentOptions())
    assert report.opt is None
    assert report.to_dict()["opt"] is None


def test_phase_rows_reconcile_with_totals():
    for seed in range(8):
        inst = Instance(2 + seed % 2, 2 + seed % 2)
        wl = generate_workload("merge-chain", inst, 20, seed)
        report = run_experiment(wl, ExperimentOptions(verify=True))
        assert report.verified is True
        rows = report.phases
        assert sum(r["communication"] for r in rows) == report.communication
        assert sum(r["migration"] for r in rows) == report.migration
        events = sum(r["remap_events"] for r in rows)
        assert events == sum(report.remap_histogram.values())
        if report.remap_histogram:
            assert report.f_obs == max(report.remap_histogram)
        for row in rows:
            assert row["cost"] <= report.bound_cap
        # every row but the open last one is a completed phase
        assert [r["completed"] for r in rows] == [True] * (len(rows) - 1) + [False]


def test_initial_mapping_reaches_the_engine():
    inst = Instance(2, 2)
    from repart.model import Mapping

    wl = _static(inst, [(0, 2)], initial=Mapping(inst, [0, 1, 0, 1]))
    report = run_experiment(wl, ExperimentOptions(compute_opt=True))
    assert report.total == 0
    assert report.opt == 0


def test_adaptive_run_serves_up_to_length():
    wl = generate_workload("split-probe", Instance(2, 3), 9, 5)
    report = run_experiment(wl, ExperimentOptions())
    assert report.requests_served == 9
    assert report.communication == 9


def test_comp_min_never_observes_more_affected_than_comp_any():
    """Paired seeds: the per-event minimum keeps the observed f down."""
    for seed in range(100):
        k = 2 + seed % 2
        l = 2 + seed % 3
        wl = generate_workload("uniform-random", Instance(k, l), 30, seed)
        f_min = run_experiment(wl, ExperimentOptions(algorithm="comp-min")).f_obs
        f_any = run_experiment(wl, ExperimentOptions(algorithm="comp-any")).f_obs
        assert f_min <= f_any


def test_csv_report_round_trips_phase_rows():
    wl = generate_workload("merge-chain", Instance(2, 2), 12, 3)
    report = run_experiment(wl, ExperimentOptions())
    text = report.to_csv()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(report.phases)
    for parsed, row in zip(rows, report.phases):
        assert int(parsed["phase"]) == row["phase"]
        assert int(parsed["start"]) == row["start"]
        assert int(parsed["end"]) == row["end"]
        assert int(parsed["cost"]) == row["cost"]
        assert parsed["completed"] == str(row["completed"]).lower()


def test_graver_stats_present_for_small_k():
    wl = _static(Instance(2, 2), [(0, 2)] * 5)
    report = run_experiment(wl, ExperimentOptions())
    stats = report.graver_stats
    assert stats["pseudos_seen"] == 1
    assert stats["max_move_one_norm"] == 3
    assert stats["max_basis_one_norm"] == 3
    assert stats["delta_max"] == 2


def test_records_and_events_are_not_serialized():
    wl = _static(Instance(2, 2), [(0, 2)])
    report = run_experiment(wl, ExperimentOptions())
    assert report.records and report.outcomes
    payload = report.to_dict()
    assert "records" not in payload
    assert "outcomes" not in payload


def test_verified_run_above_the_graver_guard():
    # k=8 has no Graver basis: --verify checks every remap against the
    # deepening search alone
    workload = generate_workload("uniform-random", Instance(8, 4), 40, 3)
    report = run_experiment(workload, ExperimentOptions(verify=True))
    assert report.verified is True
    assert len(report.records) > 5
