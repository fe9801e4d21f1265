"""End-to-end CLI tests driven through main(argv)."""

import json

import pytest

import repart.cli as cli
from repart.errors import InvariantViolation
from repart.graver import graver_basis_for


@pytest.fixture
def golden_workload(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"k": 2, "l": 2, "requests": [[0, 2]] * 5}))
    return str(path)


def test_configs_json(capsys):
    assert cli.main(["configs", "--k", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 4
    assert payload["count"] == 5
    assert [tuple(c) for c in payload["configurations"]][0] == (4, 0, 0, 0)


def test_configs_csv(capsys):
    assert cli.main(["configs", "--k", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["2,0", "0,1"]


def test_configs_guard_exit_code(capsys):
    assert cli.main(["configs", "--k", "40"]) == 2
    assert "resource limit" in capsys.readouterr().err


def test_graver_payload(capsys):
    assert cli.main(["graver", "--k", "2", "--pseudo", "2,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] == 3
    assert payload["matrix"] == [[2, 0, 2], [0, 1, 1]]
    assert sorted(map(tuple, payload["basis"])) == [(-1, -1, 1), (1, 1, -1)]
    assert payload["size"] == 2
    assert payload["max_one_norm"] == 3
    assert payload["max_inf_norm"] == 1
    assert payload["delta"] == 2
    assert payload["exp_ceiling"] == 8
    assert payload["bounds_ok"] is True


def test_graver_rejects_bad_pseudo(capsys):
    assert cli.main(["graver", "--k", "2", "--pseudo", "a,b"]) == 1
    assert cli.main(["graver", "--k", "2", "--pseudo", "2,0"]) == 1


def test_simulate_golden_is_byte_identical(golden_workload, capsys):
    assert cli.main(["simulate", "--workload", golden_workload, "--opt"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["simulate", "--workload", golden_workload, "--opt"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["totals"] == {"communication": 1, "migration": 2, "total": 3}
    assert payload["opt"]["cost"] == 2
    assert payload["opt"]["ratio"] == "3/2"


def test_simulate_csv_format(golden_workload, capsys):
    assert cli.main(
        ["simulate", "--workload", golden_workload, "--format", "csv"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("phase,start,end,")
    assert len(lines) == 2


def test_simulate_with_generator(capsys):
    argv = [
        "simulate",
        "--gen",
        "split-probe",
        "--k",
        "2",
        "--l",
        "2",
        "--len",
        "6",
        "--seed",
        "1",
    ]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["workload"]["kind"] == "split-probe"
    assert payload["workload"]["requests_served"] == 6


def test_simulate_events_file(golden_workload, tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    assert cli.main(
        ["simulate", "--workload", golden_workload, "--events", str(events)]
    ) == 0
    capsys.readouterr()
    lines = events.read_text().splitlines()
    assert len(lines) == 5
    entry = json.loads(lines[0])
    assert set(entry) == {
        "phase",
        "request",
        "outcome",
        "comm",
        "moves",
        "affected",
        "g_norm",
    }
    assert entry["outcome"] == "paid-remap"
    assert json.loads(lines[1])["outcome"] == "free"


def _event_line(phase, request, outcome, comm=0, moves=0, affected=0, g_norm=None):
    entry = {
        "affected": affected,
        "comm": comm,
        "g_norm": g_norm,
        "moves": moves,
        "outcome": outcome,
        "phase": phase,
        "request": request,
    }
    return json.dumps(entry, sort_keys=True)


@pytest.mark.parametrize(
    "workload,expected",
    [
        (
            # two same-cluster merges fill both clusters; joining them
            # resets the phase and the request is remapped on singletons
            {"k": 2, "l": 2, "requests": [[0, 1], [2, 3], [0, 2], [0, 2]]},
            [
                _event_line(0, [0, 1], "paid-merge-same-cluster"),
                _event_line(0, [2, 3], "paid-merge-same-cluster"),
                _event_line(0, [0, 2], "phase-reset", comm=1),
                _event_line(1, [0, 2], "paid-remap", moves=2, affected=2, g_norm=3),
                _event_line(1, [0, 2], "free"),
            ],
        ),
        (
            # at k=1 no pair fits a cluster: each reset has no reprocess line
            {"k": 1, "l": 2, "requests": [[0, 1], [0, 1]]},
            [
                _event_line(0, [0, 1], "phase-reset", comm=1),
                _event_line(1, [0, 1], "phase-reset", comm=1),
            ],
        ),
    ],
)
def test_simulate_events_file_lines(workload, expected, tmp_path, capsys):
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(workload))
    events = tmp_path / "events.jsonl"
    assert cli.main(["simulate", "--workload", str(path), "--events", str(events)]) == 0
    capsys.readouterr()
    assert events.read_text() == "".join(line + "\n" for line in expected)


def test_simulate_unwritable_events_file_is_an_input_error(
    golden_workload, tmp_path, capsys
):
    events = tmp_path / "no-such-dir" / "events.jsonl"
    argv = ["simulate", "--workload", golden_workload, "--events", str(events)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write event log: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate"],
        ["simulate", "--gen", "uniform-random", "--k", "2"],
        ["simulate", "--gen", "zipf", "--k", "2", "--l", "2"],
        ["simulate", "--k", "2", "--l", "2"],
        ["configs"],
        ["no-such-command"],
        [],
        ["verify", "--k-max", "0"],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert cli.main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_workload_and_gen_flags_conflict(golden_workload, capsys):
    argv = ["simulate", "--workload", golden_workload, "--gen", "split-probe"]
    assert cli.main(argv) == 1


def test_simulate_opt_guard(capsys):
    argv = [
        "simulate",
        "--gen",
        "uniform-random",
        "--k",
        "2",
        "--l",
        "5",
        "--len",
        "3",
        "--opt",
    ]
    assert cli.main(argv) == 2
    assert "resource limit" in capsys.readouterr().err


def test_opt_subcommand(golden_workload, capsys):
    assert cli.main(["opt", "--workload", golden_workload]) == 0
    assert json.loads(capsys.readouterr().out) == {"opt_cost": 2}


def test_opt_missing_file(tmp_path, capsys):
    assert cli.main(["opt", "--workload", str(tmp_path / "nope.json")]) == 1


def test_verify_passes_at_small_k(capsys):
    assert cli.main(["verify", "--k-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert "checks passed" in out


def test_verify_guard(capsys):
    assert cli.main(["verify", "--k-max", "6"]) == 2


def test_verification_failures_exit_3(monkeypatch, capsys):
    def boom(k_max, seed):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setattr(cli, "verify_suite", boom)
    assert cli.main(["verify", "--k-max", "2"]) == 3
    assert "verification failure" in capsys.readouterr().err
