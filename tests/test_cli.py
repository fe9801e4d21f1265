"""End-to-end CLI tests driven through main(argv)."""

import contextlib
import io
import json
import re
import shlex
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parity
import repart.cli as cli
from repart import configs, engine, graver, optimum, verify
from repart.configs import solve_any_target
from repart.errors import InvariantViolation, VerificationError
from repart.graver import graver_basis_for
from repart.model import MAX_NODES, Instance, Request
from repart.report import ExperimentOptions, run_experiment
from repart.workloads import Workload, generate_workload


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


def test_simulate_prints_the_report_and_writes_its_event_lines(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    argv = ["simulate", "--gen", "merge-chain", "--k", "2", "--l", "3"]
    argv += ["--len", "60", "--seed", "5", "--opt"]
    assert cli.main(argv + ["--events", str(events)]) == 0
    json_out = capsys.readouterr()
    assert cli.main(argv + ["--format", "csv"]) == 0
    csv_out = capsys.readouterr()
    workload = generate_workload("merge-chain", Instance(2, 3), 60, 5)
    report = run_experiment(workload, ExperimentOptions(compute_opt=True))
    assert (json_out.out, json_out.err) == (report.to_json(), "")
    assert (csv_out.out, csv_out.err) == (report.to_csv(), "")
    assert events.read_text(encoding="utf-8") == "".join(engine.event_lines(report.outcomes))


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


def test_simulate_workload_and_gen_flags_conflict(golden_workload):
    gen_only = (["--k", "2"], ["--l", "2"], ["--len", "5"], ["--seed", "9"])
    for flags in (["--gen", "split-probe"], *gen_only):
        code, out, err = _run(["simulate", "--workload", golden_workload, *flags])
        assert code == 1, flags
        assert out == ""
        assert _is_one_error_line(err), flags


def test_simulate_opt_guard(monkeypatch, capsys):
    serves = []
    original = engine.Engine.serve
    monkeypatch.setattr(
        engine.Engine, "serve", lambda self, r: serves.append(r) or original(self, r)
    )
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
    assert serves == []


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


def _run(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _is_one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_verify_prints_the_failing_check_and_exits_3(monkeypatch):
    monkeypatch.setattr(verify, "partition_count", lambda n: 0)
    code, out, err = _run(["verify", "--k-max", "2"])
    assert code == 3
    assert "[FAIL] configuration-count: k=1: 1 configurations, oracle says 0\n" in out
    assert out.endswith("5/6 checks passed (k <= 2)\n")
    assert err == "verification failure: certification suite reported failures\n"


@pytest.mark.parametrize(
    "payload",
    [
        b'{"k": 2, "l": 2, "requests": [\xff]}',
        b"[" * 100_000 + b"]" * 100_000,
        b'{"k": ' + b"1" * 5000 + b', "l": 2, "requests": []}',
    ],
    ids=["not-utf-8", "nested-past-recursion-limit", "int-past-digit-limit"],
)
def test_unreadable_workload_file_is_one_error_line(payload, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    for command in ("simulate", "opt"):
        code, out, err = _run([command, "--workload", str(path)])
        assert code == 1
        assert out == ""
        assert _is_one_error_line(err)
        assert err.startswith("error: workload file is not valid JSON: ")


def test_oversized_instance_is_refused_before_it_is_built(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"k": 1000000000, "l": 2, "requests": []}))
    for command in ("simulate", "opt"):
        code, out, err = _run([command, "--workload", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("resource limit: ") and err.count("\n") == 1


# mixed JSON values; integers are either small or past the instance
# guard, which refuses n = k * l > MAX_NODES before anything of size n is
# built, so a drawn instance is either tiny or never allocated
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.integers(MAX_NODES + 1, 2**62)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_KEYS = ("k", "l", "requests", "initial")
_well_formed = st.integers(1, 4).flatmap(
    lambda k: st.integers(2, 6).flatmap(
        lambda l: st.fixed_dictionaries(
            {
                "k": st.just(k),
                "l": st.just(l),
                "requests": st.lists(
                    st.lists(st.integers(0, k * l - 1), min_size=2, max_size=2),
                    max_size=6,
                ),
            },
            optional={"initial": st.permutations([j for j in range(l) for _ in range(k)])},
        )
    )
)
# a well-formed workload with some keys dropped, some replaced by mixed
# values or near-miss request lists, and some extra keys
_workload_objects = st.builds(
    lambda base, dropped, replaced, extras: {
        **extras,
        **{key: value for key, value in base.items() if key not in dropped},
        **replaced,
    },
    _well_formed,
    st.sets(st.sampled_from(_KEYS), max_size=2),
    st.dictionaries(
        st.sampled_from(_KEYS),
        _json_values | st.lists(st.lists(st.integers(-1, 24), max_size=3), max_size=4),
        max_size=2,
    ),
    st.dictionaries(
        st.text(max_size=5).filter(lambda key: key not in _KEYS), _json_values, max_size=2
    ),
)


@settings(max_examples=150, deadline=None)
@given(_workload_objects)
def test_drawn_workload_files_map_to_documented_exit_codes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "workload.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for command, allowed in (("simulate", {0, 1, 2}), ("opt", {0, 1, 2})):
        code, _, err = _run([command, "--workload", str(path)])
        assert code in allowed, (command, data, err)
        if code == 1:
            assert _is_one_error_line(err), (command, data, err)
        if code == 2:
            assert err.startswith("resource limit: ") and err.count("\n") == 1


def _separating_workload(k=4, l=8):
    """Free pairs inside each of the first l/2 clusters, then one
    request across singletons of clusters l/2 and l/2 + 1."""
    pairs = []
    for j in range(l // 2):
        pairs += [(k * j, k * j + 1), (k * j + 2, k * j + 3)]
    pairs.append((k * l // 2, k * (l // 2 + 1)))
    return pairs


def test_verify_fails_a_planner_that_skips_minimization(monkeypatch, tmp_path):
    monkeypatch.setattr(
        engine, "min_affected_target", lambda m, x: solve_any_target(m, m.mat_vec(x))
    )
    pairs = _separating_workload()
    instance = Instance(4, 8)
    workload = Workload(
        instance, "static", len(pairs), None, tuple(Request(u, v) for u, v in pairs), None
    )
    with pytest.raises(VerificationError, match="!= basis-scan target"):
        run_experiment(workload, ExperimentOptions(verify=True))
    path = tmp_path / "separating.json"
    path.write_text(json.dumps({"k": 4, "l": 8, "requests": pairs}))
    code, out, err = _run(["simulate", "--workload", str(path), "--verify"])
    assert code == 3
    assert out == ""
    assert err.startswith("verification failure: applied target ")


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _limits_table():
    """Rows of the README's Limits table, as (what, guard) cells."""
    section = _readme().split("## Limits", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ]
    return rows[2:]


def _guard_number(cell):
    return int(re.search(r"\d[\d ]*", cell).group().replace(" ", ""))


@pytest.mark.parametrize(
    "what,value",
    [
        ("configuration enumeration", configs.MAX_ENUMERATION_K),
        ("`comp-min` target search", configs.DEFAULT_SEARCH_BUDGET),
        ("`--verify` deepening search", configs.DEFAULT_SEARCH_BUDGET),
        ("Graver bases", graver.GRAVER_K_GUARD),
        ("Graver completion", graver._COMPLETION_ELEMENT_CAP),
        ("subdeterminants", graver.SUBDET_K_GUARD),
        ("`verify --k-max`", verify.VERIFY_K_GUARD),
        ("offline optimum", optimum.OPT_N_GUARD),
        ("instance size", MAX_NODES),
    ],
)
def test_readme_limits_table_matches_the_guards(what, value):
    rows = [guard for name, guard in _limits_table() if name.startswith(what)]
    assert len(rows) == 1, what
    assert _guard_number(rows[0]) == value


def test_readme_test_counts_match_the_pinned_matrices():
    cases = parity.cases()
    blocks = Counter(case.block for case in cases)
    text = " ".join(_readme().split())  # undo the line wrapping
    assert f"{len(cases)} cases in seven blocks" in text
    assert f"the matrix of {blocks.pop('matrix')} runs" in text
    for block, count in blocks.items():
        assert f"`{block}/…`, {count} " in text
    assert f"check the {sum(case.tier1 for case in cases)} cases marked tier1" in text


def _readme_sessions():
    """(command, shown output) for each `$ ...` or bare command line in
    the README's sh blocks; the output is the lines up to the next
    command."""
    sessions = []
    for block in re.findall(r"```sh\n(.*?)```", _readme(), re.S):
        shown = None
        for line in block.splitlines():
            if line.startswith(("$ ", "repart ")):
                shown = []
                sessions.append((line.removeprefix("$ "), shown))
            elif shown is not None:
                shown.append(line)
    return sessions


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    sessions = dict(_readme_sessions())
    (tmp_path / "golden.json").write_text("\n".join(sessions["cat golden.json"]) + "\n")
    monkeypatch.chdir(tmp_path)
    compared = []
    for command, shown in sessions.items():
        if not command.startswith("repart "):
            continue
        code, out, err = _run(shlex.split(command)[1:])
        assert (code, err) == (0, ""), command
        if shown and "..." not in " ".join(shown):
            assert out.splitlines() == shown, command
            compared.append(command)
    assert compared == [
        "repart configs --k 2 --format csv",
        "repart opt --workload golden.json",
    ]
