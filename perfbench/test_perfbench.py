"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

The trace tests start the benchmark as a subprocess, about a minute in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import repart  # noqa: E402

import cases  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = tuple(cases.SPECS)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_failing_run_is_counted_and_not_retried():
    spec = cases.SPECS["uniform-l256"]
    doomed = cases.Op(
        repart.generate_workload("uniform-random", repart.Instance(4, 1024), 20, 1),
        repart.ExperimentOptions(),
        digest="unused",
    )
    tally, clock = cases.Tally(), cases.ServeClock()
    clock.install()
    try:
        cases.execute(spec, doomed, tally, clock)
        good = cases.build_ops(spec, cases.load_golden("uniform-l256")[:1])[0]
        cases.execute(spec, good, tally, clock)
    finally:
        clock.remove()
    assert tally.errors == {"RecursionError": 1}
    assert tally.checked == 1 and tally.mismatched == 0
    # the failing run's requests up to the one that raised, then the good run's
    assert tally.failed >= 1
    assert tally.attempted == tally.failed + spec.length
    assert sum(tally.op_requests) == spec.length


def test_digest_ignores_new_keys_but_not_changed_values():
    spec = cases.SPECS["experiment-batch"]
    op = cases.build_ops(spec, cases.load_golden("experiment-batch")[:5])[4]
    rendered = repart.run_experiment(op.workload, op.options).to_json()
    assert cases.report_digest(rendered) == op.digest
    data = json.loads(rendered)
    data["counters"] = {"pack_nodes": 12}
    data["totals"]["extra"] = 1
    assert cases.report_digest(json.dumps(data)) == op.digest
    data["totals"]["migration"] += 1
    assert cases.report_digest(json.dumps(data)) != op.digest
    del data["f_obs"]
    with pytest.raises(KeyError):
        cases.report_digest(json.dumps(data))


def test_layers_patch_every_binding_and_restore():
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "repart"]
    before = [dict(vars(m)) for m in modules]
    classes = (repart.Engine, repart.Report, repart.Workload, repart.Mapping)
    methods = [dict(vars(c)) for c in classes]
    t = tracing.Tracer()
    tracing.install(t)
    try:
        # callers that imported a name into their own module see the wrapper
        assert repart.workloads.feasibility_exists.__wrapped__ is before[
            modules.index(repart.engine)
        ]["feasibility_exists"]
        assert repart.report.max_subdeterminant.__wrapped__ is repart.graver.max_subdeterminant.__wrapped__
        assert repart.run_experiment is repart.report.run_experiment
    finally:
        t.restore()
    assert [dict(vars(m)) for m in modules] == before
    assert [dict(vars(c)) for c in classes] == methods


def traced_counts(name):
    done = bench("--workload", name, "--seed", "7", "--seconds", "0", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        key: m["value"]
        for key, m in result["metrics"].items()
        if m["unit"] == "count" or key.endswith(".repeat_ratio")
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_exact_counters_repeat_across_processes(name):
    first, second = traced_counts(name), traced_counts(name)
    assert first == second
    assert first["engine.Engine.serve.calls"] > 0
    assert first["graver.compute_graver.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
