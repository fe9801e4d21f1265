"""The benchmark's files name only what the package still has.

perfbench/tracing.py wraps every (owner, attribute) in its LAYERS table
under ``--trace 1``, and perfbench/cases.py and perfbench/test_perfbench.py
call the package by name; a name deleted from the package would break
the benchmark, so these tests fail first. The files are only read:
nothing is patched and no bytecode is written next to them.
"""

import ast
import dataclasses
import importlib.util
import sys
from pathlib import Path

import repart

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves_on_the_package(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_traced_layers", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for name, owner, attr in tracing.LAYERS:
        if owner is None:
            # the generators' ``next``, wrapped through Workload.make_generator
            assert callable(repart.Workload.__dict__["make_generator"]), name
        elif isinstance(owner, type):
            assert callable(owner.__dict__.get(attr)), name
        else:
            assert owner.__name__.startswith("repart."), name
            assert callable(getattr(owner, attr, None)), name


PERFBENCH = TRACING.parent

# Attributes the benchmark reads on objects the package hands back, which
# no dotted name rooted at ``repart`` spells out.
OBJECT_READS = (
    (repart.Report, "requests_served"),
    (repart.Report, "to_json"),
    (repart.Workload, "instance"),
    (repart.Workload, "seed"),
    (repart.Workload, "initial"),
    (repart.Instance, "k"),
    (repart.Instance, "l"),
    (repart.ExperimentOptions, "algorithm"),
    (repart.ExperimentOptions, "compute_opt"),
    (repart.engine, "feasibility_exists"),
)


def _package_names(path):
    """Every dotted name rooted at ``repart`` in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "repart" and parts:
            names.add(tuple(reversed(parts)))
    return names


def _has(owner, attr):
    fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
    return hasattr(owner, attr) or attr in {f.name for f in fields}


def test_every_package_name_the_benchmark_reads_resolves():
    names = set()
    for source in ("cases.py", "test_perfbench.py"):
        names |= _package_names(PERFBENCH / source)
    assert {
        ("workloads", "feasibility_exists"),
        ("report", "max_subdeterminant"),
        ("pseudo_configurations",),
        ("graver_basis_for",),
        ("Engine", "serve"),
    } <= names
    for name in sorted(names):
        owner = repart
        for attr in name:
            if attr.startswith("__"):  # set by a wrapper, not the package
                break
            assert _has(owner, attr), "repart." + ".".join(name)
            owner = getattr(owner, attr)
    for owner, attr in OBJECT_READS:
        assert _has(owner, attr), f"{owner.__name__}.{attr}"
