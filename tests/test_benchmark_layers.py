"""The benchmark's traced layers name functions the package still has.

perfbench/tracing.py wraps every (owner, attribute) in its LAYERS table
under ``--trace 1``; a name deleted from the package would break that
mode, so this test fails first. The file is only read: nothing is
patched and no bytecode is written next to it.
"""

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
