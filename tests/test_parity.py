"""The runs of the parity harness with n <= 16 against its manifest.

tools/parity.py digests the reports, event lines and remap records of a
fixed matrix of runs; its manifest was written before the current code
and must not change with a refactor. This checks the small runs on every
pass; `python3 tools/parity.py` checks them all.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
_SPEC = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)


def test_small_runs_match_the_parity_manifest():
    small = [case for case in parity.cases() if case.n is not None and case.n <= 16]
    assert len(small) == 176
    assert parity.mismatches(small, parity.read_manifest()) == []
