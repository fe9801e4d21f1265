"""The parity harness's manifest and its matrix runs with n <= 16.

tools/parity.py digests the reports, event lines and remap records of a
fixed matrix of runs and of six named blocks; its manifest is the one
place an output is pinned, was written before the current code, and
must not change with a refactor. The tier-1 tests check the cases
marked tier1, one block per test; `python3 tools/parity.py` checks them
all.
"""

from collections import Counter

import parity


def test_case_ids_are_unique_and_match_the_manifest():
    ids = [case.id for case in parity.cases()]
    assert len(ids) == len(set(ids))
    manifest = parity.read_manifest()
    assert len(manifest) == len(parity.MANIFEST.read_text(encoding="utf-8").splitlines())
    assert set(manifest) == set(ids)


def test_tier1_cases_are_the_blocks_the_tests_check():
    blocks = Counter(case.block for case in parity.cases() if case.tier1)
    assert blocks == {
        "matrix": 176,  # here
        "golden": 36,  # tests/test_golden_digest.py
        "records": 54,  # tests/test_remap_records.py
        "wide-comp-any": 3,  # tests/test_remap_records.py
        "records-large": 60,  # tests/test_remap_records.py
        "verify-suite": 1,  # tests/test_verify.py
        "graver": 56,  # tests/test_graver.py
    }


def test_small_runs_match_the_parity_manifest():
    assert parity.mismatches(parity.tier1("matrix"), parity.read_manifest()) == []
