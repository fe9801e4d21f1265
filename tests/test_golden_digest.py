"""`repart simulate --gen` output over a fixed matrix, against the
parity manifest's `golden/...` block.

Each case digests the JSON and CSV reports, the `--events` lines and the
remap records of one run. The matrix: every workload kind x k in
{1, 2, 3} x l in {3, 5} x both algorithms, 60 requests from seed 5, with
the optimum where n <= 8. At k = 1 every cross-cluster request resets
without a reprocessed remap.
"""

import itertools

import pytest

import parity
from repart.engine import ALGORITHMS
from repart.workloads import KINDS

CASES = {case.id: case for case in parity.tier1("golden")}


@pytest.mark.parametrize(
    "kind,k,l,algorithm", list(itertools.product(KINDS, (1, 2, 3), (3, 5), ALGORITHMS))
)
def test_simulate_output_digests(kind, k, l, algorithm):
    case = CASES[f"golden/{kind}/k{k}/l{l}/{algorithm}"]
    assert parity.mismatches([case], parity.read_manifest()) == []
