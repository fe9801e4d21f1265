"""`repart simulate --gen` output over a fixed matrix, against the
parity manifest's `golden/...` block.

Each case digests the JSON and CSV reports, the `--events` lines and the
remap records of one run. The matrix: every workload kind x k in
{1, 2, 3} x l in {3, 5} x both algorithms, 60 requests from seed 5, with
the optimum where n <= 8. At k = 1 every cross-cluster request resets
without a reprocessed remap.
"""

import pytest

import parity


def _test_id(case):
    # golden/<kind>/k<k>/l<l>/<algorithm> -> <kind>-<k>-<l>-<algorithm>
    _, kind, k, l, algorithm = case.id.split("/")
    return "-".join((kind, k[1:], l[1:], algorithm))


@pytest.mark.parametrize("case", parity.tier1("golden"), ids=_test_id)
def test_simulate_output_digests(case):
    assert parity.mismatches([case], parity.read_manifest()) == []
