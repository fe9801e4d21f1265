"""Every remap record of the parity harness's `records/...`,
`wide-comp-any/...`, `records-large/...` and `skewed/...` blocks, moves
included.

The golden report digests see only move and cluster counts; these
blocks pin which clusters each remap affects and which nodes it moves,
by the fields (request, pseudo, x, y, affected, moves) of every record.
A rewrite of the remap path that keeps every move keeps them green.
"""

import parity


def test_wide_comp_any_remap_touches_all_but_one_cluster():
    for l in (8, 32, 128):
        record = parity._wide_comp_any_record(l)
        assert (len(record.affected), len(record.moves)) == (l - 1, 2 * l - 3)


def test_every_remap_record_is_pinned():
    cases = parity.tier1("records") + parity.tier1("wide-comp-any")
    assert parity.mismatches(cases, parity.read_manifest()) == []


def test_every_large_remap_record_is_pinned():
    assert parity.mismatches(parity.tier1("records-large"), parity.read_manifest()) == []


def test_every_skewed_remap_record_is_pinned():
    assert parity.mismatches(parity.tier1("skewed"), parity.read_manifest()) == []
