"""Pinned digest of every remap record over a fixed matrix.

The golden report digests see only move and cluster counts; this test
pins which clusters each remap affects and which nodes it moves. It
hashes (request, pseudo, x, y, affected, moves) of every remap record
over every workload kind x k in {2, 3, 4} x l in {3, 8, 32} x both
algorithms, 120 requests from seed 7, and of one comp-any remap on a
hand-built k = 4 state at l = 8, 32, 128 that affects all but one
cluster. A second digest pins the same fields at large l and k: the
uniform-random and split-probe runs at k in {2, ..., 6} x l in
{64, 256, 1024} x both algorithms, 200 requests from seed 7. A rewrite
of the remap path that keeps every move keeps this test green.
"""

import hashlib
import itertools

from repart.engine import ALGORITHMS, Engine
from repart.model import Instance, Request
from repart.workloads import KINDS, generate_workload

LENGTH = 120
SEED = 7

RECORDS = 6230
DIGEST = "68492e5373b3bdc6d0412f33b94a9b457feee484725095c847260636cf68d576"

LARGE_LENGTH = 200
LARGE_RECORDS = 11963
LARGE_DIGEST = "3b45a4ffcc085b03a00447dfda2c58b1d28648373c8f0f1e6d899c5fc70545fb"


def _run_records(kind, k, l, algorithm, length):
    workload = generate_workload(kind, Instance(k, l), length, SEED)
    engine = Engine(workload.instance, workload.initial, algorithm)
    generator = workload.make_generator()
    for _ in range(length):
        request = generator.next(engine)
        if request is None:
            break
        engine.serve(request)
    return engine.remap_records


def _matrix_records():
    for kind, k, l, algorithm in itertools.product(KINDS, (2, 3, 4), (3, 8, 32), ALGORITHMS):
        yield from _run_records(kind, k, l, algorithm, LENGTH)


def _large_records():
    # merge-chain is left out: its generator walks every pair of
    # components per step, seconds per run at l = 256
    kinds = ("uniform-random", "split-probe")
    for kind, k, l, algorithm in itertools.product(
        kinds, range(2, 7), (64, 256, 1024), ALGORITHMS
    ):
        yield from _run_records(kind, k, l, algorithm, LARGE_LENGTH)


def _digest(records):
    digest = hashlib.sha256()
    for r in records:
        fields = ((r.request.u, r.request.v), r.pseudo, r.x, r.y, r.affected, r.moves)
        digest.update(repr(fields).encode() + b"\n")
    return len(records), digest.hexdigest()


def _wide_comp_any_record(l):
    """Pairs in each of the first l/2 clusters, then one cross request
    between singletons of clusters l/2 and l/2 + 1."""
    engine = Engine(Instance(4, l), algorithm="comp-any")
    for j in range(l // 2):
        engine.serve(Request(4 * j, 4 * j + 1))
        engine.serve(Request(4 * j + 2, 4 * j + 3))
    engine.serve(Request(4 * (l // 2), 4 * (l // 2 + 1)))
    (record,) = engine.remap_records
    return record


def test_wide_comp_any_remap_touches_all_but_one_cluster():
    for l in (8, 32, 128):
        record = _wide_comp_any_record(l)
        assert (len(record.affected), len(record.moves)) == (l - 1, 2 * l - 3)


def test_every_remap_record_is_pinned():
    records = list(_matrix_records())
    records += [_wide_comp_any_record(l) for l in (8, 32, 128)]
    assert _digest(records) == (RECORDS, DIGEST)


def test_every_large_remap_record_is_pinned():
    assert _digest(list(_large_records())) == (LARGE_RECORDS, LARGE_DIGEST)
