"""Byte-parity harness: one sha256 per case over a fixed matrix of runs.

    python3 tools/parity.py           # check every case against the manifest
    python3 tools/parity.py --write   # rewrite tools/parity_manifest.txt

tools/parity_manifest.txt is the one place an output digest lives. A
case served by `run_experiment` is digested over its rendered JSON and
CSV reports (`--opt` and `--verify` results are report fields), its
`--events` lines (`event_lines`) and the fields (request, pseudo, x, y,
affected, moves) of every remap record; a case served through `Engine`
directly, over the record fields alone. A run that raises a
`RepartError` is digested by the error's type and message instead; any
other exception is a harness bug and propagates. The check prints each
case whose digest differs from the manifest, or that one side lacks,
and exits 1 if there is any. A change that keeps every output
byte-identical passes unedited; only a change that alters an output on
purpose rewrites the manifest, and says so.

The eight blocks:
  * the matrix: every workload kind x k 1-5 x l {2, 3, 5, 16, 64} x
    both algorithms x a block and a seeded-shuffle initial mapping, 120
    requests from seed 11, with the optimum where n <= 8 and --verify
    where n <= 24 (300 runs), and uniform-random at k 7-8 x l 2-4, the
    same algorithms and starts;
  * `golden/...`: the reports `repart simulate --gen` prints for every
    kind x k 1-3 x l {3, 5} x both algorithms, 60 requests from seed 5,
    with the optimum where n <= 8;
  * `records/...`: every kind x k 2-4 x l {3, 8, 32} x both algorithms,
    120 requests from seed 7, served through `Engine`;
  * `records-large/...`: uniform-random and split-probe x k 2-6 x
    l {64, 256, 1024} x both algorithms, 200 requests from seed 7,
    served through `Engine` (`run_experiment` would complete k = 6
    Graver bases; merge-chain walks every component pair per step);
  * `wide-comp-any/l8|l32|l128`: one comp-any remap that affects all
    but one cluster;
  * `verify-suite/k4|k5`: `verify_suite(k).render()`;
  * `skewed/<algorithm>`: the three remaps of SKEWED_REQUESTS on the
    k = 5, l = 1024 state that SKEWED_LAYOUT builds, where a packing
    search can backtrack for a long time;
  * `graver/k<k>/<pseudo>`: what `repart graver --k K --pseudo P` prints
    (the basis, its norms and its bound certificate), for every pseudo
    configuration at k 1-5 and for the three k = 6 ones in K6_PSEUDOS.

The full check takes about 30 s on one core of an Intel Xeon (Python
3.11). The tier-1 tests check the cases marked tier1, the matrix runs
with n <= 16 and every other case but `verify-suite/k4`, one block per
test: the matrix in tests/test_parity.py, `golden/...` in
tests/test_golden_digest.py, `records/...`, `wide-comp-any/...`,
`records-large/...` and `skewed/...` in tests/test_remap_records.py,
`verify-suite/k5` in tests/test_verify.py and `graver/...` in
tests/test_graver.py.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repart.cli import main as cli_main  # noqa: E402
from repart.configs import pseudo_configurations  # noqa: E402
from repart.engine import ALGORITHMS, Engine, event_lines, remap_records  # noqa: E402
from repart.errors import RepartError  # noqa: E402
from repart.model import Instance, Mapping, Request  # noqa: E402
from repart.report import ExperimentOptions, run_experiment  # noqa: E402
from repart.rng import SplitMix64  # noqa: E402
from repart.verify import verify_suite  # noqa: E402
from repart.workloads import generate_workload  # noqa: E402

MANIFEST = ROOT / "tools" / "parity_manifest.txt"
LENGTH = 120
SEED = 11
STARTS = ("block", "shuffle")
# the workload kinds the blocks pin, named here so a new kind adds no case
KINDS = ("uniform-random", "merge-chain", "split-probe")
# k = 6 bases of 126, 200 and 266 elements (0.1-0.5 s each to complete)
K6_PSEUDOS = ((0, 0, 0, 0, 0, 2), (1, 1, 0, 1, 1, 0), (2, 1, 1, 0, 1, 0))
# (clusters, configuration) filled by same-cluster requests at k = 5,
# l = 1024: 686, 637, 366, 58 and 366 components of sizes 1..5
SKEWED_LAYOUT = (
    (366, (0, 0, 0, 0, 1)),
    (58, (1, 0, 0, 1, 0)),
    (366, (0, 1, 1, 0, 0)),
    (100, (1, 2, 0, 0, 0)),
    (71, (3, 1, 0, 0, 0)),
    (63, (5, 0, 0, 0, 0)),
)
SKEWED_REQUESTS = ((5110, 5115), (5105, 5116), (5100, 5117))


class Case(NamedTuple):
    """One pinned run of a block; tier1 marks those tier-1 checks."""

    id: str
    block: str
    tier1: bool
    run: Callable[[], list]  # the text chunks to digest


def _shuffled(instance: Instance, seed: int) -> Mapping:
    """The block layout permuted by a seeded Fisher-Yates shuffle."""
    labels = [node // instance.k for node in range(instance.n)]
    rng = SplitMix64(seed)
    for i in range(len(labels) - 1, 0, -1):
        j = rng.below(i + 1)
        labels[i], labels[j] = labels[j], labels[i]
    return Mapping(instance, labels)


def _record_lines(records) -> list:
    return [
        repr(((r.request.u, r.request.v), r.pseudo, r.x, r.y, r.affected, r.moves)) + "\n"
        for r in records
    ]


def _report_chunks(workload, options) -> list:
    report = run_experiment(workload, options)
    chunks = [report.to_json(), report.to_csv(), "".join(event_lines(report.outcomes))]
    return chunks + _record_lines(remap_records(report.outcomes))


def _matrix_chunks(kind, k, l, algorithm, start):
    instance = Instance(k, l)
    workload = generate_workload(kind, instance, LENGTH, SEED)
    if start == "shuffle":
        workload = dataclasses.replace(workload, initial=_shuffled(instance, SEED))
    options = ExperimentOptions(
        algorithm=algorithm, compute_opt=instance.n <= 8, verify=instance.n <= 24
    )
    return _report_chunks(workload, options)


def _golden_chunks(kind, k, l, algorithm):
    options = ExperimentOptions(algorithm=algorithm, compute_opt=k * l <= 8)
    return _report_chunks(generate_workload(kind, Instance(k, l), 60, 5), options)


def _served_chunks(kind, k, l, algorithm, length):
    """The remap records of a run served through `Engine` directly."""
    workload = generate_workload(kind, Instance(k, l), length, 7)
    engine = Engine(workload.instance, workload.initial, algorithm)
    generator = workload.make_generator()
    for _ in range(length):
        request = generator.next(engine)
        if request is None:
            break
        engine.serve(request)
    return _record_lines(engine.remap_records)


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


def _wide_comp_any_lines(l):
    return _record_lines([_wide_comp_any_record(l)])


def skewed_engine(algorithm):
    """An engine at the k = 5, l = 1024 state SKEWED_LAYOUT describes,
    its clusters filled in id order by 3 007 same-cluster requests."""
    engine = Engine(Instance(5, 1024), algorithm=algorithm)
    first = 0
    for count, config in SKEWED_LAYOUT:
        for _ in range(count):
            for size in range(5, 0, -1):
                for _ in range(config[size - 1]):
                    for node in range(first + 1, first + size):
                        engine.serve(Request(first, node))
                    first += size
    return engine


def _skewed_lines(algorithm):
    """The remap records of SKEWED_REQUESTS on the SKEWED_LAYOUT state."""
    engine = skewed_engine(algorithm)
    for u, v in SKEWED_REQUESTS:
        engine.serve(Request(u, v))
    return _record_lines(engine.remap_records)


def _graver_payload(k, pseudo):
    """What `repart graver --k K --pseudo P` prints, P = pseudo."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(["graver", "--k", str(k), "--pseudo", pseudo])
    return [out.getvalue()]


def _runs(block, chunks, specs, tier1_n=None) -> list:
    """One case per (kind, k, l, algorithm, *rest) spec, its id prefixed
    by the block's name but in the matrix; tier1 where n <= tier1_n, or
    everywhere when tier1_n is None."""
    prefix = "" if block == "matrix" else block + "/"
    return [
        Case(
            prefix + "/".join((kind, f"k{k}", f"l{l}", *rest)),
            block,
            tier1_n is None or k * l <= tier1_n,
            partial(chunks, kind, k, l, *rest),
        )
        for kind, k, l, *rest in specs
    ]


def cases() -> list:
    product = itertools.product
    matrix = itertools.chain(
        product(KINDS, range(1, 6), (2, 3, 5, 16, 64), ALGORITHMS, STARTS),
        product(("uniform-random",), (7, 8), (2, 3, 4), ALGORITHMS, STARTS),
    )
    out = _runs("matrix", _matrix_chunks, matrix, tier1_n=16)
    out.append(Case("verify-suite/k4", "verify-suite", False, lambda: [verify_suite(4).render()]))
    out += _runs("golden", _golden_chunks, product(KINDS, (1, 2, 3), (3, 5), ALGORITHMS))
    out += _runs(
        "records",
        partial(_served_chunks, length=120),
        product(KINDS, (2, 3, 4), (3, 8, 32), ALGORITHMS),
    )
    out += _runs(
        "records-large",
        partial(_served_chunks, length=200),
        product(("uniform-random", "split-probe"), range(2, 7), (64, 256, 1024), ALGORITHMS),
    )
    out += [
        Case(f"wide-comp-any/l{l}", "wide-comp-any", True, partial(_wide_comp_any_lines, l))
        for l in (8, 32, 128)
    ]
    out.append(Case("verify-suite/k5", "verify-suite", True, lambda: [verify_suite(5).render()]))
    graver_pseudos = [(k, pseudo) for k in range(1, 6) for pseudo in pseudo_configurations(k)]
    graver_pseudos += [(6, pseudo) for pseudo in K6_PSEUDOS]
    for k, pseudo in graver_pseudos:
        p = ",".join(map(str, pseudo))
        out.append(Case(f"graver/k{k}/{p}", "graver", True, partial(_graver_payload, k, p)))
    out += [
        Case(f"skewed/{algorithm}", "skewed", True, partial(_skewed_lines, algorithm))
        for algorithm in ALGORITHMS
    ]
    return out


def tier1(block: str) -> list:
    """The cases of one block that tier-1 checks."""
    return [case for case in cases() if case.block == block and case.tier1]


def sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
    return h.hexdigest()


def digest(case: Case) -> str:
    try:
        chunks = case.run()
    except RepartError as exc:  # a documented failure is part of the behaviour
        chunks = [f"raised {type(exc).__name__}: {exc}"]
    return sha256(chunks)


def read_manifest() -> dict:
    """Case id -> sha256, as written by --write."""
    return dict(line.split() for line in MANIFEST.read_text(encoding="utf-8").splitlines())


def mismatches(selected, manifest: dict) -> list:
    """Ids of the selected cases whose digest is not the manifest's."""
    return [case.id for case in selected if manifest.get(case.id) != digest(case)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the manifest")
    args = parser.parse_args(argv)
    all_cases = cases()
    if args.write:
        lines = [f"{case.id} {digest(case)}\n" for case in all_cases]
        MANIFEST.write_text("".join(lines), encoding="utf-8")
        print(f"wrote {len(lines)} cases to {MANIFEST.relative_to(ROOT)}")
        return 0
    manifest = read_manifest()
    bad = mismatches(all_cases, manifest)
    bad += sorted(set(manifest) - {case.id for case in all_cases})
    for case_id in bad:
        print(f"mismatch: {case_id}")
    print(f"{len(bad)} mismatches over {len(all_cases)} cases")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
