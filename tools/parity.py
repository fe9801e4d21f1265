"""Byte-parity harness: one sha256 per case over a fixed matrix of runs.

    python3 tools/parity.py           # check every case against the manifest
    python3 tools/parity.py --write   # rewrite tools/parity_manifest.txt

A case is one `run_experiment` call, or the certification suite. Its
digest covers the rendered JSON and CSV reports, the `--events` lines
(`event_lines`) and the fields (request, pseudo, x, y, affected, moves)
of every remap record; a run that raises is digested by the exception's
type and message instead. The check prints each case whose digest
differs from the manifest, or that one side lacks, and exits 1 if there
is any. A change that keeps every report byte-identical passes
unedited; only a change that alters a report on purpose rewrites the
manifest, and says so.

The matrix:
  * every workload kind x k 1-5 x l {2, 3, 5, 16, 64} x both
    algorithms x a block and a seeded-shuffle initial mapping, 120
    requests, with the offline optimum where n <= 8 and --verify where
    n <= 24 (300 runs);
  * uniform-random at k 7-8 x l 2-4, the same algorithms and starts;
  * `verify_suite(4).render()`.

The full check takes about 19 s on one core of an Intel Xeon (Python
3.11). tests/test_parity.py checks the runs with n <= 16 on every
tier-1 pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import sys
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repart.engine import ALGORITHMS, event_lines, remap_records  # noqa: E402
from repart.model import Instance, Mapping  # noqa: E402
from repart.report import ExperimentOptions, run_experiment  # noqa: E402
from repart.rng import SplitMix64  # noqa: E402
from repart.verify import verify_suite  # noqa: E402
from repart.workloads import KINDS, generate_workload  # noqa: E402

MANIFEST = ROOT / "tools" / "parity_manifest.txt"
LENGTH = 120
SEED = 11
STARTS = ("block", "shuffle")


class Case(NamedTuple):
    """One run of the matrix; n is None for the certification suite."""

    id: str
    n: int | None
    run: Callable[[], list]  # the text chunks to digest


def _shuffled(instance: Instance, seed: int) -> Mapping:
    """The block layout permuted by a seeded Fisher-Yates shuffle."""
    labels = [node // instance.k for node in range(instance.n)]
    rng = SplitMix64(seed)
    for i in range(len(labels) - 1, 0, -1):
        j = rng.below(i + 1)
        labels[i], labels[j] = labels[j], labels[i]
    return Mapping(instance, labels)


def _run_chunks(kind, k, l, algorithm, start):
    instance = Instance(k, l)
    workload = generate_workload(kind, instance, LENGTH, SEED)
    if start == "shuffle":
        workload = dataclasses.replace(workload, initial=_shuffled(instance, SEED))
    options = ExperimentOptions(
        algorithm=algorithm, compute_opt=instance.n <= 8, verify=instance.n <= 24
    )
    report = run_experiment(workload, options)
    chunks = [report.to_json(), report.to_csv(), "".join(event_lines(report.outcomes))]
    for r in remap_records(report.outcomes):
        fields = ((r.request.u, r.request.v), r.pseudo, r.x, r.y, r.affected, r.moves)
        chunks.append(repr(fields) + "\n")
    return chunks


def _run_case(kind, k, l, algorithm, start):
    case_id = f"{kind}/k{k}/l{l}/{algorithm}/{start}"
    return Case(case_id, k * l, lambda: _run_chunks(kind, k, l, algorithm, start))


def cases() -> list:
    out = [
        _run_case(*spec)
        for spec in itertools.product(KINDS, range(1, 6), (2, 3, 5, 16, 64), ALGORITHMS, STARTS)
    ]
    out += [
        _run_case("uniform-random", *spec)
        for spec in itertools.product((7, 8), (2, 3, 4), ALGORITHMS, STARTS)
    ]
    out.append(Case("verify-suite/k4", None, lambda: [verify_suite(4).render()]))
    return out


def digest(case: Case) -> str:
    h = hashlib.sha256()
    try:
        chunks = case.run()
    except Exception as exc:  # a raising run is part of the behaviour
        chunks = [f"raised {type(exc).__name__}: {exc}"]
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
    return h.hexdigest()


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
