"""Record the input pools and report digests in perfbench/golden.json.

    python3 perfbench/make_golden.py

Run from the root of a checkout whose reports are known to be right: the
benchmark fails every run whose report no longer matches. Each case is
also rerun with the package's oracle cross-checks switched on
(ExperimentOptions(verify=True)), which raises at the first disagreement,
so no digest is recorded for a run the oracles reject. Rerun this only
for a change that is meant to alter report values, and say so where the
change is described.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import repart  # noqa: E402

import cases  # noqa: E402


def pool_entries(name: str, spec) -> list:
    rng = random.Random(f"perfbench:{name}")
    entries = []
    for i in range(spec.pool):
        k, l = spec.shapes[i % len(spec.shapes)]
        seed = rng.getrandbits(62)
        workload = cases.build_workload(spec, k, l, seed, spec.length)
        options = cases.build_options(spec, k, l)
        digest = cases.report_digest(repart.run_experiment(workload, options).to_json())
        repart.run_experiment(workload, dataclasses.replace(options, verify=True))
        entries.append([k, l, seed, digest])
    return entries


def main() -> int:
    workloads = {}
    for name, spec in cases.SPECS.items():
        workloads[name] = pool_entries(name, spec)
        print(f"{name}: {spec.pool} runs recorded", file=sys.stderr)
    blocks = [
        json.dumps(name) + ": [\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]"
        for name, entries in workloads.items()
    ]
    with open(cases.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write('{"format": 1, "workloads": {\n' + ",\n".join(blocks) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
