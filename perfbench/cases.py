"""Workloads of the benchmark: input pools, warm-up, one operation, digests.

Every workload draws its runs from a pool of seeded cases whose report
digests were recorded by ``make_golden.py``; ``--seed`` only fixes the
order in which the pool is visited. That keeps every report checkable
against a stored digest while the seed still decides which inputs a
time-limited run gets to.

This module imports ``repart``; the caller puts the checkout's ``src``
directory on ``sys.path`` first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from array import array
from collections import Counter
from pathlib import Path

import repart

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# requests in the short run that warms each shape during set-up
WARM_LENGTH = 8

BATCH_SHAPES = tuple((k, l) for k in range(1, 5) for l in range(2, 9))


@dataclasses.dataclass(frozen=True)
class Spec:
    """How one named workload builds, groups and traces its runs."""

    kind: str  # repart generator kind
    shapes: tuple  # (k, l) of consecutive pool entries, cycled
    length: int  # requests per run
    opt_max_n: int  # compute the offline optimum when n <= this
    scatter_initial: bool  # seeded initial mapping instead of the block layout
    request_ops: bool  # an operation is one request (True) or one run (False)
    group: int  # consecutive pool entries kept together when shuffled
    pool: int  # pool entries recorded in golden.json
    window_groups: int  # groups in the traced window
    tail_percentile: float  # serve_us_tail


SPECS = {
    # Nearly every request is a cross-cluster remap at n=1024, so the O(n)
    # model bookkeeping and the engine audit do most of the work.
    "uniform-l256": Spec(
        kind="uniform-random",
        shapes=((4, 256),),
        length=100,
        opt_max_n=0,
        scatter_initial=False,
        request_ops=True,
        group=1,
        pool=64,
        window_groups=8,
        tail_percentile=99.0,
    ),
    # The adaptive adversary checks feasibility for every cross-cluster
    # component pair, so configs packing dominates; n=64 keeps the model
    # bookkeeping small. The seeded initial mapping is the only input that
    # varies, since the adversary itself is deterministic.
    "merge-chain-k4l16": Spec(
        kind="merge-chain",
        shapes=((4, 16),),
        length=60,
        opt_max_n=0,
        scatter_initial=True,
        request_ops=True,
        group=1,
        pool=32,
        window_groups=2,
        tail_percentile=90.0,
    ),
    # The acceptance-gate recipe: many tiny runs, so per-run fixed costs,
    # the offline optimum and Graver certification dominate; the opposite
    # use of the engine to uniform-l256.
    "experiment-batch": Spec(
        kind="uniform-random",
        shapes=BATCH_SHAPES,
        length=25,
        opt_max_n=8,
        scatter_initial=False,
        request_ops=False,
        group=len(BATCH_SHAPES),
        pool=32 * len(BATCH_SHAPES),
        window_groups=8,
        # p99.9 has ~50 samples beyond it here and swung by half between
        # runs with host hiccups of a few ms; p99 has ~500
        tail_percentile=99.0,
    ),
}


@dataclasses.dataclass(frozen=True)
class Op:
    """One run_experiment call and the digest its report must have."""

    workload: object  # repart.Workload
    options: object  # repart.ExperimentOptions
    digest: str


def load_golden(name: str) -> list:
    """[(k, l, seed, digest), ...] recorded for workload ``name``."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return [tuple(entry) for entry in json.load(fh)["workloads"][name]]


def scattered_mapping(instance, seed: int):
    """Seeded valid mapping: a shuffled node order cut into clusters of k."""
    nodes = list(range(instance.n))
    random.Random(seed).shuffle(nodes)
    assign = [0] * instance.n
    for slot, node in enumerate(nodes):
        assign[node] = slot // instance.k
    return repart.Mapping(instance, assign)


def build_workload(spec: Spec, k: int, l: int, seed: int, length: int):
    instance = repart.Instance(k, l)
    workload = repart.generate_workload(spec.kind, instance, length, seed)
    if spec.scatter_initial:
        workload = dataclasses.replace(
            workload, initial=scattered_mapping(instance, seed)
        )
    return workload


def build_options(spec: Spec, k: int, l: int):
    return repart.ExperimentOptions(
        algorithm="comp-min", compute_opt=k * l <= spec.opt_max_n
    )


def build_ops(spec: Spec, entries) -> list:
    return [
        Op(build_workload(spec, k, l, seed, spec.length), build_options(spec, k, l), digest)
        for k, l, seed, digest in entries
    ]


def run_order(spec: Spec, ops: list, seed: int) -> list:
    """The pool in a seed-determined order of whole groups."""
    groups = [ops[i : i + spec.group] for i in range(0, len(ops), spec.group)]
    random.Random(seed).shuffle(groups)
    return [op for group in groups for op in group]


def warm_up(spec: Spec, ops: list) -> list:
    """Fill the package's caches for every shape the pool uses.

    Completes the Graver basis of every pseudo configuration of each k,
    so the timed runs never miss that cache, and serves one short run
    per shape, which builds the config spaces and, where the optimum is
    computed, its mapping and distance tables. Returns the type names of
    exceptions the short runs raised; the same inputs fail again, and are
    counted, in the measured runs.
    """
    errors = []
    for k in sorted({op.workload.instance.k for op in ops}):
        for pseudo in repart.pseudo_configurations(k):
            repart.graver_basis_for(k, pseudo)
    seen = set()
    for op in ops:
        shape = (op.workload.instance.k, op.workload.instance.l)
        if shape in seen:
            continue
        seen.add(shape)
        short = build_workload(spec, *shape, op.workload.seed, WARM_LENGTH)
        try:
            repart.run_experiment(short, op.options).to_json()
        except Exception as exc:  # recorded; the timed runs count it
            errors.append(type(exc).__name__)
    return errors


_PHASE_FIELDS = (
    "phase", "start", "end", "communication", "migration",
    "remap_events", "max_affected", "cost", "completed",
)
# The report values that exist today. Keys a later report adds are
# ignored; a missing or changed value changes the digest.
REPORT_SCHEMA = {
    "algorithm": True,
    "instance": {"k": True, "l": True, "n": True},
    "workload": {"kind": True, "seed": True, "requests_served": True},
    "totals": {"communication": True, "migration": True, "total": True},
    "phases": [{name: True for name in _PHASE_FIELDS}],
    "remap_histogram": True,
    "f_obs": True,
    "graver": {
        "pseudos_seen": True,
        "max_move_one_norm": True,
        "max_basis_one_norm": True,
        "delta_max": True,
    },
    "phase_bound": {"cap": True, "holds": True},
    "opt": {
        "cost": True,
        "ratio": True,
        "ratio_decimal": True,
        "phase_certificates": True,
    },
    "verified": True,
}


def _project(value, schema):
    if schema is True or value is None:
        return value
    if isinstance(schema, list):
        return [_project(item, schema[0]) for item in value]
    return {key: _project(value[key], sub) for key, sub in schema.items()}


def report_digest(report_json: str) -> str:
    """Digest of the schema's values in a rendered JSON report."""
    kept = _project(json.loads(report_json), REPORT_SCHEMA)
    text = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class ServeClock:
    """Counts every Engine.serve call and, while recording, times it."""

    def __init__(self):
        self.calls = 0
        self.recording = False
        self.samples_ns = array("q")
        self._original = None

    def install(self) -> None:
        original = self._original = repart.Engine.serve
        clock = time.perf_counter_ns

        def serve(engine, request):
            self.calls += 1
            start = clock()
            outcome = original(engine, request)
            if self.recording:
                self.samples_ns.append(clock() - start)
            return outcome

        repart.Engine.serve = serve

    def remove(self) -> None:
        repart.Engine.serve = self._original


@dataclasses.dataclass
class Tally:
    """Operations attempted and failed, and the host time of every op."""

    attempted: int = 0
    failed: int = 0
    checked: int = 0  # reports compared with their digest
    mismatched: int = 0
    errors: Counter = dataclasses.field(default_factory=Counter)
    # per op: requests in its report (0 if it failed) and host ns; arrays
    # keep the benchmark's own memory small next to the program's
    op_requests: array = dataclasses.field(default_factory=lambda: array("q"))
    op_ns: array = dataclasses.field(default_factory=lambda: array("q"))
    group_rates: list = dataclasses.field(default_factory=list)  # requests/s

    def log(self, requests: int, ns: int) -> None:
        self.op_requests.append(requests)
        self.op_ns.append(ns)

    def rate(self, start: int = 0, stop: int | None = None) -> float:
        """Requests per second of host time over ops[start:stop]."""
        return sum(self.op_requests[start:stop]) * 1e9 / sum(self.op_ns[start:stop])

    def close_group(self, size: int) -> None:
        """Record the rate of the last ``size`` ops as one group."""
        self.group_rates.append(self.rate(-size))


def execute(spec: Spec, op: Op, tally: Tally, clock: ServeClock, on_report=None) -> None:
    """Run one op through the public API, time it and check its report.

    Any exception the program raises fails the op and is recorded by
    type; the op is never retried. The clock must be installed, since
    it counts the requests a failing run got through.
    """
    served_before = clock.calls
    start = time.perf_counter_ns()
    try:
        report = repart.run_experiment(op.workload, op.options)
        rendered = report.to_json()
    except Exception as exc:  # every program failure counts against the op
        elapsed = time.perf_counter_ns() - start
        error = type(exc).__name__
    else:
        elapsed = time.perf_counter_ns() - start
        tally.checked += 1
        try:
            matched = report_digest(rendered) == op.digest
        except (KeyError, TypeError, ValueError):  # an existing value went missing
            matched = False
        error = None if matched else "DigestMismatch"
        tally.mismatched += not matched
    attempted = max(1, clock.calls - served_before) if spec.request_ops else 1
    tally.attempted += attempted
    if error is not None:
        tally.failed += attempted
        tally.errors[error] += 1
        tally.log(0, elapsed)
        return
    tally.log(report.requests_served, elapsed)
    if on_report is not None:
        on_report(report)
