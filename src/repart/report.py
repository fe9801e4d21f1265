"""Experiment orchestration: run the engine, account costs, report.

Reports are deterministic functions of (workload, options): all numbers
are exact integers or rationals rendered as "p/q" with a fixed-point
decimal companion, so golden files compare byte-identically. The JSON
form carries the whole report; the CSV form carries the per-phase rows.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .configs import config_matrix
from .engine import ALGORITHMS, Engine, remap_records
from .errors import InputError, VerificationError
from .graver import GRAVER_K_GUARD, SUBDET_K_GUARD, graver_basis_for, max_subdeterminant
from .model import Instance
from .optimum import opt_cost, opt_guard, opt_per_phase_lower_bound
from .verify import check_remap
from .workloads import Workload


PHASE_COLUMNS = (
    "phase",
    "start",
    "end",
    "communication",
    "migration",
    "remap_events",
    "max_affected",
    "cost",
    "completed",
)


@dataclass(frozen=True)
class ExperimentOptions:
    algorithm: str = "comp-min"
    compute_opt: bool = False
    verify: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InputError(
                f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}"
            )


def ratio_strings(num: int, den: int) -> tuple:
    """Reduced "p/q" plus a 6-place decimal, integer arithmetic only."""
    fr = Fraction(num, den)
    scaled, rem = divmod(abs(fr.numerator) * 10**6, fr.denominator)
    if 2 * rem >= fr.denominator:
        scaled += 1
    sign = "-" if fr < 0 else ""
    text = f"{sign}{scaled // 10**6}.{scaled % 10**6:06d}"
    return f"{fr.numerator}/{fr.denominator}", text


@dataclass
class Report:
    algorithm: str
    instance: Instance
    workload_kind: str
    workload_seed: int | None
    requests_served: int
    communication: int
    migration: int
    phases: list
    remap_histogram: dict
    f_obs: int
    graver_stats: dict
    bound_cap: int
    bound_holds: bool
    opt: int | None = None
    phase_certificates: list | None = None
    verified: bool | None = None
    outcomes: list = field(default_factory=list, repr=False)

    @property
    def records(self) -> list:
        """The run's remap records in order, read from the outcomes."""
        return remap_records(self.outcomes)

    @property
    def total(self) -> int:
        return self.communication + self.migration

    def to_dict(self) -> dict:
        opt_block = None
        if self.opt is not None:
            ratio = ratio_decimal = None
            if self.opt > 0:
                ratio, ratio_decimal = ratio_strings(self.total, self.opt)
            opt_block = {
                "cost": self.opt,
                "ratio": ratio,
                "ratio_decimal": ratio_decimal,
                "phase_certificates": self.phase_certificates,
            }
        return {
            "algorithm": self.algorithm,
            "instance": {
                "k": self.instance.k,
                "l": self.instance.l,
                "n": self.instance.n,
            },
            "workload": {
                "kind": self.workload_kind,
                "seed": self.workload_seed,
                "requests_served": self.requests_served,
            },
            "totals": {
                "communication": self.communication,
                "migration": self.migration,
                "total": self.total,
            },
            "phases": self.phases,
            "remap_histogram": {str(k): v for k, v in sorted(self.remap_histogram.items())},
            "f_obs": self.f_obs,
            "graver": self.graver_stats,
            "phase_bound": {"cap": self.bound_cap, "holds": self.bound_holds},
            "opt": opt_block,
            "verified": self.verified,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(PHASE_COLUMNS)
        for row in self.phases:
            # json renders ints as digits and booleans as true/false
            writer.writerow(json.dumps(row[column]) for column in PHASE_COLUMNS)
        return buf.getvalue()


def run_experiment(workload: Workload, options: ExperimentOptions = ExperimentOptions()) -> Report:
    instance = workload.instance
    if options.compute_opt:
        opt_guard(instance)
    engine = Engine(instance, workload.initial, options.algorithm)
    generator = workload.make_generator()
    for _ in range(workload.length):
        request = generator.next(engine)
        if request is None:
            break
        engine.serve(request)

    records = engine.remap_records
    rows = engine.ledger.rows
    phases = [
        {
            "phase": phase,
            "start": start,
            "end": end,
            "communication": row.communication,
            "migration": row.migration,
            "remap_events": row.remap_events,
            "max_affected": row.max_affected,
            "cost": row.cost,
            "completed": phase < len(rows) - 1,
        }
        for phase, (row, (start, end)) in enumerate(zip(rows, engine.phase_ranges()))
    ]
    cap = (instance.n - 1) * (1 + instance.k * engine.f_obs)
    holds = all(row.cost <= cap for row in rows)
    graver_stats = _graver_stats(instance.k, records)

    opt_value = None
    certificates = None
    if options.compute_opt:
        served = [outcome.request for outcome in engine.outcomes]
        opt_value = opt_cost(instance, workload.initial, served)
        certificates = opt_per_phase_lower_bound(
            instance, served, engine.completed_phases
        )

    verified = None
    if options.verify:
        _verify_run(engine, options, certificates)
        verified = True

    return Report(
        algorithm=options.algorithm,
        instance=instance,
        workload_kind=workload.kind,
        workload_seed=workload.seed,
        requests_served=engine.requests_served,
        communication=engine.ledger.communication,
        migration=engine.ledger.migration,
        phases=phases,
        remap_histogram=dict(Counter(len(r.affected) for r in records)),
        f_obs=engine.f_obs,
        graver_stats=graver_stats,
        bound_cap=cap,
        bound_holds=holds,
        opt=opt_value,
        phase_certificates=certificates,
        verified=verified,
        outcomes=engine.outcomes,
    )


def _graver_stats(k: int, records) -> dict:
    pseudos = sorted({r.pseudo for r in records})
    stats = {
        "pseudos_seen": len(pseudos),
        "max_move_one_norm": max((r.distance for r in records), default=None),
        "max_basis_one_norm": None,
        "delta_max": None,
    }
    if pseudos and k <= GRAVER_K_GUARD:
        stats["max_basis_one_norm"] = max(
            sum(map(abs, g)) for p in pseudos for g in graver_basis_for(k, p)
        )
    if pseudos and k <= SUBDET_K_GUARD:
        stats["delta_max"] = max(
            max_subdeterminant(config_matrix(k, p)) for p in pseudos
        )
    return stats


def _verify_run(engine: Engine, options: ExperimentOptions, certificates) -> None:
    """Recheck the run against independent oracles; raise on any gap."""
    engine.audit()
    instance = engine.instance
    k = instance.k
    comp_min = options.algorithm == "comp-min"
    for record in engine.remap_records:
        issue = check_remap(k, record.pseudo, record.x, record.y if comp_min else None)
        if issue:
            raise VerificationError(issue)
    for phase, row in enumerate(engine.ledger.rows):
        cap = (instance.n - 1) * (1 + k * row.max_affected)
        if row.cost > cap:
            raise VerificationError(
                f"phase {phase} cost {row.cost} exceeds cap {cap}"
            )
    if certificates is not None and not all(certificates):
        bad = [i for i, ok in enumerate(certificates) if not ok]
        raise VerificationError(f"phases {bad} missing their optimum certificate")
