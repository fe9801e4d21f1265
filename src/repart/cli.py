"""Command-line front end.

Exit codes: 0 success, 1 input error, 2 resource-limit guard, 3
invariant or verification failure. argparse's own usage failures are
rerouted through the input-error path so exit code 2 stays reserved for
guards.
"""

from __future__ import annotations

import argparse
import json
import sys

from .configs import config_matrix, enumerate_configurations
from .engine import ALGORITHMS, event_lines
from .errors import (
    InputError,
    InvariantViolation,
    ResourceLimitError,
    VerificationError,
)
from .graver import SUBDET_K_GUARD, certify_bounds, exp_ceiling, graver_basis_for
from .model import Instance, Mapping
from .optimum import opt_cost
from .report import ExperimentOptions, run_experiment
from .verify import DEFAULT_VERIFY_SEED, verify_suite
from .workloads import KINDS, generate_workload, load_workload


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="repart", description="Online balanced repartitioning workbench.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("configs", help="enumerate cluster configurations")
    p.add_argument("--k", type=int, required=True, help="cluster capacity")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_configs)

    p = sub.add_parser("graver", help="basis of one event matrix")
    p.add_argument("--k", type=int, required=True, help="cluster capacity")
    p.add_argument(
        "--pseudo",
        required=True,
        help="merged-pair configuration as comma-separated counts, e.g. 2,1",
    )
    p.set_defaults(func=cmd_graver)

    p = sub.add_parser("simulate", help="run the online engine over a workload")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--workload", help="JSON workload file")
    src.add_argument("--gen", choices=KINDS, help="generate the workload instead")
    p.add_argument("--k", type=int, help="cluster capacity (with --gen)")
    p.add_argument("--l", type=int, help="cluster count (with --gen)")
    p.add_argument("--len", type=int, dest="length", help="request count (with --gen, default 100)")
    p.add_argument("--seed", type=int, help="workload seed (with --gen, default 0)")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="comp-min")
    p.add_argument("--opt", action="store_true", help="also compute the offline optimum")
    p.add_argument("--verify", action="store_true", help="recheck the run against oracles")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--events", help="write the event log here as JSON lines")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("opt", help="offline optimum of a workload file")
    p.add_argument("--workload", required=True, help="JSON workload file")
    p.set_defaults(func=cmd_opt)

    p = sub.add_parser("verify", help="run the certification suite")
    p.add_argument("--k-max", type=int, default=3, dest="k_max")
    p.add_argument("--seed", type=int, default=DEFAULT_VERIFY_SEED)
    p.set_defaults(func=cmd_verify)

    return parser


def cmd_configs(args) -> int:
    configs = enumerate_configurations(args.k)
    if args.format == "csv":
        for c in configs:
            print(",".join(map(str, c)))
    else:
        print(
            json.dumps(
                {
                    "k": args.k,
                    "count": len(configs),
                    "configurations": [list(c) for c in configs],
                },
                sort_keys=True,
                indent=2,
            )
        )
    return 0


def _parse_pseudo(text: str) -> tuple:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise InputError(
            f"--pseudo must be comma-separated integers, got {text!r}"
        ) from None


def cmd_graver(args) -> int:
    pseudo = _parse_pseudo(args.pseudo)
    matrix = config_matrix(args.k, pseudo)
    basis = graver_basis_for(args.k, pseudo)
    payload = {
        "k": args.k,
        "pseudo": list(pseudo),
        "q": matrix.q,
        "matrix": [list(row) for row in matrix.rows()],
        "basis": [list(g) for g in basis.elements],
        "size": len(basis),
        "max_one_norm": basis.max_one_norm,
        "max_inf_norm": basis.max_inf_norm,
        "exp_ceiling": exp_ceiling(args.k),
        "delta": None,
        "bounds_ok": None,
    }
    if args.k <= SUBDET_K_GUARD:
        cert = certify_bounds(basis, matrix)
        payload["delta"] = cert.delta
        payload["bounds_ok"] = cert.ok
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _simulate_workload(args):
    if args.workload is not None:
        flags = ("--k", args.k), ("--l", args.l), ("--len", args.length), ("--seed", args.seed)
        for name, value in flags:
            if value is not None:
                raise InputError(f"{name} only applies together with --gen")
        return load_workload(args.workload)
    if args.k is None or args.l is None:
        raise InputError("--gen needs both --k and --l")
    length = 100 if args.length is None else args.length
    seed = 0 if args.seed is None else args.seed
    return generate_workload(args.gen, Instance(args.k, args.l), length, seed)


def cmd_simulate(args) -> int:
    workload = _simulate_workload(args)
    options = ExperimentOptions(
        algorithm=args.algorithm, compute_opt=args.opt, verify=args.verify
    )
    report = run_experiment(workload, options)
    if args.events:
        try:
            with open(args.events, "w", encoding="utf-8") as fh:
                fh.writelines(event_lines(report.outcomes))
        except OSError as exc:
            raise InputError(f"cannot write event log: {exc}") from None
    out = report.to_csv() if args.format == "csv" else report.to_json()
    sys.stdout.write(out)
    return 0


def cmd_opt(args) -> int:
    workload = load_workload(args.workload)
    initial = workload.initial or Mapping.default(workload.instance)
    cost = opt_cost(workload.instance, initial, workload.requests)
    print(json.dumps({"opt_cost": cost}, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    summary = verify_suite(args.k_max, args.seed)
    print(summary.render())
    if not summary.ok:
        raise VerificationError("certification suite reported failures")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, VerificationError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
