"""Request workloads: file-backed lists and adaptive generators.

Static workloads are JSON files, replayable byte-identically:

    {"k": 2, "l": 2, "initial": [0, 0, 1, 1], "requests": [[0, 2], ...]}

"initial" is optional and defaults to nodes 0..k-1 in cluster 0 and so
on. A generator's next(engine) returns the next request, or None to end
the run. Adaptive generators are adversaries that know the algorithm's
state: they read the engine they drive and never change it, so they are
deterministic given (seed, algorithm).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .configs import demand_packable, merged

# Unused here: perfbench/test_perfbench.py::test_layers_patch_every_binding_and_restore
# reads this binding. ROADMAP item 1 stops the benchmark binding it and
# then removes this import.
from .engine import feasibility_exists  # noqa: F401
from .errors import InputError
from .model import Instance, Mapping, Request, validate_request
from .rng import SplitMix64

KINDS = ("uniform-random", "merge-chain", "split-probe")


@dataclass(frozen=True)
class Workload:
    instance: Instance
    kind: str
    length: int
    seed: int | None
    requests: tuple | None
    initial: Mapping | None
    generator_factory: object = None

    @property
    def is_static(self) -> bool:
        return self.requests is not None

    def make_generator(self):
        if self.is_static:
            return _StaticFeed(self.requests)
        return self.generator_factory()


class _StaticFeed:
    def __init__(self, requests):
        self._iter = iter(requests)

    def next(self, engine):
        return next(self._iter, None)


class _SplitProbeGenerator:
    """Always requests the lexicographically first currently split pair."""

    def next(self, engine):
        mapping = engine.mapping
        cluster0 = mapping.cluster_of(0)
        for v in range(1, engine.instance.n):
            if mapping.cluster_of(v) != cluster0:
                return Request(0, v)
        return None


class _MergeChainGenerator:
    """Forces merges between the largest cross-cluster components.

    Reads the engine's component partition: every emitted request joins
    two distinct components in different clusters, so the engine either
    merges them or, when the merge cannot be hosted, resets the phase.
    Feasible merges are preferred, largest combined size first; once
    none is feasible the largest infeasible pair forces a phase reset.
    """

    def next(self, engine):
        k, mapping = engine.instance.k, engine.mapping
        demand = engine.partition.demand(k)
        # (smallest member, size, cluster), so m1 < m2 in every pair below
        comps = sorted(
            (min(members), len(members), mapping.cluster_of(members[0]))
            for members in engine.partition.member_lists().values()
        )
        feasible = {}  # feasibility depends on the two sizes alone
        best = None
        for (m1, s1, c1), (m2, s2, c2) in combinations(comps, 2):
            if c1 == c2:
                continue
            pair = (s1, s2) if s1 <= s2 else (s2, s1)
            ok = feasible.get(pair)
            if ok is None:
                after = merged(demand, s1, s2)
                ok = feasible[pair] = after is not None and demand_packable(after, k)
            key = (0 if ok else 1, -(s1 + s2), m1, m2)
            if best is None or key < best:
                best = key
        if best is None:
            return None
        return Request(best[2], best[3])


def _uniform_requests(instance: Instance, length: int, seed: int) -> tuple:
    rng = SplitMix64(seed)
    n = instance.n
    out = []
    for _ in range(length):
        i = rng.below(n)
        j = rng.below(n - 1)
        if j >= i:
            j += 1
        out.append(Request(min(i, j), max(i, j)))
    return tuple(out)


def generate_workload(kind: str, instance: Instance, length: int, seed: int) -> Workload:
    if kind not in KINDS:
        raise InputError(f"unknown workload kind {kind!r}, expected one of {KINDS}")
    # type(), not isinstance(): a bool is an int, not a count or a seed
    if type(length) is not int or length < 0:
        raise InputError(f"workload length must be a nonnegative integer, got {length!r}")
    if type(seed) is not int:
        raise InputError(f"seed must be an integer, got {type(seed).__name__}")
    if kind == "uniform-random":
        return Workload(
            instance=instance,
            kind=kind,
            length=length,
            seed=seed,
            requests=_uniform_requests(instance, length, seed),
            initial=None,
        )
    factory = _MergeChainGenerator if kind == "merge-chain" else _SplitProbeGenerator
    return Workload(
        instance=instance,
        kind=kind,
        length=length,
        seed=seed,
        requests=None,
        initial=None,
        generator_factory=factory,
    )


def load_workload(path) -> Workload:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read workload file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: not JSON, not UTF-8, or an integer past the digit
        # limit; RecursionError: nested past the recursion limit
        raise InputError(f"workload file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("workload file must hold a JSON object")
    # Instance, Request and Mapping refuse a JSON true/false or a float
    instance = Instance(data.get("k"), data.get("l"))
    raw = data.get("requests")
    if not isinstance(raw, list):
        raise InputError("workload field 'requests' must be a list of pairs")
    requests = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise InputError(f"malformed request entry {entry!r}")
        r = Request(entry[0], entry[1])
        validate_request(instance, r)
        requests.append(r)
    initial = None
    if data.get("initial") is not None:
        if not isinstance(data["initial"], list):
            raise InputError("workload field 'initial' must be a list of cluster ids")
        initial = Mapping(instance, data["initial"])
    return Workload(
        instance=instance,
        kind="static",
        length=len(requests),
        seed=None,
        requests=tuple(requests),
        initial=initial,
    )


def save_workload(workload: Workload, path) -> None:
    if not workload.is_static:
        raise InputError("only static workloads can be written to a file")
    data = {
        "k": workload.instance.k,
        "l": workload.instance.l,
        "requests": [[r.u, r.v] for r in workload.requests],
    }
    if workload.initial is not None:
        data["initial"] = workload.initial.as_list()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
