"""Independent oracles and the bundled certification suite.

Everything here is written against first principles rather than the
production code paths: partition counting by the classic recurrence,
kernel enumeration by bounded box search, minimal-affected search over
raw component-to-cluster assignments. Tests and the `verify` subcommand
compare production outputs against these oracles; a failure names the
check and the witness state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

from .configs import (
    brute_force_min_target,
    config_matrix,
    enumerate_configurations,
    min_affected_target,
    pseudo_configurations,
    solve_any_target,
)
from .engine import graver_min_move
from .errors import InputError, ResourceLimitError
from .graver import (
    GRAVER_K_GUARD,
    certify_bounds,
    compute_graver,
    graver_basis_for,
    kernel_basis,
    decompose,
    max_subdeterminant,
    sign_compatible,
    sqsubseteq,
)
from .model import Instance, Mapping
from .rng import SplitMix64

VERIFY_K_GUARD = 5
EXHAUSTIVE_GRAVER_K = 3
DEFAULT_VERIFY_SEED = 20240817


@lru_cache(maxsize=None)
def _partitions_up_to(n: int, m: int) -> int:
    if n == 0:
        return 1
    if m <= 0:
        return 0
    if m > n:
        m = n
    return _partitions_up_to(n, m - 1) + _partitions_up_to(n - m, m)


def partition_count(n: int) -> int:
    """Number of integer partitions of n."""
    if n < 0:
        raise InputError(f"partition count needs n >= 0, got {n}")
    return _partitions_up_to(n, n)


def box_kernel_vectors(matrix, bound: int) -> tuple:
    """All nonzero integer kernel vectors with every |coordinate| <= bound.

    Depth-first over coordinates with per-row reachability pruning;
    matrix entries are nonnegative, so the remaining columns can shift a
    row total by at most bound times their entry sum.
    """
    q, k = matrix.q, matrix.k
    cols = matrix.columns
    reach = [[0] * k for _ in range(q + 1)]
    for j in range(q - 1, -1, -1):
        for i in range(k):
            reach[j][i] = reach[j + 1][i] + bound * cols[j][i]
    out = []
    vec = [0] * q

    def rec(j, partial):
        if j == q:
            if all(p == 0 for p in partial) and any(vec):
                out.append(tuple(vec))
            return
        for i in range(k):
            if abs(partial[i]) > reach[j][i]:
                return
        col = cols[j]
        for val in range(-bound, bound + 1):
            vec[j] = val
            if val:
                rec(j + 1, tuple(p + val * c for p, c in zip(partial, col)))
            else:
                rec(j + 1, partial)
        vec[j] = 0

    rec(0, (0,) * k)
    return tuple(sorted(out))


def exhaustive_graver(matrix) -> tuple:
    """Sign-minimal kernel vectors by raw box enumeration."""
    if matrix.k > EXHAUSTIVE_GRAVER_K:
        raise ResourceLimitError(
            f"exhaustive basis enumeration guarded at k <= {EXHAUSTIVE_GRAVER_K}"
        )
    bound = matrix.q * max_subdeterminant(matrix)
    vecs = box_kernel_vectors(matrix, bound)
    return tuple(
        v for v in vecs if not any(w != v and sqsubseteq(w, v) for w in vecs)
    )


def min_affected_over_mappings(instance: Instance, components, mapping: Mapping):
    """Fewest clusters whose content changes, over all hostings.

    Exhausts every assignment of whole components to clusters with
    exactly k nodes each; a cluster counts as changed when its node set
    is not identical to the current one. None when nothing fits.
    """
    if instance.n > 9:
        raise ResourceLimitError("mapping enumeration guarded at n <= 9")
    comps = sorted((tuple(c) for c in components), key=lambda c: (-len(c), c[0]))
    if sum(len(c) for c in comps) != instance.n:
        raise InputError("component sizes must cover every node exactly once")
    original = [frozenset(mapping.nodes_in(c)) for c in range(instance.l)]
    caps = [instance.k] * instance.l
    place = [0] * len(comps)
    best = None

    def rec(i):
        nonlocal best
        if i == len(comps):
            final = [set() for _ in range(instance.l)]
            for at, comp in enumerate(comps):
                final[place[at]].update(comp)
            changed = sum(
                1 for c in range(instance.l) if final[c] != original[c]
            )
            if best is None or changed < best:
                best = changed
            return
        size = len(comps[i])
        for c in range(instance.l):
            if caps[c] >= size:
                caps[c] -= size
                place[i] = c
                rec(i + 1)
                caps[c] += size

    rec(0)
    return best


def enumerate_remap_states(k: int, l: int) -> list:
    """Every abstract remap state (pseudo, x, u) at exactly l clusters."""
    n_real = len(enumerate_configurations(k))
    states = []
    for pseudo in pseudo_configurations(k):
        matrix = config_matrix(k, pseudo)
        for combo in combinations_with_replacement(range(n_real), l - 2):
            x = [0] * n_real + [1]
            for c in combo:
                x[c] += 1
            states.append((pseudo, tuple(x), matrix.mat_vec(x)))
    return states


def random_remap_states(k: int, l_max: int, count: int, seed: int) -> list:
    rng = SplitMix64(seed)
    n_real = len(enumerate_configurations(k))
    pseudos = pseudo_configurations(k)
    states = []
    for _ in range(count):
        l = rng.randint(2, l_max)
        pseudo = rng.choice(pseudos)
        x = [0] * n_real + [1]
        for _ in range(l - 2):
            x[rng.below(n_real)] += 1
        states.append((pseudo, tuple(x), config_matrix(k, pseudo).mat_vec(x)))
    return states


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def render(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


@dataclass(frozen=True)
class VerifySummary:
    k_max: int
    results: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        lines = [r.render() for r in self.results]
        passed = sum(1 for r in self.results if r.ok)
        lines.append(f"{passed}/{len(self.results)} checks passed (k <= {self.k_max})")
        return "\n".join(lines)


def check_remap(k, pseudo, x, applied=None):
    """First disagreement of a feasible remap state with the oracles, as
    text, or None.

    Every target (the deepening search's; for k <= GRAVER_K_GUARD the
    basis scan's; applied, the planner's, unless None) must lie at the
    search's minimal distance and have norm l, and applied must equal
    the scan's target.
    """
    where = f"at x={x}, pseudo={pseudo}"
    matrix = config_matrix(k, pseudo)
    found = brute_force_min_target(x, matrix, matrix.mat_vec(x))
    if found is None:
        return f"no search target for solvable state {where}"
    targets = {"search": found[0]}
    if k <= GRAVER_K_GUARD:
        g = graver_min_move(graver_basis_for(k, pseudo), x)
        if g is None:
            return f"no basis move for solvable state {where}"
        scan_y = targets["basis-scan"] = tuple(a - b for a, b in zip(x, g))
        if applied is not None and applied != scan_y:
            return f"applied target {applied} != basis-scan target {scan_y} {where}"
    if applied is not None:
        targets["applied"] = applied
    # x holds one coordinate for the merged pair, so it sums to l - 1
    l = sum(x) + 1
    for name, y in targets.items():
        d = sum(abs(a - b) for a, b in zip(x, y))
        if d != found[1]:
            return f"{name} distance {d} != minimal {found[1]} {where}"
        if sum(abs(c) for c in y) != l:
            return f"{name} target norm != {l} {where}"
    return None


def _check_state_pair(state, k, counts):
    """Compare the engine's planner with the basis scan and the deepening
    search on one state."""
    pseudo, x, u = state
    matrix = config_matrix(k, pseudo)
    any_y = solve_any_target(matrix, u)
    min_y = min_affected_target(matrix, x)
    if any_y is None:
        counts["infeasible"] += 1
        if graver_min_move(graver_basis_for(k, pseudo), x) is not None:
            return f"basis move exists for unsolvable state x={x}, pseudo={pseudo}"
        if min_y is not None:
            return f"planner target exists for unsolvable state x={x}, pseudo={pseudo}"
        return None
    counts["feasible"] += 1
    l = sum(x) + 1
    if sum(abs(c) for c in any_y) != l:
        return f"any-target norm != {l} at x={x}, pseudo={pseudo}"
    if min_y is None:
        return f"no planner target for solvable state x={x}, pseudo={pseudo}"
    return check_remap(k, pseudo, x, min_y)


def _result(name, failures, detail):
    """The verdict of one check: its first failure, or detail if none."""
    return CheckResult(name, not failures, failures[0] if failures else detail)


def verify_suite(k_max: int, seed: int = DEFAULT_VERIFY_SEED) -> VerifySummary:
    if k_max < 1:
        raise InputError(f"k-max must be at least 1, got {k_max}")
    if k_max > VERIFY_K_GUARD:
        raise ResourceLimitError(
            f"exhaustive certification guarded at k <= {VERIFY_K_GUARD}, got {k_max}"
        )
    results = []

    failures = []
    seen = []
    for k in range(1, k_max + 1):
        got = len(enumerate_configurations(k))
        want = partition_count(k)
        seen.append(got)
        if got != want:
            failures.append(f"k={k}: {got} configurations, oracle says {want}")
    results.append(
        _result("configuration-count", failures, f"counts {seen} match the recurrence")
    )

    delta_failures, norm_failures, delta_tops, norm_tops = [], [], [], []
    for k in range(1, k_max + 1):
        certs = {
            p: certify_bounds(graver_basis_for(k, p), config_matrix(k, p))
            for p in pseudo_configurations(k)
        }
        delta_tops.append(max(cert.delta for cert in certs.values()))
        norm_tops.append(max(cert.max_inf_norm for cert in certs.values()))
        for pseudo, cert in certs.items():
            where = f"k={k} pseudo={pseudo}"
            if not cert.delta_ok:
                delta_failures.append(
                    f"{where}: delta {cert.delta} > {cert.exp_ceiling}"
                )
            if not cert.inf_norm_ok:
                norm_failures.append(
                    f"{where}: inf-norm {cert.max_inf_norm} > {cert.q_delta}"
                )
    results.append(
        _result("subdeterminant-cap", delta_failures, f"max delta per k: {delta_tops}")
    )
    results.append(
        _result("basis-inf-norm", norm_failures, f"max inf-norm per k: {norm_tops}")
    )

    failures = []
    basis_sizes = 0
    for k in range(1, min(k_max, EXHAUSTIVE_GRAVER_K) + 1):
        for pseudo in pseudo_configurations(k):
            matrix = config_matrix(k, pseudo)
            computed = compute_graver(matrix).elements
            listed = exhaustive_graver(matrix)
            basis_sizes += len(listed)
            if tuple(sorted(computed)) != listed:
                failures.append(
                    f"k={k} pseudo={pseudo}: completion and box enumeration differ"
                )
    detail = f"{basis_sizes} elements reproduced by box enumeration"
    results.append(_result("basis-exhaustive", failures, detail))

    failures = []
    attempts = 0
    rng = SplitMix64(seed)
    for k in range(1, min(k_max, 4) + 1):
        for pseudo in pseudo_configurations(k):
            matrix = config_matrix(k, pseudo)
            lattice = kernel_basis(matrix)
            basis = graver_basis_for(k, pseudo)
            done = 0
            while done < 500:
                h = [0] * matrix.q
                for b in lattice:
                    coeff = rng.randint(-4, 4)
                    if coeff:
                        h = [a + coeff * c for a, c in zip(h, b)]
                if not any(h) or max(abs(c) for c in h) > 20:
                    continue
                done += 1
                attempts += 1
                terms = decompose(h, basis)
                if list(map(sum, zip(*terms))) != h:
                    failures.append(f"k={k} pseudo={pseudo}: terms do not sum to {h}")
                    break
                if any(not sign_compatible(t, h) for t in terms):
                    failures.append(
                        f"k={k} pseudo={pseudo}: sign-incompatible term for {h}"
                    )
                    break
    results.append(
        _result("decomposition", failures, f"{attempts} kernel vectors decomposed")
    )

    failures = []
    counts = {"feasible": 0, "infeasible": 0}
    for k in range(1, k_max + 1):
        if k <= EXHAUSTIVE_GRAVER_K:
            states = [s for l in range(2, 6) for s in enumerate_remap_states(k, l)]
        else:
            states = random_remap_states(k, 6, 100, seed + k)
        for state in states:
            issue = _check_state_pair(state, k, counts)
            if issue:
                failures.append(f"k={k}: {issue}")
    detail = (
        f"{counts['feasible']} solvable and {counts['infeasible']} "
        "unsolvable states agree across all three planners"
    )
    results.append(_result("min-remap-equality", failures, detail))

    return VerifySummary(k_max, tuple(results))
