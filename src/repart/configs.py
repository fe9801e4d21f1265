"""Cluster-configuration algebra.

A configuration of a cluster is the count vector c = (c_1, ..., c_k)
where c_i components of size i live in the cluster; a real cluster has
node demand nd(c) = sum_i i*c_i = k. During a remapping event the two
merge participants are treated as one virtual cluster of capacity 2k
(the "pseudo" configuration). The per-event matrix A has k rows and one
column per configuration, pseudo column last; censuses x, demands
u = A*x, and target censuses y (y >= 0, A*y = u, pseudo entry 0) are all
exact integer vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

from .errors import InputError, InvariantViolation, ResourceLimitError

MAX_ENUMERATION_K = 12
DEFAULT_SEARCH_BUDGET = 5_000_000


def nd(counts) -> int:
    """Node demand of a count vector: sum of size * multiplicity."""
    return sum((i + 1) * c for i, c in enumerate(counts))


def revlex_key(vec):
    """Sort key realizing the fixed reverse-lexicographic (descending) order."""
    return tuple(-c for c in vec)


def _count_vectors(total, length):
    # all nonnegative vectors c with sum_i (i+1)*c_i == total
    out = []
    counts = [0] * length

    def rec(size, remaining):
        if size == 0:
            if remaining == 0:
                out.append(tuple(counts))
            return
        for c in range(remaining // size + 1):
            counts[size - 1] = c
            rec(size - 1, remaining - size * c)
        counts[size - 1] = 0

    rec(length, total)
    return out


def _check_k(k):
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if k > MAX_ENUMERATION_K:
        raise ResourceLimitError(
            f"k={k} exceeds the enumeration guard ({MAX_ENUMERATION_K})"
        )


@lru_cache(maxsize=None)
def enumerate_configurations(k: int) -> tuple:
    """All configurations with nd == k, in reverse-lexicographic order."""
    _check_k(k)
    return tuple(sorted(_count_vectors(k, k), key=revlex_key))


@lru_cache(maxsize=None)
def pseudo_configurations(k: int) -> tuple:
    """All candidate pseudo configurations: length-k vectors with nd == 2k."""
    _check_k(k)
    return tuple(sorted(_count_vectors(2 * k, k), key=revlex_key))


def counts_from_sizes(sizes, k: int) -> tuple:
    """Component-size multiset -> count vector of length k."""
    counts = [0] * k
    for s in sizes:
        if not 1 <= s <= k:
            raise InputError(f"component size {s} outside 1..{k}")
        counts[s - 1] += 1
    return tuple(counts)


@dataclass(frozen=True)
class ConfigMatrix:
    """k rows, q columns; column j is the j-th configuration, pseudo last."""

    k: int
    columns: tuple

    @property
    def q(self) -> int:
        return len(self.columns)

    @property
    def pseudo_index(self) -> int:
        return self.q - 1

    @property
    def pseudo(self) -> tuple:
        return self.columns[-1]

    def rows(self) -> tuple:
        return tuple(zip(*self.columns))

    def mat_vec(self, vec) -> tuple:
        if len(vec) != self.q:
            raise InputError(f"vector length {len(vec)} != q={self.q}")
        out = [0] * self.k
        for coeff, col in zip(vec, self.columns):
            if coeff:
                for i in range(self.k):
                    out[i] += coeff * col[i]
        return tuple(out)


@lru_cache(maxsize=None)
def config_matrix(k: int, pseudo) -> ConfigMatrix:
    pseudo = tuple(pseudo)
    if len(pseudo) != k or any(c < 0 for c in pseudo):
        raise InputError(f"pseudo configuration {pseudo} malformed for k={k}")
    if nd(pseudo) != 2 * k:
        raise InputError(
            f"pseudo configuration {pseudo} has nd={nd(pseudo)}, expected {2 * k}"
        )
    return ConfigMatrix(k, enumerate_configurations(k) + (pseudo,))


def build_state(censuses, pseudo, k: int):
    """Census of the non-participant clusters + pseudo -> (x, u).

    x counts clusters per configuration with the pseudo coordinate set
    to one; u = A*x is the total component demand by size.
    """
    matrix = config_matrix(k, tuple(pseudo))
    x = [0] * matrix.q
    for sizes in censuses:
        if sum(sizes) != k:
            raise InvariantViolation(f"cluster census {sizes} does not sum to k={k}")
        # sizes summing to k count a real configuration, never the pseudo
        x[matrix.columns.index(counts_from_sizes(sizes, k))] += 1
    x[-1] = 1
    return tuple(x), matrix.mat_vec(x)


def is_valid_target(y, matrix: ConfigMatrix, u) -> bool:
    if len(y) != matrix.q:
        raise InputError(f"target length {len(y)} != q={matrix.q}")
    if any(c < 0 for c in y) or y[matrix.pseudo_index] != 0:
        return False
    return matrix.mat_vec(y) == tuple(u)


@lru_cache(maxsize=None)
def _visit_order(k: int, largest_first: bool, ties_reversed: bool):
    """(order, columns, closing): the packing search's plan at k.

    order lists the configuration indices in visit order: configuration
    order, reversed when ties_reversed, then stably sorted largest
    component first when largest_first. columns[j] is configuration
    order[j], and closing[j] the sizes (as indices) that columns[j] is
    the last to hold.
    """
    configs = enumerate_configurations(k)
    order = range(len(configs))[::-1] if ties_reversed else range(len(configs))
    if largest_first:
        order = sorted(order, key=lambda j: -max(s for s, c in enumerate(configs[j]) if c))
    columns = tuple(configs[j] for j in order)
    closing = tuple(
        tuple(s for s in range(k) if col[s] and not any(c[s] for c in columns[j + 1 :]))
        for j, col in enumerate(columns)
    )
    return tuple(order), columns, closing


def _packing(u, k: int, greatest: bool, largest_first: bool, ties_reversed=False):
    """Counts, in configuration order, of one way to write u as a
    nonnegative integer combination of the real configurations, or None.

    The greatest or the least such counts, lexicographically, with the
    configurations read in the visit order that largest_first and
    ties_reversed fix (see _visit_order).
    """
    if any(c < 0 for c in u):
        return None
    plan = _visit_order(k, largest_first, ties_reversed)
    y = [0] * len(plan[0])
    return tuple(y) if _cover(tuple(u), 0, plan, greatest, y, set()) else None


def _cover(rem, j, plan, greatest, y, fail):
    """True iff the plan's columns from j on cover rem, their counts then
    written into y by configuration index.

    Depth-first over the columns in visit order, trying each count from
    the most that fits down to 0 when greatest, from 0 up otherwise, so
    the first cover found is the greatest or the least. A count that
    leaves uncovered a size no later column holds is not tried, and
    (j, rem) states known to fail are skipped. The depth is at most the
    number of configurations, whatever the demand. Module-level: a
    self-recursive closure is a reference cycle, garbage that only the
    cyclic collector frees.
    """
    if not any(rem):
        return True
    order, columns, closing = plan
    # a column that does not fit takes 0: pass over it in place
    while not (most := min(r // c for r, c in zip(rem, columns[j]) if c)):
        if any(rem[s] for s in closing[j]):
            return False
        j += 1
    if (j, rem) in fail:
        return False
    col = columns[j]
    least = max((-(-rem[s] // col[s]) for s in closing[j]), default=0)
    for take in range(most, least - 1, -1) if greatest else range(least, most + 1):
        y[order[j]] = take
        after = tuple(r - take * c for r, c in zip(rem, col)) if take else rem
        if _cover(after, j + 1, plan, greatest, y, fail):
            return True
    y[order[j]] = 0
    fail.add((j, rem))
    return False


def solve_any_target(matrix: ConfigMatrix, u):
    """Some valid target census for demand u, or None if none exists.

    Deterministic: the greatest packing with the configurations read
    largest component first, ties in configuration order. The memoized
    demand_packable rejects first, as this order can backtrack long.
    """
    if not demand_packable(u, matrix.k):
        return None
    return _packing(u, matrix.k, greatest=True, largest_first=True) + (0,)


def min_affected_target(matrix: ConfigMatrix, x):
    """Minimum-distance valid target for state x, or None if none exists.

    For t = 0, 1, ... draws every multiset R of t real clusters from the
    configurations x holds, skipping any that takes more than x_c of a
    configuration c. The pseudo and R hold demand d = A*(R + pseudo);
    when d packs, y = x - R + Y - pseudo is a target at distance 2t + 3,
    Y the lexicographically least packing of d. The first t with a
    candidate is the minimum; ties go to the lexicographically least y,
    the target the Graver-basis scan picks, whatever the drawing order.
    Raises ResourceLimitError past DEFAULT_SEARCH_BUDGET drawn multisets.
    """
    pi = matrix.pseudo_index
    x = tuple(x)
    if len(x) != matrix.q or x[pi] != 1:
        raise InputError(f"state {x} needs length q={matrix.q} and pseudo entry 1")
    support = [c for c in range(pi) if x[c]]
    drawn = 0
    for t in range(sum(x[:pi]) + 1):
        # no t helps when the whole demand does not pack; most remaps
        # succeed at t = 0, so the check waits until that fails
        if t == 1 and not demand_packable(matrix.mat_vec(x), matrix.k):
            return None
        best = None
        for picks in combinations_with_replacement(support, t):
            drawn += 1
            if drawn > DEFAULT_SEARCH_BUDGET:
                raise ResourceLimitError(
                    f"min-affected target search exceeded {DEFAULT_SEARCH_BUDGET} multisets"
                )
            r = [0] * pi + [1]
            for c in picks:
                r[c] += 1
            if any(r[c] > x[c] for c in picks):
                continue
            packing = _least_packing(matrix.mat_vec(r), matrix.k)
            if packing is None:
                continue
            y = tuple(a - b + c for a, b, c in zip(x, r, packing)) + (0,)
            if best is None or y < best:
                best = y
        if best is not None:
            return best
    return None


@lru_cache(maxsize=1 << 14)
def _least_packing(d: tuple, k: int):
    """Lexicographically least Y >= 0 over the real configurations with
    A*Y = d, or None."""
    return _packing(d, k, greatest=False, largest_first=False)


def demand_packable(u, k: int) -> bool:
    """True iff demand u is coverable by real cluster configurations."""
    return _packable(tuple(u), k)


def merged(counts, a: int, b: int):
    """Size counts once a size-a and a size-b component merge, or None
    when a + b outgrows the vector; counts[s - 1] counts size s."""
    if a + b > len(counts):
        return None
    after = list(counts)
    after[a - 1] -= 1
    after[b - 1] -= 1
    after[a + b - 1] += 1
    return tuple(after)


# A bounded memo: an entry is a few hundred bytes, and adaptive
# workloads ask about the same demand vectors over and over.
@lru_cache(maxsize=1 << 14)
def _packable(u: tuple, k: int) -> bool:
    # fewest singletons first: singletons fill what is left, so it rarely backtracks
    return _packing(u, k, greatest=True, largest_first=True, ties_reversed=True) is not None


def brute_force_min_target(x, matrix: ConfigMatrix, u):
    """Minimum-distance valid target by iterative deepening, or None.

    Searches w = x - y with pseudo coordinate 1, positive part <= x and
    A*w = 0, at exact L1 norm d = 3, 5, 7, ... Returns (y, d); ties at
    the minimal d resolve to the reverse-lexicographically smallest y.
    Raises ResourceLimitError past DEFAULT_SEARCH_BUDGET search nodes.
    """
    q = matrix.q
    pi = matrix.pseudo_index
    x = tuple(x)
    if len(x) != q:
        raise InputError(f"state length {len(x)} != q={q}")
    if x[pi] != 1:
        raise InputError("state must have pseudo coordinate exactly 1")
    if matrix.mat_vec(x) != tuple(u):
        raise InputError("state x and demand u disagree (u must equal A*x)")
    # any valid target caps the depth: take _packable's order, which rarely backtracks
    packing = _packing(u, matrix.k, greatest=True, largest_first=True, ties_reversed=True)
    if packing is None:
        return None
    cap = sum(abs(a - b) for a, b in zip(x, packing + (0,)))
    cols = matrix.columns
    # suffix_max[j][i]: largest row-i entry among columns j..q-2
    suffix_max = [[0] * matrix.k for _ in range(q)]
    for j in range(pi - 1, -1, -1):
        suffix_max[j] = [max(a, b) for a, b in zip(suffix_max[j + 1], cols[j])]
    plan, budget = (x, cols, suffix_max), [DEFAULT_SEARCH_BUDGET]
    for d in range(3, cap + 1, 2):
        w, sols = [0] * pi + [1], []
        _signed_moves(0, d - 1, cols[pi], w, plan, sols, budget)
        if sols:
            ys = [tuple(a - b for a, b in zip(x, sol)) for sol in sols]
            return min(ys, key=revlex_key), d
    raise InvariantViolation("deepening passed the known-feasible distance cap")


def _signed_moves(j, rem, partial, w, plan, sols, budget):
    """Append to sols every completion of w from column j on that spends
    exactly rem more of the one-norm and brings partial, A*w so far, to
    0; plan is (x, columns, suffix_max). Depth-first, w_j from -rem up
    to min(rem, x_j). Module-level, as _cover is: a self-recursive
    closure would leave a reference cycle per call.
    """
    budget[0] -= 1
    if budget[0] < 0:
        raise ResourceLimitError(
            f"brute-force target search exceeded {DEFAULT_SEARCH_BUDGET} nodes"
        )
    x, cols, suffix_max = plan
    if j == len(w) - 1:
        if rem == 0 and not any(partial):
            sols.append(tuple(w))
        return
    if any(abs(p) > rem * m for p, m in zip(partial, suffix_max[j])):
        return
    col = cols[j]
    for wj in range(-rem, min(rem, x[j]) + 1):
        w[j] = wj
        after = tuple(p + wj * c for p, c in zip(partial, col)) if wj else partial
        _signed_moves(j + 1, rem - abs(wj), after, w, plan, sols, budget)
    w[j] = 0
