"""Graver bases of the per-event configuration matrices.

The Graver basis of A is the set of sign-minimal nonzero integer kernel
vectors: g is in the basis iff no other nonzero kernel vector h is
sign-compatible with g and componentwise no larger in magnitude. A
scan of the basis for the cheapest applicable move
(engine.graver_min_move) certifies the engine's planner in tests,
`--verify` and `repart verify`; this module also certifies the norm
bounds that make that scan sound (max |subdeterminant| and the
infinity-norm cap).

Computation is by completion: seed with an integer kernel lattice basis
and its negations, close under pairwise sums reduced to normal form by
sign-compatible subtraction, then keep the sign-order-minimal elements.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .configs import ConfigMatrix, config_matrix
from .errors import InputError, InvariantViolation, ResourceLimitError

GRAVER_K_GUARD = 6
SUBDET_K_GUARD = 5
_COMPLETION_ELEMENT_CAP = 200_000


def _check_len(a, b):
    if len(a) != len(b):
        raise InputError(f"vector lengths differ: {len(a)} vs {len(b)}")


def sign_compatible(a, b) -> bool:
    """No coordinate where a and b have strictly opposite signs."""
    _check_len(a, b)
    return all(x * y >= 0 for x, y in zip(a, b))


def sqsubseteq(a, b) -> bool:
    """a conforms to b: sign-compatible and |a_i| <= |b_i| everywhere."""
    _check_len(a, b)
    return all(x * y >= 0 and abs(x) <= abs(y) for x, y in zip(a, b))


def kernel_basis(matrix: ConfigMatrix) -> tuple:
    """Integer basis of the kernel lattice of A.

    Hermite-style unimodular column reduction mirrored on an identity
    matrix; the identity columns over the zeroed-out columns of A span
    every integer kernel vector.
    """
    k, q = matrix.k, matrix.q
    a = [list(col) for col in matrix.columns]
    u = [[1 if i == j else 0 for i in range(q)] for j in range(q)]
    pivot = 0
    for r in range(k):
        while True:
            nz = [j for j in range(pivot, q) if a[j][r] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: (abs(a[j][r]), j))
            a[pivot], a[j0] = a[j0], a[pivot]
            u[pivot], u[j0] = u[j0], u[pivot]
            if a[pivot][r] < 0:
                a[pivot] = [-x for x in a[pivot]]
                u[pivot] = [-x for x in u[pivot]]
            p = a[pivot][r]
            done = True
            for j in range(pivot + 1, q):
                if a[j][r] == 0:
                    continue
                f = a[j][r] // p
                if f:
                    a[j] = [x - f * y for x, y in zip(a[j], a[pivot])]
                    u[j] = [x - f * y for x, y in zip(u[j], u[pivot])]
                if a[j][r] != 0:
                    done = False
            if done:
                pivot += 1
                break
    basis = []
    for j in range(q):
        if all(x == 0 for x in a[j]):
            vec = u[j]
            lead = next((x for x in vec if x != 0), 0)
            if lead < 0:
                vec = [-x for x in vec]
            basis.append(tuple(vec))
    return tuple(sorted(basis))


def _normal_form(s, elements):
    # subtract the first conforming element until none applies
    changed = True
    while changed and any(s):
        changed = False
        for g in elements:
            if sqsubseteq(g, s):
                s = tuple(a - b for a, b in zip(s, g))
                changed = True
                break
    return s


@dataclass(frozen=True)
class GraverBasis:
    k: int
    pseudo: tuple
    elements: tuple

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, vec):
        return tuple(vec) in self.elements

    @property
    def max_one_norm(self) -> int:
        return max((sum(abs(c) for c in g) for g in self.elements), default=0)

    @property
    def max_inf_norm(self) -> int:
        return max((max(abs(c) for c in g) for g in self.elements), default=0)


def compute_graver(matrix: ConfigMatrix) -> GraverBasis:
    if matrix.k > GRAVER_K_GUARD:
        raise ResourceLimitError(
            f"Graver completion guarded at k <= {GRAVER_K_GUARD}, got k={matrix.k}"
        )
    q = matrix.q
    zero = (0,) * q
    elements: list = []
    index: set = set()
    queue: deque = deque()

    def insert(v):
        if v == zero or v in index:
            return
        if len(elements) >= _COMPLETION_ELEMENT_CAP:
            raise ResourceLimitError("Graver completion exceeded its element cap")
        elements.append(v)
        index.add(v)
        m = len(elements) - 1
        for t in range(m + 1):
            queue.append((t, m))

    for b in kernel_basis(matrix):
        insert(b)
        insert(tuple(-c for c in b))
    while queue:
        i, j = queue.popleft()
        s = tuple(a + b for a, b in zip(elements[i], elements[j]))
        if s == zero:
            continue
        r = _normal_form(s, elements)
        if r == zero:
            continue
        insert(r)
        insert(tuple(-c for c in r))
    minimal = [
        g
        for g in elements
        if not any(h != g and sqsubseteq(h, g) for h in elements)
    ]
    return GraverBasis(matrix.k, matrix.pseudo, tuple(sorted(minimal)))


_BASIS_CACHE: dict = {}


def graver_basis_for(k: int, pseudo) -> GraverBasis:
    """Memoized per (k, pseudo)."""
    key = (k, tuple(pseudo))
    basis = _BASIS_CACHE.get(key)
    if basis is None:
        basis = compute_graver(config_matrix(k, key[1]))
        _BASIS_CACHE[key] = basis
    return basis


def decompose(h, basis: GraverBasis) -> list:
    """Write a kernel vector as a sum of conforming basis elements.

    Greedy: subtract the first basis element conforming to the running
    remainder. Every returned term is sign-compatible with h.
    """
    h = tuple(h)
    matrix = config_matrix(basis.k, basis.pseudo)
    if not any(h):
        raise InputError("cannot decompose the zero vector")
    if any(matrix.mat_vec(h)):
        raise InputError("vector is not in the kernel of A")
    terms = []
    rem = h
    while any(rem):
        g = next((g for g in basis.elements if sqsubseteq(g, rem)), None)
        if g is None:
            raise InvariantViolation(
                f"no basis element conforms to remainder {rem}; basis incomplete"
            )
        terms.append(g)
        rem = tuple(a - b for a, b in zip(rem, g))
    return terms


def bareiss_determinant(rows) -> int:
    """Exact integer determinant, fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise InputError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            swap = next((r for r in range(i + 1, n) if m[r][i] != 0), None)
            if swap is None:
                return 0
            m[i], m[swap] = m[swap], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[n - 1][n - 1]


@lru_cache(maxsize=None)
def max_subdeterminant(matrix: ConfigMatrix) -> int:
    """Largest |det| over all square submatrices, exhaustive; memoized."""
    if matrix.k > SUBDET_K_GUARD:
        raise ResourceLimitError(
            f"subdeterminant enumeration guarded at k <= {SUBDET_K_GUARD}, "
            f"got k={matrix.k}"
        )
    rows = matrix.rows()
    best = 0
    for j in range(1, matrix.k + 1):
        for rsel in combinations(range(matrix.k), j):
            picked = [rows[i] for i in rsel]
            for csel in combinations(range(matrix.q), j):
                sub = [[row[c] for c in csel] for row in picked]
                best = max(best, abs(bareiss_determinant(sub)))
    return best


def exp_ceiling(k: int) -> int:
    """Exact ceil(e**k) from a rational upper bound on e; no floats."""
    if k < 0:
        raise InputError(f"exponent must be nonnegative, got {k}")
    # partial sum of 1/i! plus the standard tail bound 1/(N*N!) majorizes e
    n_terms = 25
    e_hi = sum(Fraction(1, math.factorial(i)) for i in range(n_terms + 1))
    e_hi += Fraction(1, n_terms * math.factorial(n_terms))
    p = e_hi**k
    return -((-p.numerator) // p.denominator)


@dataclass(frozen=True)
class BoundCertificate:
    delta: int
    exp_ceiling: int
    q_delta: int
    max_inf_norm: int
    max_one_norm: int
    inf_norm_ok: bool
    delta_ok: bool

    @property
    def ok(self) -> bool:
        return self.inf_norm_ok and self.delta_ok


def certify_bounds(basis: GraverBasis, matrix: ConfigMatrix) -> BoundCertificate:
    """Check every basis element against the subdeterminant-derived caps.

    A failure here is reported, not raised; the test suite treats any
    False flag as fatal.
    """
    delta = max_subdeterminant(matrix)
    cap = exp_ceiling(matrix.k)
    inf_norm = basis.max_inf_norm
    one_norm = basis.max_one_norm
    return BoundCertificate(
        delta=delta,
        exp_ceiling=cap,
        q_delta=matrix.q * delta,
        max_inf_norm=inf_norm,
        max_one_norm=one_norm,
        inf_norm_ok=inf_norm <= matrix.q * delta,
        delta_ok=delta <= cap,
    )
