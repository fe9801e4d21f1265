"""Graver bases of the per-event configuration matrices.

The Graver basis of A is the set of sign-minimal nonzero integer kernel
vectors: g is in the basis iff no other nonzero kernel vector h is
sign-compatible with g and componentwise no larger in magnitude. A
scan of the basis for the cheapest applicable move
(engine.graver_min_move) certifies the engine's planner in tests,
`--verify` and `repart verify`; this module also certifies the norm
bounds that make that scan sound (max |subdeterminant| and the
infinity-norm cap).

Computation is by completion. The element list starts as a kernel
lattice basis read off the columns of A (kernel_basis) and its
negations. A walk over the list by index adds the j-th element to each
element 0..j and reduces the sum: it subtracts the first element
conforming to the remainder until none conforms. A sign-compatible pair
is skipped, as its sum is a conformal sum of two elements already
(Hemmecke, Math. Programming 2003). Each element keeps its positive and
negative supports as bitmasks, so that skip is two ANDs and the scan
passes over an element whose supports do not lie inside the
remainder's without comparing magnitudes. A nonzero remainder and its
negation join the end of the list, so the walk reaches them too; it
stops at the end of the list. The basis is the sorted tuple of the
sign-order-minimal elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .configs import ConfigMatrix, config_matrix, nd
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
    """Integer basis of the kernel lattice of A, read off its columns.

    The columns b_s = (k - s) singletons + one size-s component, s = 1..k
    (b_1 is all singletons), are independent. Any other column c, of
    demand m*k (m = 2 for the pseudo), is sum_s c_s*b_s over s >= 2 plus
    (m - sum_s c_s)*b_1, so its unit vector minus that combination lies
    in the kernel. These vectors are a signed identity on the other
    columns, hence a lattice basis; each is negated if its first nonzero
    entry is negative, and the tuple is sorted.
    """
    k, columns = matrix.k, matrix.columns
    pivots = []
    for s in range(1, k + 1):
        b = [k - s] + [0] * (k - 1)
        b[s - 1] += 1
        pivots.append(columns.index(tuple(b)))
    basis = []
    for j, col in enumerate(columns):
        if j in pivots:
            continue
        vec = [0] * matrix.q
        vec[j] = 1
        for p, c in zip(pivots, (nd(col) // k - sum(col[1:]),) + col[1:]):
            vec[p] -= c
        if next(x for x in vec if x) < 0:
            vec = [-x for x in vec]
        basis.append(tuple(vec))
    return tuple(sorted(basis))


def _supports(v) -> tuple:
    """(positive support, negative support) of v as bitmasks."""
    pos = neg = 0
    for i, c in enumerate(v):
        if c > 0:
            pos |= 1 << i
        elif c < 0:
            neg |= 1 << i
    return pos, neg


def _conforming(s, elements, masks):
    """The elements that conform to s, in order; masks[i] is
    _supports(elements[i]), checked before the magnitudes."""
    sp, sn = _supports(s)
    out_p, out_n = ~sp, ~sn
    for g, (gp, gn) in zip(elements, masks):
        if not (gp & out_p or gn & out_n) and all(abs(a) <= abs(b) for a, b in zip(g, s)):
            yield g


def _reduce(s, elements, masks):
    """Subtract the first element conforming to s until none conforms;
    return the remainder and the subtracted elements in order."""
    terms = []
    while any(s) and (g := next(_conforming(s, elements, masks), None)) is not None:
        s = tuple(a - b for a, b in zip(s, g))
        terms.append(g)
    return s, terms


def compute_graver(matrix: ConfigMatrix) -> tuple:
    """The Graver basis of A as the sorted tuple of its elements."""
    if matrix.k > GRAVER_K_GUARD:
        raise ResourceLimitError(
            f"Graver completion guarded at k <= {GRAVER_K_GUARD}, got k={matrix.k}"
        )
    elements: list = []
    masks: list = []  # masks[i] = _supports(elements[i])
    seen: set = set()

    def insert(v):
        for w in (v, tuple(-c for c in v)):
            if w not in seen:
                if len(elements) >= _COMPLETION_ELEMENT_CAP:
                    raise ResourceLimitError("Graver completion exceeded its element cap")
                elements.append(w)
                masks.append(_supports(w))
                seen.add(w)

    for b in kernel_basis(matrix):
        insert(b)
    for j, g in enumerate(elements):  # the walk also reaches appended elements
        gp, gn = masks[j]
        for i in range(j + 1):
            hp, hn = masks[i]
            if not (hp & gn or hn & gp):  # sign-compatible: the sum is already conformal
                continue
            r, _ = _reduce(tuple(a + b for a, b in zip(elements[i], g)), elements, masks)
            if any(r):
                insert(r)
    minimal = [
        g for g in elements if not any(h != g for h in _conforming(g, elements, masks))
    ]
    return tuple(sorted(minimal))


@lru_cache(maxsize=None)
def graver_basis_for(k: int, pseudo: tuple) -> tuple:
    """compute_graver(config_matrix(k, pseudo)), memoized."""
    return compute_graver(config_matrix(k, pseudo))


@lru_cache(maxsize=64)
def _basis_masks(basis: tuple) -> tuple:
    """_supports of each basis element; memoized, as verify decomposes
    hundreds of vectors on one basis."""
    return tuple(map(_supports, basis))


def decompose(h, basis: tuple, matrix: ConfigMatrix) -> list:
    """Write a kernel vector of A = matrix as a sum of conforming basis
    elements.

    Greedy: subtract the first basis element conforming to the running
    remainder. Every returned term is sign-compatible with h.
    """
    h = tuple(h)
    if not any(h):
        raise InputError("cannot decompose the zero vector")
    if any(matrix.mat_vec(h)):
        raise InputError("vector is not in the kernel of A")
    rem, terms = _reduce(h, basis, _basis_masks(tuple(basis)))
    if any(rem):
        raise InvariantViolation(
            f"no basis element conforms to remainder {rem}; basis incomplete"
        )
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
    inf_norm_ok: bool
    delta_ok: bool

    @property
    def ok(self) -> bool:
        return self.inf_norm_ok and self.delta_ok


def certify_bounds(basis: tuple, matrix: ConfigMatrix) -> BoundCertificate:
    """Check every basis element against the subdeterminant-derived caps.

    A failure here is reported, not raised; the test suite treats any
    False flag as fatal.
    """
    delta = max_subdeterminant(matrix)
    cap = exp_ceiling(matrix.k)
    inf_norm = max(max(map(abs, g)) for g in basis)
    return BoundCertificate(
        delta=delta,
        exp_ceiling=cap,
        q_delta=matrix.q * delta,
        max_inf_norm=inf_norm,
        inf_norm_ok=inf_norm <= matrix.q * delta,
        delta_ok=delta <= cap,
    )
