"""Predicted s -> infinity limit of the principal eigenvalue, with the
boundary data's part in it (shielding, the trichotomy of unbounded
limits, plateau closures): the one module that applies RobinBC to the
limit.

The finite limit is the minimum over one candidate term per component
of the local-maximum set: c(x) at interior isolated maxima, c(0)/c(1)
at boundary isolated maxima only when the matching ell vanishes, and a
sub-interval eigenvalue of -phi'' + c phi on each plateau [a, b].  One
rule on each flank closes a plateau end: Neumann (N) where m falls away
from the plateau, Dirichlet (D) where m rises away from it, and at
x = 0 or 1 the global (hbar, ell) pair of that end through RobinBC.betas
(R).  The solve below is the only solver of those plateaus.  The limit
is unbounded exactly when no term is left, and the ells then name the
case of the trichotomy.

Each sub-interval eigenvalue is a spectral-element solve with one
Gauss-Lobatto-Legendre (GLL) element per piece of c, which converges
spectrally in the element degree since c is a polynomial on each piece
(Trefethen, Spectral Methods in MATLAB, 2000; Canuto, Hussaini,
Quarteroni & Zang, Spectral Methods, 2006).  Each term carries the gap
between two degrees as its error estimate, and argmin ties are reported
as the full attaining set, since the limiting measure may be supported
on several components at once.  The element matrices are small (13 to
17 unknowns per element) and go to numpy's dense eigh, so a prediction
never imports scipy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, PreconditionViolated
from .maxset import (LEFT_BOUNDARY, RIGHT_BOUNDARY, IsolatedMax,
                     MaxSetDecomposition, decompose, decompose_periodic)
from .profile import PeriodicBC, Potential, RobinBC

P_FINE, P_COARSE = 16, 12     # GLL element degrees of the value and its check
# A knot of c within this fraction of b - a of an element end starts no
# element: the sliver's tiny lumped masses would make the scaled matrix
# ill-conditioned (relative errors of 1e-6 at a 1e-5 sliver), while
# straddling a kink of c that close costs about 1e-7 relative per unit
# jump of c', and shows in the error estimate.
_KNOT_GAP = 1e-4


@dataclass(frozen=True)
class LimitTerm:
    kind: str                # c_at_point | ND | NN | DD | DN | RD | RN | NR | DR
    value: float
    source: object           # IsolatedMax or SegmentMax behind the term
    interval: tuple | None = None
    error_estimate: float = 0.0  # plateau: |value at P_FINE - value at P_COARSE|


@dataclass(frozen=True)
class LimitPrediction:
    finite: bool
    value: float | None            # min over terms when finite
    terms: tuple = ()
    argmin: tuple = ()             # indices of attaining terms (ties kept)
    case: str | None = None        # i-1 | i-2 | i-3 when unbounded

    @property
    def verdict(self):
        return "finite" if self.finite else "unbounded"


def _legendre(p, x):
    """P_{p-1}(x) and P_p(x) by the three-term recurrence."""
    prev, cur = np.ones_like(x), x
    for k in range(2, p + 1):
        prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
    return prev, cur


@functools.lru_cache(maxsize=2)     # the predictor uses P_FINE and P_COARSE only
def _gll_element(p):
    """GLL nodes, weights, differentiation matrix D and stiffness
    D^T diag(w) D of the degree-p reference element [-1, 1].

    The nodes, the roots of (1 - x^2) P_p'(x), come from a Newton-type
    iteration started at the Chebyshev-Lobatto points; D's diagonal is
    minus its off-diagonal row sum, so D differentiates constants to
    rounding.
    """
    x = -np.cos(np.pi * np.arange(p + 1) / p)
    for _ in range(100):
        prev, cur = _legendre(p, x)
        step = (x * cur - prev) / ((p + 1) * cur)
        x = x - step
        if np.abs(step).max() <= 1e-15:
            break
    x[0], x[-1] = -1.0, 1.0
    pp = _legendre(p, x)[1]
    weights = 2.0 / (p * (p + 1) * pp ** 2)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    diff = (pp[:, None] / pp[None, :]) / dx
    np.fill_diagonal(diff, 0.0)
    np.fill_diagonal(diff, -diff.sum(axis=1))
    rule = (x, weights, diff, diff.T @ (weights[:, None] * diff))
    for array in rule:              # shared by every caller through the cache
        array.flags.writeable = False
    return rule


def _gll_eigenvalue(c, a, b, betas, p):
    """Principal eigenvalue of -phi'' + c phi on [a, b] from degree-p GLL
    elements, one per piece of c, with lumped (GLL) mass; b > 1 is a
    plateau through 0 ~ 1 of the circle, where c(x) reads c(x - 1).

    betas holds the Robin coefficient phi' = +-beta phi of each end, or
    None for a Dirichlet end, whose node is dropped.  The eigenvector of
    M^{-1/2} A M^{-1/2} is scored by its Rayleigh quotient in sum-of-
    squares form, sum_e (2/h_e) w (D phi)^2 + sum beta phi_end^2 +
    sum m c phi^2 over sum m phi^2, taken as min c plus the quotient
    with c - min c in place of c.  Every term of that quotient is
    nonnegative, so the 1/h^2 scale of the stiffness cancels nothing.
    A constant c under Neumann ends comes back as c plus the energy of
    the rounded eigenvector, about 1e-25 / (b - a)^2: exactly c when c is
    of order 1, rounding noise when c = 0.
    """
    nodes, weights, diff, stiff = _gll_element(p)
    gap = _KNOT_GAP * (b - a)
    knots = np.append(c.knots, c.knots + 1.0) if b > 1.0 else c.knots
    ends = [a]
    for k in knots.tolist():
        if ends[-1] + gap < k < b - gap:
            ends.append(k)
    ends.append(b)
    n = p * (len(ends) - 1) + 1
    x = np.empty(n)
    mass = np.zeros(n)
    matrix = np.zeros((n, n))
    blocks = []
    for e in range(len(ends) - 1):
        block = slice(p * e, p * e + p + 1)
        scale = 2.0 / (ends[e + 1] - ends[e])      # d(xi)/dx on the element
        x[block] = 0.5 * (ends[e] * (1.0 - nodes) + ends[e + 1] * (1.0 + nodes))
        mass[block] += weights / scale
        matrix[block, block] += scale * stiff
        blocks.append((block, scale))
    cx = c(np.where(x > 1.0, x - 1.0, x) if b > 1.0 else x)
    beta_left, beta_right = betas[0] or 0.0, betas[1] or 0.0
    matrix.flat[::n + 1] += mass * cx
    matrix[0, 0] += beta_left
    matrix[-1, -1] += beta_right
    kept = slice(int(betas[0] is None), n - int(betas[1] is None))
    root = 1.0 / np.sqrt(mass[kept])
    try:   # eigh sorts ascending: column 0 is the principal vector
        vectors = np.linalg.eigh(matrix[kept, kept] * root[:, None] * root)[1]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(1, f"eigh: {exc}") from None
    phi = np.zeros(n)
    phi[kept] = vectors[:, 0] * root
    q = mass * phi * phi
    total = q.sum()
    floor = cx.min()
    energy = (sum(scale * float(weights @ (diff @ phi[block]) ** 2)
                  for block, scale in blocks)
              + beta_left * phi[0] ** 2 + beta_right * phi[-1] ** 2
              + float(q @ (cx - floor)))
    return float(floor + energy / total)


def _sub_eigenvalue(c, a, b, betas):
    """Sub-interval principal eigenvalue at GLL degree P_FINE, and its gap
    to degree P_COARSE as the error estimate.

    With lumped mass the value is not a strict Rayleigh-Ritz upper bound
    on the continuum eigenvalue, so the estimate is a convergence gap,
    not a certified bracket.  It is at rounding level when degree
    P_COARSE already resolves the eigenfunction, and grows when c is
    steep on [a, b]."""
    fine = _gll_eigenvalue(c, a, b, betas, P_FINE)
    return fine, abs(fine - _gll_eigenvalue(c, a, b, betas, P_COARSE))


def shielded(point: IsolatedMax, bc) -> bool:
    """A boundary maximum whose end has ell > 0: the boundary data
    penalize it, so it adds no c term to the limit.  Interior maxima
    (the only kind on the circle) are never shielded and never read bc."""
    return ((point.position == LEFT_BOUNDARY and bc.ell1 > 0)
            or (point.position == RIGHT_BOUNDARY and bc.ell2 > 0))


def _segment_term(seg, c, bc):
    """Sub-interval eigenvalue term of a plateau, each end closed by its
    flank: R (bc's beta) at x = 0 or 1, D where m rises away from the
    plateau (m' < 0 left of a, m' > 0 right of b), else N."""
    kinds, betas = zip(*[("R", bc.betas()[end]) if flank is None
                         else ("D", None) if flank == 2 * end - 1
                         else ("N", 0.0)
                         for end, flank in enumerate(seg.flanks)])
    lam, err = _sub_eigenvalue(c, seg.a, seg.b, betas)
    return LimitTerm("".join(kinds), lam, seg, (seg.a, seg.b), err)


def _argmin_set(terms):
    """Indices of the terms tied with the minimum, and the minimum.

    A term is tied when the gap to the minimizer is within 4x the larger
    of the two error estimates involved (floor 1e-9); a wide estimate on
    an unrelated term does not widen the tie for everyone else.
    """
    best = min(terms, key=lambda t: t.value)

    def tied(t):
        tol = max(1e-9, 4.0 * max(t.error_estimate, best.error_estimate))
        return t.value <= best.value + tol

    return tuple(i for i, t in enumerate(terms) if tied(t)), best.value


def predict_limit(decomp: MaxSetDecomposition, c: Potential,
                  bc: RobinBC | PeriodicBC) -> LimitPrediction:
    """Limit prediction, or the unbounded verdict.  The terms are c at
    each isolated maximum that bc does not shield, then one per plateau;
    bc is only read at boundary maxima and boundary plateaus.  With no
    term left the limit is unbounded: (i-1) both ells positive, (i-2)
    ell1 > 0 = ell2, (i-3) ell1 = 0 < ell2.

    decomp must come from decompose_periodic exactly when bc is
    PeriodicBC (PreconditionViolated otherwise)."""
    if decomp.circle != isinstance(bc, PeriodicBC):
        raise PreconditionViolated(
            f"a {'circle' if decomp.circle else '[0, 1]'} decomposition with "
            f"{type(bc).__name__}: decompose_periodic pairs with PeriodicBC, "
            "decompose with RobinBC")
    terms = tuple([LimitTerm("c_at_point", float(c(p.x)), p)
                   for p in decomp.isolated if not shielded(p, bc)]
                  + [_segment_term(seg, c, bc) for seg in decomp.segments])
    if not terms:      # every maximum is a shielded boundary point
        case = ("i-1" if bc.ell1 > 0 and bc.ell2 > 0
                else "i-2" if bc.ell1 > 0 else "i-3")
        return LimitPrediction(False, None, case=case)
    argmin, best = _argmin_set(terms)
    return LimitPrediction(True, best, terms, argmin)


def decompose_under(profile, c: Potential, bc: RobinBC | PeriodicBC):
    """The decomposition predict_limit reads under bc.  On the circle,
    decompose_periodic checks that m wraps, then c's wrap is checked
    (NotPeriodic either way)."""
    if isinstance(bc, PeriodicBC):
        decomp = decompose_periodic(profile)
        bc.validate(None, c)
        return decomp
    return decompose(profile)


def periodic_prediction(profile, c: Potential) -> LimitPrediction:
    """The periodic limit, the minimum of the plateau eigenvalues and of c
    at the isolated maxima: the circle form of predict_limit, which has
    no boundary terms.  The checks and their order are decompose_under's."""
    return predict_limit(decompose_under(profile, c, PeriodicBC()), c, PeriodicBC())
