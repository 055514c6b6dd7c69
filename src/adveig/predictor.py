"""Predicted s -> infinity limit of the principal eigenvalue.

The finite limit is the minimum over one candidate term per component
of the local-maximum set: c(x) at interior isolated maxima, c(0)/c(1)
at boundary isolated maxima only when the matching ell vanishes, the
inner-plateau sub-interval eigenvalues (the quantity frak_L), and
Robin-closed sub-interval eigenvalues for plateaus touching a boundary,
which inherit the global (hbar, ell) pair at that end.  Unbounded cases
are delegated to the boundedness trichotomy.

Sub-interval eigenvalues are computed numerically; each term carries a
Richardson error estimate (coarse vs fine grid) and argmin ties are
reported as the full attaining set, since the limiting measure may be
supported on several components at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .assembly import SubBC, assemble_subinterval, principal_eigen
from .errors import PreconditionViolated
from .maxset import (SEGMENT_SUB_BC, MaxSetDecomposition, boundedness,
                     decompose_periodic)
from .profile import Potential, RobinBC

GRID_PER_UNIT = 4000     # sub-interval grid points per unit length
_MIN_SUB_N = 64


@dataclass(frozen=True)
class LimitTerm:
    kind: str                # c_at_point | ND | NN | DD | DN | RD | RN | NR | DR
    value: float
    source: object           # IsolatedMax or SegmentMax behind the term
    interval: tuple | None = None
    error_estimate: float = 0.0


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


def _sub_eigenvalue(c, a, b, left, right):
    """Sub-interval principal eigenvalue with a two-grid error estimate."""
    n = max(_MIN_SUB_N, math.ceil(GRID_PER_UNIT * (b - a)))
    fine = principal_eigen(assemble_subinterval(c, a, b, left, right, n)).lam
    coarse = principal_eigen(assemble_subinterval(c, a, b, left, right, n // 2)).lam
    return fine, abs(fine - coarse) / 3.0   # second-order Richardson gap


def _segment_term(seg, c, bc):
    """Sub-interval eigenvalue term of a plateau; an R end inherits the
    global Robin pair of bc at the boundary the class touches."""
    left, right = SEGMENT_SUB_BC[seg.cls]
    lam, err = _sub_eigenvalue(
        c, seg.a, seg.b,
        SubBC.R(bc.hbar1, bc.ell1) if left == "R" else SubBC(left),
        SubBC.R(bc.hbar2, bc.ell2) if right == "R" else SubBC(right))
    return LimitTerm(left + right, lam, seg, (seg.a, seg.b), err)


def frak_L(decomp: MaxSetDecomposition, c: Potential) -> float:
    """min over inner plateaus of their ND/NN/DD/DN eigenvalues; +inf
    when M2..M5 are all empty."""
    return min((_segment_term(seg, c, None).value
                for seg in decomp.segments
                if seg.cls in ("M2", "M3", "M4", "M5")), default=math.inf)


def _collect_terms(decomp, c, bc):
    """c terms at the isolated maxima that count, then one term per
    plateau; bc is only read at boundary maxima and boundary plateaus."""
    terms = []
    for point in decomp.isolated:
        if point.position == "interior":
            terms.append(LimitTerm("c_at_point", float(c(point.x)), point))
        elif point.position == "left_boundary" and bc.ell1 == 0.0:
            terms.append(LimitTerm("c_at_point", float(c(0.0)), point))
        elif point.position == "right_boundary" and bc.ell2 == 0.0:
            terms.append(LimitTerm("c_at_point", float(c(1.0)), point))
    terms.extend(_segment_term(seg, c, bc) for seg in decomp.segments)
    return terms


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


def _finite(terms):
    argmin, best = _argmin_set(terms)
    return LimitPrediction(True, best, tuple(terms), argmin)


def predict_limit(decomp: MaxSetDecomposition, c: Potential,
                  bc: RobinBC) -> LimitPrediction:
    """Limit prediction for the Robin problem, or the unbounded verdict."""
    verdict = boundedness(decomp, bc)
    if not verdict.bounded:
        return LimitPrediction(False, None, case=verdict.case)
    terms = _collect_terms(decomp, c, bc)
    if not terms:
        # all maxima are boundary points shielded by ell > 0, yet the
        # trichotomy said bounded: cannot happen for a valid decomposition
        raise PreconditionViolated("bounded verdict without candidate terms")
    return _finite(terms)


def periodic_prediction(profile, c: Potential) -> LimitPrediction:
    """Term-by-term form of the periodic limit min{frak_L, min c over
    isolated maxima}: always finite, the case with no boundary terms
    (decompose_periodic keeps interior maxima only and rejects boundary
    plateaus).  Requires m'(0) > 0 (periodic normalization)."""
    return _finite(_collect_terms(decompose_periodic(profile), c, None))
