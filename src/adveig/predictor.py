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
from .errors import BoundaryClassPresent, PreconditionViolated
from .maxset import (SEGMENT_SUB_BC, MaxSetDecomposition, boundedness,
                     decompose_periodic)
from .profile import Potential, RobinBC

DEFAULT_GRID_PER_UNIT = 4000
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


def _sub_n(a, b, grid_n):
    return max(_MIN_SUB_N, math.ceil(grid_n * (b - a)))


def _sub_eigenvalue(c, a, b, left, right, grid_n):
    """Sub-interval principal eigenvalue with a two-grid error estimate."""
    n = _sub_n(a, b, grid_n)
    fine = principal_eigen(assemble_subinterval(c, a, b, left, right, n)).lam
    coarse = principal_eigen(assemble_subinterval(c, a, b, left, right, n // 2)).lam
    return fine, abs(fine - coarse) / 3.0   # second-order Richardson gap


def _segment_closures(seg, bc):
    """Left/right SubBC for a plateau class, inheriting the global Robin
    pair where the class touches a boundary."""
    left_kind, right_kind = SEGMENT_SUB_BC[seg.cls]
    left = SubBC.R(bc.hbar1, bc.ell1) if left_kind == "R" else SubBC(left_kind)
    right = SubBC.R(bc.hbar2, bc.ell2) if right_kind == "R" else SubBC(right_kind)
    return left, right


def frak_L(decomp: MaxSetDecomposition, c: Potential,
           grid_n: int = DEFAULT_GRID_PER_UNIT) -> float:
    """min over inner plateaus of their ND/NN/DD/DN eigenvalues; +inf
    when M2..M5 are all empty."""
    best = math.inf
    for seg in decomp.segments:
        if seg.cls not in ("M2", "M3", "M4", "M5"):
            continue
        left_kind, right_kind = SEGMENT_SUB_BC[seg.cls]
        lam, _ = _sub_eigenvalue(c, seg.a, seg.b,
                                 SubBC(left_kind), SubBC(right_kind), grid_n)
        best = min(best, lam)
    return best


def _collect_terms(decomp, c, bc, grid_n):
    terms = []
    for point in decomp.isolated:
        if point.position == "interior":
            terms.append(LimitTerm("c_at_point", float(c(point.x)), point))
        elif point.position == "left_boundary" and bc.ell1 == 0.0:
            terms.append(LimitTerm("c_at_point", float(c(0.0)), point))
        elif point.position == "right_boundary" and bc.ell2 == 0.0:
            terms.append(LimitTerm("c_at_point", float(c(1.0)), point))
    for seg in decomp.segments:
        left, right = _segment_closures(seg, bc)
        lam, err = _sub_eigenvalue(c, seg.a, seg.b, left, right, grid_n)
        kind = {"M2": "ND", "M3": "NN", "M4": "DD", "M5": "DN",
                "M6": "RD", "M7": "RN", "M8": "NR", "M9": "DR"}[seg.cls]
        terms.append(LimitTerm(kind, lam, seg, (seg.a, seg.b), err))
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


def predict_limit(decomp: MaxSetDecomposition, c: Potential, bc: RobinBC,
                  grid_n: int = DEFAULT_GRID_PER_UNIT) -> LimitPrediction:
    """Limit prediction for the Robin problem, or the unbounded verdict."""
    verdict = boundedness(decomp, bc)
    if not verdict.bounded:
        return LimitPrediction(False, None, case=verdict.case)
    terms = _collect_terms(decomp, c, bc, grid_n)
    if not terms:
        # all maxima are boundary points shielded by ell > 0, yet the
        # trichotomy said bounded: cannot happen for a valid decomposition
        raise PreconditionViolated("bounded verdict without candidate terms")
    argmin, best = _argmin_set(terms)
    return LimitPrediction(True, best, tuple(terms), argmin)


def periodic_prediction(profile, c: Potential,
                        grid_n: int = DEFAULT_GRID_PER_UNIT) -> LimitPrediction:
    """Term-by-term form of the periodic limit min{frak_L, min c over
    isolated maxima}: always finite, c terms at every isolated maximum."""
    decomp = decompose_periodic(profile)
    if decomp.boundary_segments():
        raise BoundaryClassPresent("boundary plateau in periodic decomposition")
    terms = [LimitTerm("c_at_point", float(c(p.x)), p) for p in decomp.isolated]
    for seg in decomp.segments:
        left_kind, right_kind = SEGMENT_SUB_BC[seg.cls]
        lam, err = _sub_eigenvalue(c, seg.a, seg.b,
                                   SubBC(left_kind), SubBC(right_kind), grid_n)
        kind = {"M2": "ND", "M3": "NN", "M4": "DD", "M5": "DN"}[seg.cls]
        terms.append(LimitTerm(kind, lam, seg, (seg.a, seg.b), err))
    argmin, best = _argmin_set(terms)
    return LimitPrediction(True, best, tuple(terms), argmin)


def predict_limit_periodic(profile, c: Potential,
                           grid_n: int = DEFAULT_GRID_PER_UNIT) -> float:
    """Limiting periodic eigenvalue min{frak_L, min c over isolated maxima}.

    Requires m'(0) > 0 (periodic normalization); boundary plateau
    classes cannot occur then and are rejected upstream.
    """
    return periodic_prediction(profile, c, grid_n).value
