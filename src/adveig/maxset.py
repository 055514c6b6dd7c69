"""Decomposition of the local-maximum set of m into classes M1..M9.

Classification is purely symbolic over the verified segment signs, so
it cannot flicker with grid choices: adjacent segments of equal sign
are merged into runs, isolated maxima sit at +/- run junctions (and at
a boundary approached the right way), and each constancy plateau is
classified by the signs of its flanks:

    M2 [aI,bI]  inner plateau, increasing on both flanks
    M3 [aI,bD]  inner plateau, true maximum (increasing in, decreasing out)
    M4 [aD,bI]  inner plateau, valley (decreasing in, increasing out)
    M5 [aD,bD]  inner plateau, decreasing through
    M6 [0,aI] / M7 [0,aD]   plateau touching the left boundary
    M8 [aI,1] / M9 [aD,1]   plateau touching the right boundary

The degeneracy order k* of an isolated maximum (first k >= 2 with
m^(k)(x0) != 0) is defined only where the two one-sided derivative
sequences agree through that order, i.e. where x0 effectively lies
inside a single polynomial piece.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (AtSegmentJunction, BoundaryClassPresent, NotAMaximum,
                     NotPeriodic, PreconditionViolated)
from .profile import AdvectionProfile, DEGREE_CAP

INTERIOR = "interior"
LEFT_BOUNDARY = "left_boundary"
RIGHT_BOUNDARY = "right_boundary"

# plateau class from (left flank sign, right flank sign); 0 marks a boundary
_PLATEAU_CLASS = {
    (1, 1): "M2", (1, -1): "M3", (-1, 1): "M4", (-1, -1): "M5",
    (None, 1): "M6", (None, -1): "M7", (1, None): "M8", (-1, None): "M9",
}

SEGMENT_SUB_BC = {  # class -> (left closure, right closure); R inherits the
    "M2": ("N", "D"), "M3": ("N", "N"), "M4": ("D", "D"), "M5": ("D", "N"),
    "M6": ("R", "D"), "M7": ("R", "N"), "M8": ("N", "R"), "M9": ("D", "R"),
}   # global Robin pair at the touching endpoint


@dataclass(frozen=True)
class IsolatedMax:
    x: float
    position: str                  # interior | left_boundary | right_boundary
    k_star: int | None = None      # first k >= 2 with m^(k)(x) != 0, if defined
    m_kstar: float | None = None


@dataclass(frozen=True)
class SegmentMax:
    a: float
    b: float
    cls: str                       # M2..M9


@dataclass(frozen=True)
class MaxSetDecomposition:
    isolated: tuple
    segments: tuple

    def components(self):
        """All components as (lo, hi) intervals (points degenerate)."""
        out = [(p.x, p.x) for p in self.isolated]
        out.extend((s.a, s.b) for s in self.segments)
        return sorted(out)

    def boundary_segments(self):
        return tuple(s for s in self.segments if s.cls in ("M6", "M7", "M8", "M9"))


def _sign_runs(profile: AdvectionProfile):
    """Merge adjacent equal-sign segments into (sign, lo, hi) runs, with
    lo and hi knot indices."""
    runs = []
    for i, sign in enumerate(profile.sign_signature):
        if runs and runs[-1][0] == sign:
            runs[-1] = (sign, runs[-1][1], i + 1)
        else:
            runs.append((sign, i, i + 1))
    return runs


# one-sided derivative sequences that exist at each kind of maximum
_SIDES = {INTERIOR: ("left", "right"),
          LEFT_BOUNDARY: ("right",),
          RIGHT_BOUNDARY: ("left",)}


def _zero_tol(profile):
    """Tolerance below which a derivative value counts as zero."""
    return 1e-9 * max(1.0, profile.scale)


def _sloped(profile, i, position, tol):
    """m' != 0 at knot i on some side that exists."""
    return any(abs(profile.knot_values(i, s)[1]) > tol for s in _SIDES[position])


def _kstar_at(profile: AdvectionProfile, i, position):
    """(k*, m^(k*)) if defined at an isolated maximum at knot i, else
    (None, None).

    Interior points need the left/right derivative sequences to agree
    through the first nonzero order; at a domain boundary only the
    inward side exists.  m'(x) != 0 (possible at a boundary maximum)
    leaves k* undefined since the definition starts from m'(x) = 0.
    """
    tol = _zero_tol(profile)
    if _sloped(profile, i, position, tol):
        return None, None
    sides = [profile.knot_values(i, s) for s in _SIDES[position]]
    for k in range(2, DEGREE_CAP + 1):
        vals = [seq[k] for seq in sides]
        if len(vals) == 2 and abs(vals[0] - vals[1]) > tol * max(1.0, abs(vals[0]), abs(vals[1])):
            return None, None   # genuine junction: higher derivatives disagree
        if abs(vals[0]) > tol:
            return k, float(vals[0])
    return None, None


def decompose(profile: AdvectionProfile) -> MaxSetDecomposition:
    """Local-maximum set of a validated profile as M1..M9 components."""
    runs = _sign_runs(profile)
    knots = profile.knots.tolist()
    isolated = []
    segments = []

    # boundary isolated maxima: 0 if m decreases immediately to its right,
    # 1 if m increases immediately to its left
    if runs[0][0] == -1:
        k, mk = _kstar_at(profile, 0, LEFT_BOUNDARY)
        isolated.append(IsolatedMax(0.0, LEFT_BOUNDARY, k, mk))
    if runs[-1][0] == 1:
        k, mk = _kstar_at(profile, len(knots) - 1, RIGHT_BOUNDARY)
        isolated.append(IsolatedMax(1.0, RIGHT_BOUNDARY, k, mk))

    for i, (sign, lo, hi) in enumerate(runs):
        if sign == 0:
            left = runs[i - 1][0] if i > 0 else None
            right = runs[i + 1][0] if i + 1 < len(runs) else None
            segments.append(SegmentMax(knots[lo], knots[hi],
                                       _PLATEAU_CLASS[(left, right)]))
        elif sign == 1 and i + 1 < len(runs) and runs[i + 1][0] == -1:
            k, mk = _kstar_at(profile, hi, INTERIOR)
            isolated.append(IsolatedMax(knots[hi], INTERIOR, k, mk))

    isolated.sort(key=lambda p: p.x)
    return MaxSetDecomposition(tuple(isolated), tuple(segments))


def decompose_periodic(profile: AdvectionProfile) -> MaxSetDecomposition:
    """Decomposition for the 1-periodic problem (needs m'(0) > 0).

    On the circle the wrap point 0 ~ 1 sits inside an increasing run, so
    the right-boundary maximum that the restricted-to-[0,1] reading
    would report at 1 is dropped; boundary plateau classes cannot occur
    and are rejected defensively.
    """
    if profile.knot_values(0)[1] <= 0:
        raise PreconditionViolated("periodic decomposition requires m'(0) > 0")
    decomp = decompose(profile)
    if decomp.boundary_segments():
        raise BoundaryClassPresent(
            "boundary plateau classes are not meaningful on the circle")
    interior = tuple(p for p in decomp.isolated if p.position == INTERIOR)
    if not interior and not decomp.segments:
        raise NotPeriodic("m has no local maximum on the circle")
    return MaxSetDecomposition(interior, decomp.segments)


def degeneracy_order(profile: AdvectionProfile, x0: float):
    """(k*, m^(k*)(x0)) for an isolated maximum inside one polynomial piece.

    Raises NotAMaximum if x0 is not an isolated local maximum of m, and
    AtSegmentJunction if the one-sided derivative sequences disagree
    before the first nonzero order (k* undefined there).
    """
    decomp = decompose(profile)
    tol = 1e-12
    match = [p for p in decomp.isolated if abs(p.x - x0) <= tol]
    if not match:
        raise NotAMaximum(f"{x0} is not an isolated local maximum")
    point = match[0]
    if point.k_star is not None:
        return point.k_star, point.m_kstar
    # distinguish "undefined because junction" from "m' != 0 at boundary"
    knot = profile.knots.tolist().index(point.x)
    if _sloped(profile, knot, point.position, _zero_tol(profile)):
        raise AtSegmentJunction(
            f"m'({x0}) != 0: degeneracy order starts at k >= 2")
    raise AtSegmentJunction(
        f"one-sided derivatives disagree at {x0}; k* undefined")


@dataclass(frozen=True)
class Boundedness:
    bounded: bool
    case: str | None = None       # i-1 | i-2 | i-3 for unbounded verdicts


def shielded(point: IsolatedMax, bc) -> bool:
    """A boundary maximum whose end has ell > 0: the boundary data
    penalize it, so it adds no c term to the limit.  Interior maxima
    (the only kind on the circle) are never shielded and never read bc."""
    return ((point.position == LEFT_BOUNDARY and bc.ell1 > 0)
            or (point.position == RIGHT_BOUNDARY and bc.ell2 > 0))


def boundedness(decomp: MaxSetDecomposition, bc) -> Boundedness:
    """Boundedness trichotomy of the s -> infinity limit.

    Unbounded exactly when there is no plateau and every isolated
    maximum is shielded: (i-1) both ells positive and M = M1 subset
    {0,1}; (i-2) ell1 > 0 = ell2 and M = {0}; (i-3) ell1 = 0 < ell2 and
    M = {1}.
    """
    if decomp.segments or not all(shielded(p, bc) for p in decomp.isolated):
        return Boundedness(True)
    if bc.ell1 > 0 and bc.ell2 > 0:
        return Boundedness(False, "i-1")
    return Boundedness(False, "i-2" if bc.ell1 > 0 else "i-3")
