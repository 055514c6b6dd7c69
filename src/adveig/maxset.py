"""Decomposition of the local-maximum set of m into classes M1..M9.

Classification is purely symbolic over the verified segment signs, so
it cannot flicker with grid choices: adjacent segments of equal sign
are merged into runs, isolated maxima sit at +/- run junctions (and at
a boundary approached the right way), and each constancy plateau
carries the signs of m' on its flanks, from which its class is read:

    M2 [aI,bI]  inner plateau, increasing on both flanks
    M3 [aI,bD]  inner plateau, true maximum (increasing in, decreasing out)
    M4 [aD,bI]  inner plateau, valley (decreasing in, increasing out)
    M5 [aD,bD]  inner plateau, decreasing through
    M6 [0,aI] / M7 [0,aD]   plateau touching the left boundary
    M8 [aI,1] / M9 [aD,1]   plateau touching the right boundary

The degeneracy order k* of an isolated maximum (first k >= 2 with
m^(k)(x0) != 0) is defined only where the two one-sided derivative
sequences agree through that order, i.e. where x0 effectively lies
inside a single polynomial piece.  No boundary data are read here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundaryClassPresent, NotPeriodic, PreconditionViolated
from .profile import AdvectionProfile, DEGREE_CAP

INTERIOR = "interior"
LEFT_BOUNDARY = "left_boundary"
RIGHT_BOUNDARY = "right_boundary"

# plateau class from (left flank sign, right flank sign); None marks a boundary
_PLATEAU_CLASS = {
    (1, 1): "M2", (1, -1): "M3", (-1, 1): "M4", (-1, -1): "M5",
    (None, 1): "M6", (None, -1): "M7", (1, None): "M8", (-1, None): "M9",
}


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
    flanks: tuple                  # sign of m' left of a, right of b; None at 0 or 1

    @property
    def cls(self):
        """The class label M2..M9 that the flanks give."""
        return _PLATEAU_CLASS[self.flanks]


@dataclass(frozen=True)
class MaxSetDecomposition:
    isolated: tuple
    segments: tuple
    circle: bool = False           # made by decompose_periodic

    def components(self):
        """All components as (lo, hi) intervals (points degenerate)."""
        out = [(p.x, p.x) for p in self.isolated]
        out.extend((s.a, s.b) for s in self.segments)
        return sorted(out)


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
            segments.append(SegmentMax(knots[lo], knots[hi], (left, right)))
        elif sign == 1 and i + 1 < len(runs) and runs[i + 1][0] == -1:
            k, mk = _kstar_at(profile, hi, INTERIOR)
            isolated.append(IsolatedMax(knots[hi], INTERIOR, k, mk))

    isolated.sort(key=lambda p: p.x)
    return MaxSetDecomposition(tuple(isolated), tuple(segments))


def decompose_periodic(profile: AdvectionProfile) -> MaxSetDecomposition:
    """Decomposition for the 1-periodic problem (needs m'(0) > 0).

    On the circle the wrap point 0 ~ 1 sits inside an increasing run, so
    the right-boundary maximum that the restricted-to-[0,1] reading
    would report at 1 is dropped.  m'(0) > 0 rules out a plateau at 0,
    but a plateau reaching 1 (M8, M9) can occur and is refused: the
    circle has no boundary for it to touch.
    """
    if profile.knot_values(0)[1] <= 0:
        raise PreconditionViolated("periodic decomposition requires m'(0) > 0")
    decomp = decompose(profile)
    if any(None in s.flanks for s in decomp.segments):
        raise BoundaryClassPresent(
            "boundary plateau classes are not meaningful on the circle")
    interior = tuple(p for p in decomp.isolated if p.position == INTERIOR)
    if not interior and not decomp.segments:
        raise NotPeriodic("m has no local maximum on the circle")
    return MaxSetDecomposition(interior, decomp.segments, circle=True)
