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

One loop reads [0, 1] and the circle 0 ~ 1.  The circle has no
boundary, so M6..M9 occur on [0, 1] only.

The degeneracy order k* of an isolated maximum (first k >= 2 with
m^(k)(x0) != 0) is defined only where the two one-sided derivative
sequences agree through that order, i.e. where x0 effectively lies
inside a single polynomial piece.  No boundary data are read here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .profile import AdvectionProfile, DEGREE_CAP, PeriodicBC

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


def _zero_tol(profile):
    """Tolerance below which a derivative value counts as zero."""
    return 1e-9 * max(1.0, profile.scale)


def _kstar_at(profile: AdvectionProfile, i, circle):
    """(k*, m^(k*)) if defined at an isolated maximum at knot i, else
    (None, None).

    The left and right derivative sequences must agree through the
    first nonzero order.  At an end of [0, 1] knot_values reads the
    inward side for both; at the wrap point 0 ~ 1 of the circle the left
    side is the last knot's.  m'(x) != 0 (possible at a boundary
    maximum) leaves k* undefined since the definition starts from m'(x) = 0.
    """
    tol = _zero_tol(profile)
    left = profile.knot_values(i or len(profile.widths) if circle else i, "left")
    right = profile.knot_values(i, "right")
    if abs(left[1]) > tol or abs(right[1]) > tol:
        return None, None
    for k in range(2, DEGREE_CAP + 1):
        if abs(left[k] - right[k]) > tol * max(1.0, abs(left[k]), abs(right[k])):
            return None, None   # genuine junction: higher derivatives disagree
        if abs(left[k]) > tol:
            return k, float(left[k])
    return None, None


def _read_runs(profile: AdvectionProfile, circle) -> MaxSetDecomposition:
    """Isolated maxima where a + run meets a - run, or m falls from x = 0
    or rises into x = 1 with no run beyond, and each 0 run of m' as a
    plateau flanked by its neighbours' signs.  On [0, 1] the first and
    last runs have no outer neighbour.  On the circle neighbours are
    cyclic (a lone run is its own), and a first and last run of one sign
    are one run through 0 ~ 1, whose knot indices past n stand for
    1 + knots[i - n]."""
    runs = []      # (sign, lo, hi): equal-sign segments merged, knot indices
    for i, sign in enumerate(profile.sign_signature):
        if runs and runs[-1][0] == sign:
            runs[-1] = (sign, runs[-1][1], i + 1)
        else:
            runs.append((sign, i, i + 1))
    knots = profile.knots.tolist()
    n = len(knots) - 1
    if circle:
        knots += [k + 1.0 for k in knots[1:]]
        if len(runs) > 1 and runs[0][0] == runs[-1][0]:
            sign, lo, _ = runs.pop()
            runs.append((sign, lo, runs.pop(0)[2] + n))
    isolated, segments = [], []
    for i, (sign, lo, hi) in enumerate(runs):
        left = runs[i - 1][0] if i or circle else None
        right = runs[(i + 1) % len(runs)][0] if i + 1 < len(runs) or circle else None
        if sign == 0:
            segments.append(SegmentMax(knots[lo], knots[hi], (left, right)))
        elif sign == 1 and right != 0 or sign == -1 and left in (None, -1):
            at = lo if sign == -1 else hi % n if circle else hi
            k, mk = _kstar_at(profile, at, circle)
            position = (INTERIOR if circle or 0 < at < n
                        else LEFT_BOUNDARY if at == 0 else RIGHT_BOUNDARY)
            isolated.append(IsolatedMax(knots[at], position, k, mk))
    isolated.sort(key=lambda p: p.x)
    return MaxSetDecomposition(tuple(isolated), tuple(segments), circle)


def decompose(profile: AdvectionProfile) -> MaxSetDecomposition:
    """Local-maximum set of a validated profile on [0, 1]."""
    return _read_runs(profile, circle=False)


def decompose_periodic(profile: AdvectionProfile) -> MaxSetDecomposition:
    """Local-maximum set of a validated profile on the circle 0 ~ 1; m,
    m' and m'' must wrap (NotPeriodic otherwise)."""
    PeriodicBC().validate(profile, None)
    return _read_runs(profile, circle=True)
