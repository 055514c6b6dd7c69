"""Asymptotics laboratory: s-ladders, limit estimation, concentration
diagnostics and rescaled local profiles.

The concentration measure is never built as a measure object; only
interval masses of w^2 (trapezoid rule) are reported, which is exactly
what is observable at finite s.  Rescaled profiles follow the
semiclassical normalization W(y) = s^{-1/(2k*)} w(s, x0 + s^{-1/k*} y)
divided by the square root of the local mass, and are compared against
ground states of the limiting model operator

    -W'' + [ (A/(k*-1)!)^2 y^(2k*-2) + (A/(k*-2)!) y^(k*-2) ] W = E W,

whose ground energy is exactly zero (the potential factorizes with
superpotential -A y^(k*-1)/(k*-1)!, ground state exp(A y^k*/k*!)).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import (MAX_NODES, DiscreteOperator, _build, assemble_transformed,
                       below_cap, eigenfunction_on_grid, principal_eigen,
                       transformed_size)   # transformed_size checks the CLI's --n
from .errors import (AdveigError, InsufficientData, IntervalOutOfDomain,
                     KStarUndefined, MassTooSmall, NoDecay, NonPositiveLambda,
                     NoOverlap, NumericalError, ValidationError)
from .maxset import LEFT_BOUNDARY, RIGHT_BOUNDARY, _sloped, _zero_tol


@dataclass(frozen=True)
class GridPolicy:
    """Default grid size n(s), at least floor, sized by the narrowest
    layer the eigenfunction can have.

    A 1/s boundary layer forms only at an end where m' != 0.  Then n =
    multiplier * s * max|m'|, and every cell drift s |dm| is at most
    1/multiplier.  Where m' = 0 at both ends (zero to maxset's
    tolerance), every layer is at least s^(-1/2) wide: an interior
    maximum has m' = 0 and a plateau end m' = m'' = 0.  Then n =
    8 * multiplier * sqrt(s * max|m'|), so h sqrt(s max|m'|) is about
    1/(8 multiplier).  Away from the maxima, where the drift is large,
    w is exponentially small and each fitted cell is exact for the
    exponential.  Both grids sit well inside the assembly guard."""
    multiplier: float = 16.0
    floor: int = 2000

    def n_for(self, profile, s):
        tol = _zero_tol(profile)
        if not (_sloped(profile, 0, LEFT_BOUNDARY, tol)
                or _sloped(profile, len(profile.knots) - 1, RIGHT_BOUNDARY, tol)):
            size = 8.0 * self.multiplier * math.sqrt(
                max(s, 1.0) * profile.max_abs_deriv)
        else:
            size = self.multiplier * max(s, 1.0) * profile.max_abs_deriv
        if not size <= MAX_NODES:        # an overflowed size is inf
            raise ValidationError(f"s = {s:g} needs a grid over {MAX_NODES} nodes")
        return below_cap(int(max(self.floor, math.ceil(size))))


DEFAULT_POLICY = GridPolicy()
CONVERGE_TOL = 1e-2        # tail spread below which a ladder counts as converged
MIN_RECORDS = 3            # successful records the tail estimators need
RESCALED_Y_MAX = 4.0       # rescaled profiles are sampled on |y| <= RESCALED_Y_MAX
RESCALED_POINTS = 161


@dataclass(frozen=True)
class SweepRecord:
    s: float
    n: int
    lam: float | None
    mass: tuple = ()            # ((lo, hi), mass) pairs
    wall_time: float = 0.0
    error: str | None = None
    grid: tuple | None = field(default=None, repr=False)   # (x, w) arrays


@dataclass(frozen=True)
class RescaledProfile:
    x0: float
    k_star: int
    s: float
    y: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class LimitProfile:
    k_star: int
    m_kstar: float
    half_line: str              # none | left | right
    E0: float
    y: np.ndarray
    values: np.ndarray


def _solve_one(profile, c, bc, s, n, mass_intervals=()):
    t0 = time.perf_counter()
    op = assemble_transformed(profile, c, bc, s, n)
    pair = principal_eigen(op)
    x, w = eigenfunction_on_grid(op, pair)
    masses = tuple(((lo, hi), m) for (lo, hi), m in
                   zip(mass_intervals, mass_distribution(x, w, mass_intervals)))
    if mass_intervals:
        total = mass_distribution(x, w, [(x[0], x[-1])])[0]
        if not abs(total - 1.0) <= 1e-6:
            raise NumericalError(f"total mass {total} drifted from 1")
    return SweepRecord(s=float(s), n=n, lam=pair.lam, mass=masses,
                       wall_time=time.perf_counter() - t0, grid=(x, w))


def _check_intervals(intervals):
    """The mass intervals as float pairs, each with 0 <= lo <= hi <= 1."""
    pairs = tuple((float(lo), float(hi)) for lo, hi in intervals)
    for lo, hi in pairs:
        if not 0.0 <= lo <= hi <= 1.0:
            raise IntervalOutOfDomain(f"mass interval [{lo}, {hi}] needs "
                                      "0 <= lo <= hi <= 1")
    return pairs


def sweep(profile, c, bc, s_ladder, grid_policy: GridPolicy | None = None,
          mass_intervals=(), map_fn=map):
    """One SweepRecord per ladder entry, in ladder order.

    A mass interval outside [0, 1] raises IntervalOutOfDomain before any
    solve.  Library failures (AdveigError) are recorded per entry (error
    marker) instead of aborting the whole ladder; programming errors
    propagate.
    map_fn exists only for the benchmark's two-thread diagnostic
    (perfbench/run.py), which checks whether concurrent entries pay;
    results are merged in ladder order regardless.
    """
    if len(s_ladder) == 0:
        raise InsufficientData("empty s ladder")
    s_ladder = sorted(float(s) for s in s_ladder)
    policy = grid_policy or DEFAULT_POLICY
    mass_intervals = _check_intervals(mass_intervals)

    def run(s):
        n = 0                           # no grid: the policy refused s
        try:
            n = policy.n_for(profile, s)
            return _solve_one(profile, c, bc, s, n, mass_intervals)
        except AdveigError as exc:   # keep partial ladder progress
            return SweepRecord(s=float(s), n=n, lam=None,
                               error=f"{type(exc).__name__}: {exc}")

    return list(map_fn(run, s_ladder))


def _tail(records):
    ok = [r for r in records if r.error is None]
    if len(ok) < MIN_RECORDS:
        raise InsufficientData(f"need at least {MIN_RECORDS} successful records")
    return ok, ok[len(ok) // 2:]


def estimate_limit(records):
    """Tail statistics plus a 1/s^p extrapolation from the last three
    points (p fit in [0.5, 3]; diagnostic, not authoritative: the
    converged flag is what gates acceptance)."""
    ok, tail = _tail(records)
    lams = [r.lam for r in tail]
    lam_inf, lam_sup = min(lams), max(lams)
    s1, s2, s3 = (r.s for r in ok[-3:])
    l1, l2, l3 = (r.lam for r in ok[-3:])
    d12, d23 = l2 - l1, l3 - l2
    reliable = True
    p = None
    if d12 == 0.0 and d23 == 0.0:
        extrapolated = l3
    elif d23 == 0.0 or d12 * d23 <= 0.0 or abs(d23) >= abs(d12):
        extrapolated = l3          # not a decaying-power pattern
        reliable = False
    else:
        ratio = d12 / d23

        def mismatch(p):
            return (s1 ** -p - s2 ** -p) / (s2 ** -p - s3 ** -p) - ratio

        lo, hi = 0.5, 3.0
        if mismatch(lo) * mismatch(hi) > 0:
            p = lo if abs(mismatch(lo)) < abs(mismatch(hi)) else hi
            reliable = False
        else:
            from scipy.optimize import brentq
            p = float(brentq(mismatch, lo, hi, xtol=1e-12))
        amp = d23 / (s3 ** -p - s2 ** -p)
        extrapolated = l3 - amp * s3 ** -p
    return {"lambda_inf": lam_inf, "lambda_sup": lam_sup,
            "extrapolated": float(extrapolated),
            "converged": bool(lam_sup - lam_inf <= CONVERGE_TOL),
            "reliable": reliable, "p": p}


def growth_exponent(records) -> float:
    """Least-squares slope of log lambda vs log s over the tail half."""
    ok, tail = _tail(records)
    if any(r.lam <= 0 for r in ok):
        raise NonPositiveLambda("growth exponent needs all lambda > 0")
    xs = np.log([r.s for r in tail])
    ys = np.log([r.lam for r in tail])
    return float(np.polyfit(xs, ys, 1)[0])


def mass_distribution(x, w, intervals):
    """Trapezoid-rule mass of w^2 on each interval (w on the non-decreasing
    grid x): the nodes strictly inside, and w interpolated at the ends."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    out = []
    tol = 1e-12
    for lo, hi in intervals:
        if lo > hi or lo < x[0] - tol or hi > x[-1] + tol:
            raise IntervalOutOfDomain(f"[{lo}, {hi}] outside [{x[0]}, {x[-1]}]")
        lo, hi = max(lo, x[0]), min(hi, x[-1])
        i, j = np.searchsorted(x, lo, side="right"), np.searchsorted(x, hi, side="left")
        w_lo, w_hi = np.interp((lo, hi), x, w)
        xs = np.concatenate(([lo], x[i:j], [hi]))
        ws = np.concatenate(([w_lo], w[i:j], [w_hi]))
        out.append(float(np.trapezoid(ws ** 2, xs)))
    return out


def component_mass_radius(decomp, x0):
    """Half the distance from x0 to the nearest other max-set component,
    falling back to the nearest end of [0, 1] for a single component;
    keeps the local mass window from swallowing neighbouring support."""
    gaps = []
    for lo, hi in decomp.components():
        if lo <= x0 <= hi:
            continue
        gaps.append(lo - x0 if lo > x0 else x0 - hi)
    if not gaps:
        edge = [d for d in (x0, 1.0 - x0) if d > 0]
        return 0.5 * min(edge, default=1.0)
    return 0.5 * min(gaps)


def rescaled_profile(x, w, x0, k_star, s, mass_radius):
    """Local profile W(y) = s^{-1/(2k*)} w(x0 + s^{-1/k*} y) / sqrt(local
    mass), sampled by linear interpolation at RESCALED_POINTS points on
    |y| <= RESCALED_Y_MAX intersected with the grid's image."""
    if k_star is None:
        raise KStarUndefined("x0 has no defined degeneracy order")
    if not (math.isfinite(s) and s > 0):
        raise ValidationError("s must be finite and > 0")
    if not (math.isfinite(mass_radius) and mass_radius > 0):
        raise ValidationError("mass_radius must be finite and > 0")
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    local = mass_distribution(x, w, [(max(x[0], x0 - mass_radius),
                                      min(x[-1], x0 + mass_radius))])[0]
    if local <= 1e-6:
        raise MassTooSmall(f"local mass {local:.2e} around {x0}")
    eps = s ** (-1.0 / k_star)
    ylo = max(-RESCALED_Y_MAX, (x[0] - x0) / eps)
    yhi = min(RESCALED_Y_MAX, (x[-1] - x0) / eps)
    y = np.linspace(ylo, yhi, RESCALED_POINTS)
    vals = s ** (-1.0 / (2.0 * k_star)) * np.interp(x0 + eps * y, x, w)
    return RescaledProfile(x0=float(x0), k_star=int(k_star), s=float(s),
                           y=y, values=vals / math.sqrt(local))


def _default_truncation(m_kstar, k_star):
    # W ~ exp(m_k y^k / k!): truncate where the exponent reaches ~ -40
    return (40.0 * math.factorial(k_star) / abs(m_kstar)) ** (1.0 / k_star)


def limit_ode_ground_state(m_kstar: float, k_star: int, half_line: str = "none",
                           y_max: float | None = None, n: int = 20001) -> LimitProfile:
    """Ground state of the limiting model operator.

    Full line: Dirichlet truncation at +-y_max.  Half line (left =
    domain (-inf, 0], right = [0, inf)): Dirichlet at the far truncation
    and a Neumann closure at 0, inherited from the transformed boundary
    condition w' - s m' w = 0 with m'(x0) = 0.  E0 is expected ~ 0.
    """
    k = int(k_star)
    if k != k_star or k < 2:
        raise ValidationError("k_star must be an integer >= 2")
    infinite_ends = {"none": (-1, 1), "left": (-1,), "right": (1,)}.get(half_line)
    if infinite_ends is None:
        raise ValidationError("half_line must be none, left or right")
    # exp(m y^k*/k*!) decays toward +-inf exactly when m (+-1)^k* < 0
    if any(m_kstar * sign ** k >= 0 for sign in infinite_ends):
        raise ValidationError(f"exp(m_kstar y^k*/k*!) must decay toward every "
                              f"infinite end of the {half_line!r} domain")

    c1 = m_kstar / math.factorial(k - 1)
    c2 = m_kstar / math.factorial(k - 2)

    def V(y):
        return c1 * c1 * y ** (2 * (k - 1)) + c2 * y ** (k - 2)

    Y = float(y_max) if y_max is not None else _default_truncation(m_kstar, k)
    if not (math.isfinite(Y) and Y > 0):
        raise ValidationError("y_max must be finite and > 0")
    # an infinite side is truncated at +-Y under Dirichlet data (None),
    # the other is closed at 0 by Neumann data (beta = 0)
    a, b = (sign * Y if sign in infinite_ends else 0.0 for sign in (-1, 1))
    closures = tuple(None if sign in infinite_ends else 0.0 for sign in (-1, 1))
    op = _build(a, b, n, V, closures)
    pair = principal_eigen(op)
    x, vals = eigenfunction_on_grid(op, pair)

    # localization check at Dirichlet truncation ends
    peak = float(np.max(np.abs(vals)))
    edge = 0.05 * (b - a)
    for sign in infinite_ends:
        sel = x <= a + edge if sign < 0 else x >= b - edge
        if float(np.max(np.abs(vals[sel]))) > 1e-4 * peak:
            raise NoDecay(f"ground state not localized within [{a}, {b}]; "
                          "increase y_max")
    return LimitProfile(k_star=k, m_kstar=float(m_kstar), half_line=half_line,
                        E0=pair.lam, y=x, values=vals)


def profile_distance(a: RescaledProfile, b: LimitProfile) -> float:
    """Sup-norm distance on the overlap, interpolating b at a's samples."""
    lo = max(a.y[0], b.y[0])
    hi = min(a.y[-1], b.y[-1])
    if lo >= hi:
        raise NoOverlap(f"ranges [{a.y[0]}, {a.y[-1]}] and [{b.y[0]}, {b.y[-1]}]")
    sel = (a.y >= lo) & (a.y <= hi)
    return float(np.max(np.abs(a.values[sel] - np.interp(a.y[sel], b.y, b.values))))


def segment_restriction_distance(x, w, op_sub: DiscreteOperator, pair_sub):
    """Sup distance between the ladder eigenfunction restricted to the
    sub-interval (renormalized to unit L^2 there) and the sub-interval
    eigenfunction itself; the grid-level surrogate for C^1 convergence
    of the plateau limits."""
    a, b = op_sub.grid["a"], op_sub.grid["b"]
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    sel = (x >= a - 1e-12) & (x <= b + 1e-12)
    xs, ws = x[sel], w[sel]
    norm = math.sqrt(float(np.trapezoid(ws ** 2, xs)))
    if norm <= 0:
        raise MassTooSmall(f"no mass on [{a}, {b}]")
    ws = ws / norm
    xsub, wsub = eigenfunction_on_grid(op_sub, pair_sub)
    return float(np.max(np.abs(ws - np.interp(xs, xsub, wsub))))
