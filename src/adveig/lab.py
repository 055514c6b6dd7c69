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

from .assembly import (DiscreteOperator, _build, assemble_transformed,
                       eigenfunction_on_grid, principal_eigen)
from .errors import (AdveigError, InsufficientData, IntervalOutOfDomain,
                     KStarUndefined, MassTooSmall, NoDecay, NonPositiveLambda,
                     NoOverlap, NumericalError, ValidationError)


@dataclass(frozen=True)
class GridPolicy:
    """n(s) = max(floor, ceil(multiplier * s * max|m'|)): resolves
    the exp(-s dist)-scale boundary layers; every cell drift s |dm| is
    then at most 1/multiplier, well inside the assembly guard 0.5."""
    multiplier: float = 16.0
    floor: int = 2000

    def n_for(self, profile, s):
        return int(max(self.floor,
                       math.ceil(self.multiplier * max(s, 1.0)
                                 * profile.max_abs_deriv)))


DEFAULT_POLICY = GridPolicy()
CONVERGE_TOL = 1e-2        # tail spread below which a ladder counts as converged
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


def _solve_one(profile, c, bc, s, n, mass_intervals):
    t0 = time.perf_counter()
    op = assemble_transformed(profile, c, bc, s, n)
    pair = principal_eigen(op)
    x, w = eigenfunction_on_grid(op, pair)
    if op.matrix.corner is not None:
        # close the circle for interpolation and quadrature
        x = np.append(x, 1.0)
        w = np.append(w, w[0])
    masses = tuple(((lo, hi), m) for (lo, hi), m in
                   zip(mass_intervals, mass_distribution(x, w, mass_intervals)))
    if mass_intervals:
        total = mass_distribution(x, w, [(x[0], x[-1])])[0]
        if not abs(total - 1.0) <= 1e-6:
            raise NumericalError(f"total mass {total} drifted from 1")
    return SweepRecord(s=float(s), n=n, lam=pair.lam, mass=masses,
                       wall_time=time.perf_counter() - t0, grid=(x, w))


def sweep(profile, c, bc, s_ladder, grid_policy: GridPolicy | None = None,
          mass_intervals=(), map_fn=map):
    """One SweepRecord per ladder entry, in ladder order.

    Library failures (AdveigError) are recorded per entry (error marker)
    instead of aborting the whole ladder; programming errors propagate.
    map_fn exists only for the benchmark's two-thread diagnostic
    (perfbench/run.py), which checks whether concurrent entries pay;
    results are merged in ladder order regardless.
    """
    if len(s_ladder) == 0:
        raise InsufficientData("empty s ladder")
    s_ladder = sorted(float(s) for s in s_ladder)
    policy = grid_policy or DEFAULT_POLICY
    mass_intervals = tuple((float(lo), float(hi)) for lo, hi in mass_intervals)

    def run(s):
        n = policy.n_for(profile, s)
        try:
            return _solve_one(profile, c, bc, s, n, mass_intervals)
        except AdveigError as exc:   # keep partial ladder progress
            return SweepRecord(s=float(s), n=n, lam=None,
                               error=f"{type(exc).__name__}: {exc}")

    return list(map_fn(run, s_ladder))


def _tail(records):
    ok = [r for r in records if r.error is None]
    if len(ok) < 3:
        raise InsufficientData("need at least 3 successful records")
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
    """Trapezoid-rule mass of w^2 on each interval (w on grid x)."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    out = []
    tol = 1e-12
    for lo, hi in intervals:
        if lo > hi or lo < x[0] - tol or hi > x[-1] + tol:
            raise IntervalOutOfDomain(f"[{lo}, {hi}] outside [{x[0]}, {x[-1]}]")
        lo, hi = max(lo, x[0]), min(hi, x[-1])
        inside = x[(x > lo) & (x < hi)]
        xs = np.concatenate(([lo], inside, [hi]))
        ws = np.interp(xs, x, w)
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
    if m_kstar == 0.0:
        raise ValidationError("m_kstar must be nonzero")
    if half_line not in ("none", "left", "right"):
        raise ValidationError("half_line must be none, left or right")
    if half_line == "none" and (k % 2 != 0 or m_kstar >= 0):
        raise ValidationError("full-line profile needs even k* and m_kstar < 0")
    if half_line == "right" and m_kstar >= 0:
        raise ValidationError("right half-line needs m_kstar < 0")
    if half_line == "left" and m_kstar * (-1.0) ** k >= 0:
        raise ValidationError("left half-line needs m_kstar * (-1)^k* < 0")

    c1 = m_kstar / math.factorial(k - 1)
    c2 = m_kstar / math.factorial(k - 2)

    def V(y):
        return c1 * c1 * y ** (2 * (k - 1)) + c2 * y ** (k - 2)

    Y = float(y_max) if y_max is not None else _default_truncation(m_kstar, k)
    if half_line == "none":
        a, b, g_left, g_right = -Y, Y, None, None
    elif half_line == "left":
        a, b, g_left, g_right = -Y, 0.0, None, 0.0
    else:
        a, b, g_left, g_right = 0.0, Y, 0.0, None

    op = _build(a, b, n, V, (g_left, g_right))
    pair = principal_eigen(op)
    x, vals = eigenfunction_on_grid(op, pair)

    # localization check at Dirichlet truncation ends
    peak = float(np.max(np.abs(vals)))
    edge = 0.05 * (b - a)
    for side, is_trunc in (("left", g_left is None), ("right", g_right is None)):
        if not is_trunc:
            continue
        sel = x <= a + edge if side == "left" else x >= b - edge
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
