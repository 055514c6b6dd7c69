"""Piecewise-polynomial advection profiles m and potentials c on [0,1].

A profile is a C^2 piecewise polynomial with a verified per-segment sign
of m'.  Verification is exact: each segment's derivative polynomial is
classified over the open segment by Sturm-chain root counting of its
odd-multiplicity part (rational arithmetic), so the monotonicity
structure that the asymptotic theory consumes is machine-checked rather
than assumed.  Degree is capped at 8 and transcendental profiles are
out of scope by design.

Profiles and potentials share one structural check (_check_pieces) and
one evaluator, PiecewisePoly.__call__(x, order, side): side picks the
piece at an interior knot, so one-sided derivatives, the C^k glue check
and the periodic wrap check all evaluate through the same Horner steps.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _poly
from .errors import (BadParams, GloballyConstant, MalformedSpec, NotC2,
                     NotPeriodic, OutOfDomain, SignMismatch, UnknownTemplate,
                     ValidationError)

DEGREE_CAP = 8
GLUE_TOL = 1e-12       # knot-matching tolerance, scaled by coefficient size
_DOMAIN_SLACK = 1e-12

SIGN_TAGS = {"increasing": 1, "decreasing": -1, "constant": 0}


def _check_pieces(knots, segments, what):
    """Knots spanning [0, 1] in strictly ascending order and one
    non-empty, finite segment of degree <= DEGREE_CAP per interval."""
    if len(knots) < 2 or knots[0] != 0.0 or knots[-1] != 1.0:
        raise MalformedSpec(f"{what} knots must span [0, 1]")
    if any(b <= a for a, b in zip(knots, knots[1:])):
        raise MalformedSpec(f"{what} knots must be strictly ascending")
    if len(segments) != len(knots) - 1:
        raise MalformedSpec(f"{what} needs one segment per interval")
    for i, seg in enumerate(segments):
        if len(seg) == 0:
            raise MalformedSpec(f"{what} segment {i} has no coefficients")
        if len(seg) - 1 > DEGREE_CAP:
            raise MalformedSpec(f"{what} segment {i} exceeds degree cap {DEGREE_CAP}")
        if not all(math.isfinite(c) for c in seg):
            raise MalformedSpec(f"{what} segment {i} has non-finite coefficients")


@dataclass(frozen=True)
class ProfileSpec:
    """Raw, unvalidated description of m: knots, per-segment coefficient
    lists in the local variable (x - left knot), and declared signs."""
    knots: tuple
    segments: tuple          # tuple of ascending coefficient tuples
    declared_signs: tuple    # per segment: increasing | decreasing | constant

    def __post_init__(self):
        object.__setattr__(self, "knots", tuple(float(k) for k in self.knots))
        object.__setattr__(self, "segments",
                           tuple(tuple(float(c) for c in seg) for seg in self.segments))
        object.__setattr__(self, "declared_signs", tuple(self.declared_signs))

    def validate_structure(self):
        _check_pieces(self.knots, self.segments, "profile")
        if len(self.declared_signs) != len(self.segments):
            raise MalformedSpec("one declared sign per segment required")
        for i, tag in enumerate(self.declared_signs):
            if tag not in SIGN_TAGS:
                raise MalformedSpec(f"segment {i}: unknown sign tag {tag!r}")


class PiecewisePoly:
    """Evaluation engine shared by profiles and potentials."""

    def __init__(self, knots, segments):
        self.knots = np.asarray(knots, dtype=float)
        self.segments = [np.asarray(seg, dtype=float) for seg in segments]
        self.widths = np.diff(self.knots)
        width = max(len(s) for s in self.segments)
        base = np.zeros((width, len(self.segments)))
        for i, seg in enumerate(self.segments):
            base[:len(seg), i] = seg
        # every derivative order, filled once: the object is shared
        # read-only across threads; orders past the degree are zero.
        # Row k of a table holds every segment's t^k coefficient, so
        # each Horner step gathers from one contiguous row.
        cache = [base]
        for k in range(width - 1, 0, -1):
            cache.append(cache[-1][1:] * np.arange(1, k + 1)[:, None])
        cache.append(np.zeros((1, len(self.segments))))
        self._coef_cache = tuple(cache)

    def __call__(self, x, order=0, side="right"):
        """Evaluate the order-th derivative at x (scalar or array).

        At an interior knot side="right" uses the right-hand segment and
        side="left" the left-hand one; for a validated profile the two
        agree to GLUE_TOL for order <= 2.
        """
        x_arr = np.asarray(x, dtype=float)
        scalar = x_arr.ndim == 0
        x_arr = np.atleast_1d(x_arr)
        lo, hi = self.knots[0], self.knots[-1]
        x_min, x_max = x_arr.min(initial=lo), x_arr.max(initial=hi)
        if x_min < lo or x_max > hi:
            if x_min < lo - _DOMAIN_SLACK or x_max > hi + _DOMAIN_SLACK:
                raise OutOfDomain(f"evaluation outside [{lo}, {hi}]")
            x_arr = np.clip(x_arr, lo, hi)
        idx = np.searchsorted(self.knots[1:-1], x_arr, side=side)
        t = x_arr - self.knots[idx]
        coefs = self._coef_cache[min(order, len(self._coef_cache) - 1)]
        acc = coefs[-1][idx]
        for row in coefs[-2::-1]:
            acc *= t
            acc += row[idx]
        return float(acc[0]) if scalar else acc

    def check_continuity(self, up_to_order):
        """Raise NotC2 for the first interior knot, and there the lowest
        order, at which the two one-sided derivatives differ."""
        # tolerance scales with the local coefficient magnitude: double
        # rounding of O(scale) coefficients already produces O(scale*eps)
        # mismatches, so a bare 1e-12 would reject exact-arithmetic-C2
        # specs (e.g. steep quintic ramps)
        inner = self.knots[1:-1]
        if inner.size == 0:
            return
        size = np.array([np.abs(seg).max() for seg in self.segments])
        tol = GLUE_TOL * np.maximum(1.0, np.maximum(size[:-1], size[1:]))
        jumps = np.array([np.abs(self(inner, k, "left") - self(inner, k, "right"))
                          for k in range(up_to_order + 1)])
        bad = jumps > tol
        if bad.any():
            j = int(bad.any(axis=0).argmax())
            k = int(bad[:, j].argmax())
            raise NotC2(inner[j], k, jumps[k, j])

    def range_values(self):
        vals = []
        for i, seg in enumerate(self.segments):
            vals.extend(_poly.poly_extrema_values(seg, self.widths[i]))
        return min(vals), max(vals)

    def max_abs_deriv(self):
        return max(_poly.poly_max_abs(_poly.deriv(list(seg)), w)
                   if len(seg) > 1 else 0.0
                   for seg, w in zip(self.segments, self.widths))


@dataclass(frozen=True)
class AdvectionProfile:
    """Validated advection profile with exact sign signature of m'."""
    spec: ProfileSpec
    sign_signature: tuple        # per segment, in {+1, -1, 0}
    global_range: tuple          # (min m, max m) over [0,1]
    max_abs_deriv: float
    _poly: PiecewisePoly = field(repr=False, compare=False)

    @property
    def knots(self):
        return self._poly.knots

    def __call__(self, x, order=0, side="right"):
        return self._poly(x, order, side)

    def coefficient_scale(self):
        return max(max(abs(c) for c in seg) for seg in self.spec.segments)


@dataclass(frozen=True)
class Potential:
    """Piecewise-polynomial potential c, continuous on [0,1]."""
    knots: tuple
    segments: tuple
    _poly: PiecewisePoly = field(repr=False, compare=False)
    range: tuple = (0.0, 0.0)

    @staticmethod
    def from_segments(knots, segments):
        knots = tuple(float(k) for k in knots)
        segments = tuple(tuple(float(c) for c in s) for s in segments)
        _check_pieces(knots, segments, "potential")
        pp = PiecewisePoly(knots, segments)
        pp.check_continuity(0)
        return Potential(knots, segments, pp, pp.range_values())

    @staticmethod
    def constant(value):
        return Potential.from_segments((0.0, 1.0), ((float(value),),))

    @staticmethod
    def zero():
        return Potential.constant(0.0)

    @staticmethod
    def from_coeffs(coeffs):
        """Single global polynomial c(x) = c0 + c1 x + ..."""
        return Potential.from_segments((0.0, 1.0), (tuple(coeffs),))

    def __call__(self, x, order=0, side="right"):
        return self._poly(x, order, side)


# -- boundary conditions -------------------------------------------------

@dataclass(frozen=True)
class RobinBC:
    """-hbar1 phi'(0) + ell1 phi(0) = 0 and hbar2 phi'(1) + ell2 phi(1) = 0,
    nonnegative coefficients with hbar+ell > 0 at each end.  ell=0 is
    Neumann, hbar=0 is Dirichlet; both conditions are dissipative for
    ell >= 0."""
    hbar1: float
    ell1: float
    hbar2: float
    ell2: float

    def __post_init__(self):
        for name in ("hbar1", "ell1", "hbar2", "ell2"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0:
                raise ValidationError(f"{name} must be finite and >= 0")
            object.__setattr__(self, name, v)
        if self.hbar1 + self.ell1 <= 0 or self.hbar2 + self.ell2 <= 0:
            raise ValidationError("need hbar + ell > 0 at each endpoint")

    @staticmethod
    def neumann():
        return RobinBC(1.0, 0.0, 1.0, 0.0)

    @staticmethod
    def dirichlet():
        return RobinBC(0.0, 1.0, 0.0, 1.0)


@dataclass(frozen=True)
class PeriodicBC:
    def validate(self, profile, potential):
        # 0 and 1 are no interior knots: one call per order serves both ends
        ends = np.array([0.0, 1.0])
        tol = GLUE_TOL * max(1.0, profile.coefficient_scale())
        for order in range(3):
            a, b = profile(ends, order)
            if abs(a - b) > tol:
                raise NotPeriodic(
                    f"m^({order}) wrap mismatch {abs(a - b):.3e} at 0/1")
        if potential is not None:
            a, b = potential(ends)
            if abs(a - b) > GLUE_TOL:
                raise NotPeriodic("c(0) != c(1)")


# -- construction ---------------------------------------------------------

def build_profile(spec: ProfileSpec) -> AdvectionProfile:
    """Validate a spec and return the profile.

    Checks, in order: structural well-formedness, C^2 gluing at every
    interior knot (absolute tolerance 1e-12 on m, m', m''), exact
    per-segment sign verification against the declared tags, and
    non-constancy.  Raises MalformedSpec / NotC2 / SignMismatch /
    GloballyConstant accordingly.
    """
    spec.validate_structure()
    pp = PiecewisePoly(spec.knots, spec.segments)
    pp.check_continuity(2)

    signature = []
    for i, seg in enumerate(spec.segments):
        dp = _poly.deriv([float(c) for c in seg])
        width = spec.knots[i + 1] - spec.knots[i]
        verified = _poly.sign_on_open_interval(dp, width)
        if verified == "mixed":
            # Coefficient rounding splits exact even-order roots of the
            # derivative into sign dips of O(eps) relative size (the
            # quintic ramps hit this).  A dip is only a genuine sign
            # change when it is non-negligible against the segment scale.
            vals = _poly.poly_extrema_values(dp, width)
            lo, hi = min(vals), max(vals)
            if abs(lo) <= 1e-9 * hi:
                verified = "+"
            elif hi <= 1e-9 * abs(lo):
                verified = "-"
        declared = spec.declared_signs[i]
        expected = {"+": "increasing", "-": "decreasing", "0": "constant"}.get(verified, "mixed")
        if expected != declared:
            raise SignMismatch(i, declared, expected)
        signature.append(SIGN_TAGS[declared])

    if all(s == 0 for s in signature):
        raise GloballyConstant("m is constant on [0,1]")

    return AdvectionProfile(
        spec=spec,
        sign_signature=tuple(signature),
        global_range=pp.range_values(),
        max_abs_deriv=pp.max_abs_deriv(),
        _poly=pp,
    )


# -- templates ------------------------------------------------------------

def _ramp_coeffs(level, delta, width):
    """level + delta * r(t/width) with r = 6u^5 - 15u^4 + 10u^3, so the
    piece is strictly monotone inside and has m' = m'' = 0 at both ends."""
    w = float(width)
    return (float(level), 0.0, 0.0,
            10.0 * delta / w ** 3, -15.0 * delta / w ** 4, 6.0 * delta / w ** 5)


def _ramp_chain(knots, levels):
    """Spec gluing consecutive levels with quintic ramps (constant where
    consecutive levels are equal)."""
    segs, signs = [], []
    for i in range(len(knots) - 1):
        dl = levels[i + 1] - levels[i]
        if dl == 0:
            segs.append((float(levels[i]),))
            signs.append("constant")
        else:
            segs.append(_ramp_coeffs(levels[i], dl, knots[i + 1] - knots[i]))
            signs.append("increasing" if dl > 0 else "decreasing")
    return ProfileSpec(tuple(knots), tuple(segs), tuple(signs))


def _shift_poly(coeffs, s):
    """q(t) = p(t + s) as ascending coefficients."""
    n = len(coeffs)
    out = [0.0] * n
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += c * math.comb(i, j) * s ** (i - j)
    return tuple(out)


def _check_interior(*points):
    pts = list(points)
    if any(not (0.0 < p < 1.0) for p in pts):
        raise BadParams("breakpoints must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise BadParams("breakpoints must be strictly ascending")


def _t_example1(x1, x2, x3, x4):
    _check_interior(x1, x2, x3, x4)
    return _ramp_chain((0.0, x1, x2, x3, x4, 1.0),
                       (0.5, 0.0, 0.45, 0.45, 0.05, 0.4))


def _t_example2(x1, x2):
    _check_interior(x1, x2)
    return _ramp_chain((0.0, x1, x2, 1.0), (0.5, 0.0, 0.0, 0.5))


def _t_example3(x1, x2):
    _check_interior(x1, x2)
    return _ramp_chain((0.0, x1, x2, 1.0), (0.0, 0.3, 0.3, 0.6))


def _t_t1(a1, a2, a3, a4, a5):
    _check_interior(a1, a2, a3, a4, a5)
    return _ramp_chain((0.0, a1, a2, a3, a4, a5, 1.0),
                       (0.0, 0.5, 0.1, 0.4, 0.4, 0.0, 0.45))


def _t_t2(a1, a2, a3, a4, a5, a6):
    _check_interior(a1, a2, a3, a4, a5, a6)
    return _ramp_chain((0.0, a1, a2, a3, a4, a5, a6, 1.0),
                       (0.0, 0.5, 0.1, 0.1, 0.35, 0.35, 0.6, 0.6))


def _t_monotone_increasing():
    return ProfileSpec((0.0, 1.0), ((0.0, 1.0),), ("increasing",))


def _t_vee(x0, amp=0.2):
    # m = amp (x - x0)^2: decreasing on [0,x0], increasing on [x0,1].
    # The default amplitude 0.2 keeps the Neumann boundary layers thin
    # enough for the concentration checks while the Robin eigenvalue is
    # still in its fast pre-linear growth regime at moderate s.
    _check_interior(x0)
    if amp <= 0:
        raise BadParams("vee amplitude must be positive")
    left = (amp * x0 ** 2, -2.0 * amp * x0, amp)
    right = (0.0, 0.0, amp)
    return ProfileSpec((0.0, x0, 1.0), (left, right), ("decreasing", "increasing"))


def _t_power_max(x0, kstar, amp=1.0):
    # m = -amp (x - x0)^kstar, split at x0 so each half is monotone; the
    # two halves are the same polynomial, which keeps every one-sided
    # derivative at x0 exactly matched (k* is well defined there).
    _check_interior(x0)
    k = int(kstar)
    if k != kstar or k < 2 or k % 2 != 0 or k > DEGREE_CAP:
        raise BadParams("power_max needs an even integer k* in [2, 8]")
    if amp <= 0:
        raise BadParams("power_max amplitude must be positive")
    mono = [0.0] * (k + 1)
    mono[k] = -float(amp)
    left = _shift_poly(mono, -x0)
    right = tuple(mono)
    return ProfileSpec((0.0, x0, 1.0), (left, right), ("increasing", "decreasing"))


def _t_power_well(x0, nu, amp=1.0):
    # m = amp |x - x0|^(nu+1) / (nu+1), i.e. m' = amp sign(x-x0)|x-x0|^nu:
    # the derivative vanishes to order nu at the well bottom, the shape of
    # the degenerate-advection growth-rate examples.
    _check_interior(x0)
    n = int(nu)
    if n != nu or n < 1 or n + 1 > DEGREE_CAP:
        raise BadParams("power_well needs an integer nu in [1, 7]")
    if amp <= 0:
        raise BadParams("power_well amplitude must be positive")
    p = n + 1
    c = float(amp) / p
    mono = [0.0] * (p + 1)
    mono[p] = c
    right = tuple(mono)
    # left piece: c (x0 - x)^p = c (-(t - x0))^p in local t
    mono_left = [0.0] * (p + 1)
    mono_left[p] = c * (-1.0) ** p
    left = _shift_poly(mono_left, -x0)
    return ProfileSpec((0.0, x0, 1.0), (left, right), ("decreasing", "increasing"))


_BUMP = (0.0, 0.0, 1.0, -2.0, 1.0)  # u^2 (1-u)^2


def _t_periodic_bump(x0, amp=1.0):
    # 1-periodic C^2 profile m(x) = amp * p((x + 1/2 - x0) mod 1) with
    # p = u^2(1-u)^2: single interior isolated max at x0, m'(0) > 0.
    if not (0.0 < x0 < 0.5):
        raise BadParams("periodic_bump needs 0 < x0 < 1/2")
    if amp <= 0:
        raise BadParams("periodic_bump amplitude must be positive")
    delta = 0.5 - x0
    p = tuple(amp * c for c in _BUMP)
    seg1 = _shift_poly(p, delta)          # x in [0, x0], u = x + delta
    seg2 = _shift_poly(p, 0.5)            # x in [x0, x0 + 1/2], u = t + 1/2
    seg3 = p                              # x in [x0 + 1/2, 1], u = t
    return ProfileSpec((0.0, x0, x0 + 0.5, 1.0), (seg1, seg2, seg3),
                       ("increasing", "decreasing", "increasing"))


TEMPLATES = {
    "example1": (_t_example1, "x1,x2,x3,x4: down, up, flat max plateau, down, up"),
    "example2": (_t_example2, "x1,x2: down, flat valley-to-valley plateau, up"),
    "example3": (_t_example3, "x1,x2: up, flat step plateau, up"),
    "t1": (_t_t1, "a1..a5: up,down,up,flat,down,up (isolated max + NN plateau)"),
    "t2": (_t_t2, "a1..a6: up,down,flat,up,flat,up,flat (DD/ND/NN plateaus)"),
    "monotone_increasing": (_t_monotone_increasing, "(no params): m(x) = x"),
    "vee": (_t_vee, "x0[,amp]: amp*(x-x0)^2, decreasing then increasing"),
    "power_max": (_t_power_max, "x0,kstar[,amp]: m = -amp*(x-x0)^kstar, even k*"),
    "power_well": (_t_power_well, "x0,nu[,amp]: m' = amp*sign(x-x0)*|x-x0|^nu"),
    "periodic_bump": (_t_periodic_bump, "x0[,amp]: 1-periodic bump, max at x0, m'(0)>0"),
}


def builtin(template: str, *params) -> ProfileSpec:
    """Instantiate a named template spec (still needs build_profile)."""
    try:
        builder, _ = TEMPLATES[template]
    except KeyError:
        raise UnknownTemplate(f"unknown template {template!r}; "
                              f"known: {', '.join(sorted(TEMPLATES))}") from None
    try:
        return builder(*[float(p) for p in params])
    except TypeError as exc:
        raise BadParams(f"{template}: {exc}") from None


# -- JSON schema ----------------------------------------------------------

def spec_to_dict(spec: ProfileSpec) -> dict:
    return {
        "knots": list(spec.knots),
        "segments": [{"coeffs": list(seg), "sign": tag}
                     for seg, tag in zip(spec.segments, spec.declared_signs)],
    }


def profile_from_dict(data: dict):
    """Parse the profile JSON schema; returns (ProfileSpec, Potential | None).

    Accepts either explicit knots/segments or {"template": {"name", "params"}},
    with an optional "potential" block in both forms.
    """
    if not isinstance(data, dict):
        raise MalformedSpec("profile document must be a JSON object")
    if "template" in data:
        tmpl = data["template"]
        try:
            spec = builtin(tmpl["name"], *tmpl.get("params", []))
        except (KeyError, TypeError, ValueError):
            raise MalformedSpec("template block needs 'name' and 'params'") from None
    else:
        try:
            segments = tuple(tuple(seg["coeffs"]) for seg in data["segments"])
            signs = tuple(seg["sign"] for seg in data["segments"])
            spec = ProfileSpec(tuple(data["knots"]), segments, signs)
        except (KeyError, TypeError, ValueError):
            raise MalformedSpec("profile document needs 'knots' and 'segments' "
                                "with 'coeffs' and 'sign'") from None
    potential = None
    if data.get("potential") is not None:
        potential = potential_from_dict(data["potential"])
    return spec, potential


def potential_from_dict(block):
    """Parse a potential block {"knots": [...], "segments": [[c0, ...], ...]}."""
    try:
        return Potential.from_segments(tuple(block["knots"]),
                                       tuple(tuple(s) for s in block["segments"]))
    except (KeyError, TypeError, ValueError):
        raise MalformedSpec("potential block needs 'knots' and 'segments' "
                            "of numbers") from None


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedSpec(f"cannot read JSON: {exc}") from None


def load_profile_json(path):
    return profile_from_dict(read_json(path))
