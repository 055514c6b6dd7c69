"""Piecewise-polynomial advection profiles m and potentials c on [0,1].

A profile is a C^2 piecewise polynomial with a verified per-segment sign
of m', read off the range of m' on the segment: its minimum and maximum
over the two ends and the real roots of m'' inside.  A dip below
1e-9 max|m'| there counts as zero, so the monotonicity that the
asymptotic theory consumes is machine-checked and rounding at a double
root of m' is no sign change.  Degree is capped at 8 and transcendental
profiles are out of scope by design.

AdvectionProfile and Potential are PiecewisePoly subclasses, so each
profile or potential is one object.  They share one structural check
(_check_pieces) and one evaluator, __call__(x, order, side): side picks
the piece at an interior knot.  At construction PiecewisePoly also fills
the knot tables, every derivative order at both ends of every segment
(the constant rows at the left ends, one Horner pass at the right ends),
so one-sided derivatives at knots, the C^k glue check and the periodic
wrap check are lookups, and the bounds, sum |coefficient| per derivative
order and segment.  All widths are <= 1, so a finite bound means no
value of that derivative overflows: build_profile requires it at every
order, a potential at order 0.  The range of m' takes the end values and
the interior critical points, the roots of m'' from np.roots' companion
matrices, one eigvals call per degree (_slope_range).  The per-segment
work runs on Python floats, with the IEEE operations np.roots and
polyval would do, so the range is bit for bit theirs.  That suits few
segments, where numpy's fixed cost per call, not the arithmetic, sets
the build time (a builtin template has at most 7).  The segment count
is not capped, and the Python work grows by a few microseconds a
segment: past about 50 segments it costs more than whole-array numpy
calls would, about 1.6 times as much at 512.

Nothing rebinds the attributes of a profile, potential or boundary
condition once it is built, and no method writes into their arrays, so
they are safe to share across threads.  The arrays are not made
read-only: a caller must not write through, say, profile.knots.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (BadParams, GloballyConstant, MalformedSpec, NotC2,
                     NotPeriodic, OutOfDomain, SignMismatch, UnknownTemplate,
                     ValidationError)

DEGREE_CAP = 8
GLUE_TOL = 1e-12       # knot-matching tolerance, scaled by coefficient size
_DOMAIN_SLACK = 1e-12
_SIGN_TOL = 1e-9       # m' dips below _SIGN_TOL * max|m'| on a segment count as zero

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
        if not all(map(math.isfinite, seg)):
            raise MalformedSpec(f"{what} segment {i} has non-finite coefficients")


def _slope_range(pp):
    """Per-segment (min, max) of m' over the segment's two ends and its
    interior critical points; MalformedSpec names the first segment whose
    companion matrix overflows.

    The ends come from the knot tables.  The critical points are the real
    roots in (0, width) of m'', from the companion matrices np.roots would
    build (zero coefficients stripped at both ends), one eigvals call per
    degree.  The small per-segment work runs on Python floats with the
    IEEE operations numpy would do, in the same order: the first rows of
    the companion matrices, and polyval's Horner scheme for m' at each
    root.
    """
    lo = np.minimum(pp.left_ends[1], pp.right_ends[1]).tolist()
    hi = np.maximum(pp.left_ends[1], pp.right_ends[1]).tolist()
    groups, bad = {}, []    # degree -> [(segment, first row)]; overflowed segments
    for i, deriv in enumerate(pp._coef_cache[2].T.tolist()):
        nonzero = [p for p, v in enumerate(deriv) if v != 0.0]
        if len(nonzero) > 1:
            low, top = nonzero[0], nonzero[-1]
            row = [-deriv[p] / deriv[top] for p in range(top - 1, low - 1, -1)]
            if all(map(math.isfinite, row)):
                groups.setdefault(top - low, []).append((i, row))
            else:
                bad.append(i)
    slopes = pp._coef_cache[1].T.tolist()
    widths = pp.widths.tolist()
    for d, group in sorted(groups.items()):
        comp = np.zeros((len(group), d, d))
        comp[:, 0] = [row for _, row in group]
        comp.reshape(len(group), d * d)[:, d::d + 1] = 1.0     # the subdiagonal
        for (i, _), roots in zip(group, np.linalg.eigvals(comp).tolist()):
            for r in roots:
                if abs(r.imag) < 1e-12 and 0 < r.real < widths[i]:
                    acc = 0.0
                    for c in reversed(slopes[i]):
                        acc = acc * r.real + c
                    lo[i], hi[i] = min(lo[i], acc), max(hi[i], acc)
    if bad:
        raise MalformedSpec(f"m' on segment {bad[0]} is not finite")
    return np.array(lo), np.array(hi)


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
    """A piecewise polynomial on [0, 1]: the knots (a float array), the
    segment widths, the coefficient and knot tables and the bounds; the
    base of AdvectionProfile and Potential."""

    def __init__(self, knots, segments):
        self.knots = np.asarray(knots, dtype=float)
        self.widths = self.knots[1:] - self.knots[:-1]
        width = max(len(s) for s in segments)
        orders = DEGREE_CAP + 2
        # every derivative order through DEGREE_CAP + 1, filled once: the
        # object is shared read-only across threads; orders past the
        # degree are zero.  In table k, row p holds every segment's t^p
        # coefficient, so each Horner step gathers from one contiguous
        # row; _coef_cache[k] is table k without its zero top rows.
        # Overflow leaves inf in a table and in its bound.
        table = np.zeros((orders, width, len(segments)))
        table[0].T[:] = [tuple(seg) + (0.0,) * (width - len(seg)) for seg in segments]
        powers = np.arange(1.0, width)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, width):
                np.multiply(table[k - 1, 1:width - k + 1], powers[:width - k],
                            out=table[k, :width - k])
            # knot tables, (orders, segments): every derivative at t = 0
            # (left_ends, the constant rows) and at t = width (right_ends,
            # one Horner pass over all orders that starts from zero, as
            # polyval does)
            right = table[:, -1] + 0.0
            for p in range(width - 2, -1, -1):
                right *= self.widths
                right += table[:, p]
            # (orders, segments): sum |coefficient|.  Every width is <= 1,
            # so this bounds every value of that derivative on the segment
            magnitudes = np.abs(table)
            self.bounds = magnitudes.sum(axis=1)
        self._coef_cache = (tuple(table[k, :width - k] for k in range(width))
                            + (table[width, :1],) * (orders - width))
        self.left_ends, self.right_ends = table[:, 0], right
        self.sizes = magnitudes[0].max(axis=0)     # max |coefficient| per segment
        self.scale = float(self.sizes.max())

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

    def knot_values(self, i, side="right"):
        """Derivatives of orders 0..DEGREE_CAP + 1 at knots[i], the values
        __call__(knots[i], order, side) gives up to the sign of a zero,
        read from the knot tables."""
        if (side == "left" and i > 0) or i == len(self.widths):
            return self.right_ends[:, i - 1].tolist()
        return self.left_ends[:, i].tolist()

    def wrap_jumps(self, up_to_order):
        """|f^(k)(0) - f^(k)(1)| for k = 0..up_to_order; inf where the
        difference overflows."""
        with np.errstate(over="ignore"):
            return np.abs(self.left_ends[:up_to_order + 1, 0]
                          - self.right_ends[:up_to_order + 1, -1])

    def check_continuity(self, up_to_order):
        """Raise NotC2 for the first interior knot, and there the lowest
        order, at which the two one-sided derivatives differ."""
        # tolerance scales with the local coefficient magnitude: double
        # rounding of O(scale) coefficients already produces O(scale*eps)
        # mismatches, so a bare 1e-12 would reject exact-arithmetic-C2
        # specs (e.g. steep quintic ramps)
        if len(self.widths) < 2:
            return
        tol = GLUE_TOL * np.maximum(1.0, np.maximum(self.sizes[:-1], self.sizes[1:]))
        with np.errstate(over="ignore"):     # an overflowing jump is an inf one
            jumps = np.abs(self.right_ends[:up_to_order + 1, :-1]
                           - self.left_ends[:up_to_order + 1, 1:])
        bad = jumps > tol
        if bad.any():
            j = int(bad.any(axis=0).argmax())
            k = int(bad[:, j].argmax())
            raise NotC2(self.knots[j + 1], k, jumps[k, j])


class AdvectionProfile(PiecewisePoly):
    """Validated advection profile m: build_profile sets sign_signature,
    the verified sign of m' per segment in {+1, -1, 0}, and
    max_abs_deriv, the maximum of |m'| on [0, 1]."""


class Potential(PiecewisePoly):
    """Piecewise-polynomial potential c, continuous on [0,1]."""

    @staticmethod
    def from_segments(knots, segments):
        knots = tuple(float(k) for k in knots)
        segments = tuple(tuple(float(c) for c in s) for s in segments)
        _check_pieces(knots, segments, "potential")
        c = Potential(knots, segments)
        finite = np.isfinite(c.bounds[0])
        if not finite.all():
            raise MalformedSpec(f"c on segment {finite.argmin()} is not finite")
        c.check_continuity(0)
        return c

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
        if not all(math.isfinite(b) for b in self.betas() if b is not None):
            raise ValidationError("ell/hbar must be finite at each endpoint")

    def betas(self):
        """The closure at 0 and at 1: beta = ell/hbar of phi' = +-beta phi
        on a kept end, or None where hbar = 0 drops the end (Dirichlet).
        Every solver reads the boundary data through this rule."""
        return tuple(None if hbar == 0.0 else ell / hbar
                     for hbar, ell in ((self.hbar1, self.ell1), (self.hbar2, self.ell2)))

    @staticmethod
    def neumann():
        return RobinBC(1.0, 0.0, 1.0, 0.0)

    @staticmethod
    def dirichlet():
        return RobinBC(0.0, 1.0, 0.0, 1.0)


@dataclass(frozen=True)
class PeriodicBC:
    def validate(self, profile, potential):
        tol = GLUE_TOL * max(1.0, profile.scale)
        for order, jump in enumerate(profile.wrap_jumps(2)):
            if jump > tol:
                raise NotPeriodic(f"m^({order}) wrap mismatch {jump:.3e} at 0/1")
        if (potential is not None and potential.wrap_jumps(0)[0]
                > GLUE_TOL * max(1.0, potential.scale)):
            raise NotPeriodic("c(0) != c(1)")


# -- construction ---------------------------------------------------------

def build_profile(spec: ProfileSpec) -> AdvectionProfile:
    """Validate a spec and return the profile, built once: the checks run
    on the AdvectionProfile itself, which then gets sign_signature and
    max_abs_deriv.

    Checks, in order: structural well-formedness, a finite coefficient
    bound at every derivative order, finite companion matrices for the
    range of m', C^2 gluing at every interior knot (tolerance 1e-12 on m,
    m', m'', scaled by coefficient size), each segment's sign of m'
    against its declared tag, and non-constancy.  Raises MalformedSpec /
    NotC2 / SignMismatch / GloballyConstant accordingly.

    The sign comes from the (min, max) of m' that also gives max|m'|:
    "constant" if m' is identically zero, else "increasing" if the
    minimum is >= -1e-9 max|m'| on the segment, else "decreasing" if the
    maximum is <= 1e-9 max|m'|, else "mixed".  A root of m'' of
    multiplicity k comes out about eps^(1/k) off, which moves m' there by
    about eps^((k+1)/k), below rounding: the range is exact to rounding.
    """
    spec.validate_structure()
    m = AdvectionProfile(spec.knots, spec.segments)
    finite = np.isfinite(m.bounds).all(axis=0)
    if not finite.all():
        raise MalformedSpec(f"profile segment {finite.argmin()} has non-finite derivatives")
    lo, hi = _slope_range(m)
    m.check_continuity(2)

    # integer codes of SIGN_TAGS; None is "mixed"
    signature = tuple(SIGN_TAGS[tag] for tag in spec.declared_signs)
    scales = []
    for i, (low, high, bound) in enumerate(zip(lo.tolist(), hi.tolist(),
                                               m.bounds[1].tolist())):
        scales.append(max(abs(low), abs(high)))
        floor = _SIGN_TOL * scales[-1]
        code = (0 if bound == 0.0 else 1 if low >= -floor
                else -1 if high <= floor else None)
        if code != signature[i]:
            verified = {v: k for k, v in SIGN_TAGS.items()}.get(code, "mixed")
            raise SignMismatch(i, spec.declared_signs[i], verified)

    if not any(signature):
        raise GloballyConstant("m is constant on [0,1]")

    m.sign_signature = signature
    m.max_abs_deriv = max(scales)
    return m


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


def _split_power(name, amp, x0, p, left, right, signs):
    """left (x - x0)^p on [0, x0] and right (x - x0)^p on [x0, 1], each
    piece in its own local variable, for the template name with
    amplitude amp.  Every coefficient of m' on the left piece is nonzero
    in exact arithmetic, so one that rounds to zero is refused: it would
    change the sign of m' that the template declares.  The constant term
    m(0) may round to zero, since nothing reads m but through m'."""
    if amp <= 0:
        raise BadParams(f"{name} amplitude must be positive")

    def mono(coeff):
        return (0.0,) * p + (float(coeff),)
    head = _shift_poly(mono(left), -x0)
    if 0.0 in head[1:]:
        raise BadParams(f"{name} amplitude {amp!r} is too small at x0 = {x0!r}: "
                        f"a coefficient of m' on [0, x0] rounds to zero")
    return ProfileSpec((0.0, x0, 1.0), (head, mono(right)), signs)


def _check_interior(*points):
    pts = list(points)
    if any(not (0.0 < p < 1.0) for p in pts):
        raise BadParams("breakpoints must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise BadParams("breakpoints must be strictly ascending")


def _ramp_template(levels, *points):
    """Quintic ramps through levels, with the breakpoints between them;
    a wrong breakpoint count is a TypeError, as for the other builders."""
    if len(points) != len(levels) - 2:
        raise TypeError(f"{len(levels) - 2} breakpoints needed")
    _check_interior(*points)
    return _ramp_chain((0.0, *points, 1.0), levels)


def _t_monotone_increasing():
    return ProfileSpec((0.0, 1.0), ((0.0, 1.0),), ("increasing",))


def _t_vee(x0, amp=0.2):
    # m = amp (x - x0)^2: decreasing on [0,x0], increasing on [x0,1].
    # The default amplitude 0.2 keeps the Neumann boundary layers thin
    # enough for the concentration checks while the Robin eigenvalue is
    # still in its fast pre-linear growth regime at moderate s.
    _check_interior(x0)
    return _split_power("vee", amp, x0, 2, amp, amp, ("decreasing", "increasing"))


def _t_power_max(x0, kstar, amp=1.0):
    # m = -amp (x - x0)^kstar, split at x0 so each half is monotone; the
    # two halves are the same polynomial, which keeps every one-sided
    # derivative at x0 exactly matched (k* is well defined there).
    _check_interior(x0)
    k = int(kstar)
    if k != kstar or k < 2 or k % 2 != 0 or k > DEGREE_CAP:
        raise BadParams("power_max needs an even integer k* in [2, 8]")
    return _split_power("power_max", amp, x0, k, -amp, -amp,
                        ("increasing", "decreasing"))


def _t_power_well(x0, nu, amp=1.0):
    # m = amp |x - x0|^(nu+1) / (nu+1), i.e. m' = amp sign(x-x0)|x-x0|^nu:
    # the derivative vanishes to order nu at the well bottom, the shape of
    # the degenerate-advection growth-rate examples.
    _check_interior(x0)
    n = int(nu)
    if n != nu or n < 1 or n + 1 > DEGREE_CAP:
        raise BadParams("power_well needs an integer nu in [1, 7]")
    p = n + 1
    c = float(amp) / p
    # left piece: c (x0 - x)^p = c (-1)^p (x - x0)^p
    return _split_power("power_well", amp, x0, p, c * (-1.0) ** p, c,
                        ("decreasing", "increasing"))


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
    "example1": (partial(_ramp_template, (0.5, 0.0, 0.45, 0.45, 0.05, 0.4)),
                 "x1,x2,x3,x4: down, up, flat max plateau, down, up"),
    "example2": (partial(_ramp_template, (0.5, 0.0, 0.0, 0.5)),
                 "x1,x2: down, flat valley-to-valley plateau, up"),
    "example3": (partial(_ramp_template, (0.0, 0.3, 0.3, 0.6)),
                 "x1,x2: up, flat step plateau, up"),
    "t1": (partial(_ramp_template, (0.0, 0.5, 0.1, 0.4, 0.4, 0.0, 0.45)),
           "a1..a5: up,down,up,flat,down,up (isolated max + NN plateau)"),
    "t2": (partial(_ramp_template, (0.0, 0.5, 0.1, 0.1, 0.35, 0.35, 0.6, 0.6)),
           "a1..a6: up,down,flat,up,flat,up,flat (DD/ND/NN plateaus)"),
    "monotone_increasing": (_t_monotone_increasing, "(no params): m(x) = x"),
    "vee": (_t_vee, "x0[,amp]: amp*(x-x0)^2, decreasing then increasing"),
    "power_max": (_t_power_max, "x0,kstar[,amp]: m = -amp*(x-x0)^kstar, even k*"),
    "power_well": (_t_power_well, "x0,nu[,amp]: m' = amp*sign(x-x0)*|x-x0|^nu"),
    "periodic_bump": (_t_periodic_bump, "x0[,amp]: 1-periodic bump, max at x0, m'(0)>0"),
}


def builtin(template: str, *params) -> ProfileSpec:
    """Instantiate a named template spec (still needs build_profile)."""
    try:
        builder, doc = TEMPLATES[template]
    except KeyError:
        raise UnknownTemplate(f"unknown template {template!r}; "
                              f"known: {', '.join(sorted(TEMPLATES))}") from None
    try:
        return builder(*[float(p) for p in params])
    except TypeError:     # a wrong parameter count
        raise BadParams(f"{template} takes {doc.split(':')[0]}; "
                        f"{len(params)} given") from None


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
