import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adveig.errors import (BadParams, GloballyConstant, MalformedSpec, NotC2,
                           NotPeriodic, OutOfDomain, SignMismatch,
                           UnknownTemplate, ValidationError)
from adveig.profile import (DEGREE_CAP, GLUE_TOL, SIGN_TAGS, PeriodicBC,
                            PiecewisePoly, Potential, ProfileSpec, RobinBC,
                            TEMPLATES, build_profile, builtin, profile_from_dict,
                            spec_to_dict, _ramp_chain, _slope_range)
from conftest import scale_spec


def test_globally_constant_rejected():
    spec = ProfileSpec((0.0, 1.0), ((0.3,),), ("constant",))
    with pytest.raises(GloballyConstant):
        build_profile(spec)


def test_not_c2_reports_knot_and_order():
    # second derivative jumps from 2 to 3 at the knot
    spec = ProfileSpec((0.0, 0.5, 1.0),
                       ((0.0, 0.0, 1.0), (0.25, 1.0, 1.5)),
                       ("increasing", "increasing"))
    with pytest.raises(NotC2) as err:
        build_profile(spec)
    assert err.value.knot == 0.5
    assert err.value.order == 2
    assert err.value.mismatch == pytest.approx(1.0)


def test_value_jump_reported_as_order_zero():
    spec = ProfileSpec((0.0, 0.5, 1.0), ((0.0, 1.0), (1.0, 1.0)),
                       ("increasing", "increasing"))
    with pytest.raises(NotC2) as err:
        build_profile(spec)
    assert err.value.order == 0


def test_first_failing_knot_and_its_lowest_order_reported():
    # 0.25: m' and m'' jump; 0.5: m, m' and m'' jump
    spec = ProfileSpec((0.0, 0.25, 0.5, 1.0),
                       ((0.0, 1.0), (0.25, 2.0, 3.0), (0.0, 1.0)),
                       ("increasing",) * 3)
    with pytest.raises(NotC2) as err:
        build_profile(spec)
    assert (err.value.knot, err.value.order) == (0.25, 1)
    assert err.value.mismatch == pytest.approx(1.0)


def test_t1_sign_signature():
    prof = build_profile(builtin("t1", 0.15, 0.3, 0.45, 0.6, 0.8))
    assert prof.sign_signature == (1, -1, 1, 0, -1, 1)
    assert len(prof.widths) == 6


def test_sign_mismatch_detected():
    spec = ProfileSpec((0.0, 1.0), ((0.0, 1.0),), ("decreasing",))
    with pytest.raises(SignMismatch):
        build_profile(spec)
    # a genuinely sign-changing segment cannot carry any tag
    spec = ProfileSpec((0.0, 1.0), ((0.0, 1.0, -1.0),), ("increasing",))
    with pytest.raises(SignMismatch) as err:
        build_profile(spec)
    assert err.value.verified == "mixed"


def test_malformed_specs():
    with pytest.raises(MalformedSpec):
        ProfileSpec((0.1, 1.0), ((0.0, 1.0),), ("increasing",)).validate_structure()
    with pytest.raises(MalformedSpec):
        ProfileSpec((0.0, 0.5, 0.4, 1.0), ((1.0,),) * 3,
                    ("constant",) * 3).validate_structure()
    with pytest.raises(MalformedSpec):
        ProfileSpec((0.0, 1.0), ((0.0,), (1.0,)), ("constant", "constant")
                    ).validate_structure()
    with pytest.raises(MalformedSpec):   # degree cap is 8
        ProfileSpec((0.0, 1.0), (tuple(range(11)),), ("increasing",)
                    ).validate_structure()


def test_eval_basics():
    prof = build_profile(builtin("vee", 0.5))
    # p(t) = t^2 piece continued by a matching quadratic
    quad = build_profile(ProfileSpec((0.0, 0.5, 1.0),
                                     ((0.0, 0.0, 1.0), (0.25, 1.0, 1.0)),
                                     ("increasing", "increasing")))
    assert quad(0.25, 2) == pytest.approx(2.0)
    # constant segment: every derivative vanishes there
    plateau = build_profile(builtin("t2", 0.1, 0.25, 0.4, 0.55, 0.7, 0.85))
    assert plateau(0.3, 1) == 0.0
    assert plateau(0.32, 2) == 0.0
    # two-sided match at the knot for orders <= 2
    for order in range(3):
        left = prof(0.5, order, "left")
        right = prof(0.5, order, "right")
        assert abs(left - right) <= 1e-12
    with pytest.raises(OutOfDomain):
        prof(1.2)
    with pytest.raises(OutOfDomain):
        prof(np.array([0.2, -0.3]))


def test_eval_round_trip_matches_input_polynomials():
    spec = builtin("t1", 0.15, 0.3, 0.45, 0.6, 0.8)
    prof = build_profile(spec)
    for i, seg in enumerate(spec.segments):
        a, b = spec.knots[i], spec.knots[i + 1]
        for frac in (0.21, 0.5, 0.83):
            x = a + frac * (b - a)
            direct = np.polynomial.polynomial.polyval(x - a, np.asarray(seg))
            assert prof(x) == pytest.approx(direct, rel=1e-15, abs=1e-300)


def test_eval_vectorized_matches_scalar():
    prof = build_profile(builtin("t2", 0.1, 0.25, 0.4, 0.55, 0.7, 0.85))
    xs = np.linspace(0.0, 1.0, 257)
    for order in (0, 1, 2):
        vec = prof(xs, order)
        assert vec == pytest.approx([prof(float(x), order) for x in xs])


def test_power_templates():
    pm = build_profile(builtin("power_max", 0.5, 4))
    # central piece has m' = -4 (x - 0.5)^3
    assert pm(0.6, 1) == pytest.approx(-4 * 0.1 ** 3)
    assert pm(0.3, 1) == pytest.approx(-4 * (-0.2) ** 3)
    pw = build_profile(builtin("power_well", 0.5, 2))
    # m' vanishes to order nu: m' = sign(x - 0.5) |x - 0.5|^2
    assert pw(0.6, 1) == pytest.approx(0.1 ** 2)
    assert pw(0.4, 1) == pytest.approx(-(0.1 ** 2))
    with pytest.raises(BadParams):
        builtin("power_max", 0.5, 3)       # odd order cannot be a max
    with pytest.raises(BadParams):
        builtin("power_well", 0.5, 9)      # degree cap
    with pytest.raises(UnknownTemplate):
        builtin("nope", 1.0)


def test_increasing_accepts_even_multiplicity_interior_zeros():
    # m'(t) = (t - 0.4)^2 (t - 0.9)^2: nonnegative, vanishing inside,
    # positive somewhere - a valid "increasing" segment
    from numpy.polynomial import polynomial as P
    dp = P.polyfromroots([0.4, 0.4, 0.9, 0.9])
    m = tuple(P.polyint(dp))
    prof = build_profile(ProfileSpec((0.0, 1.0), (m,), ("increasing",)))
    assert prof.sign_signature == (1,)
    # while a simple or triple interior root (genuine sign change) is
    # rejected
    for roots in ([0.5], [0.5, 0.5, 0.5]):
        m_bad = tuple(P.polyint(P.polyfromroots(roots)))
        with pytest.raises(SignMismatch) as err:
            build_profile(ProfileSpec((0.0, 1.0), (m_bad,), ("increasing",)))
        assert err.value.verified == "mixed"
    # m' = (t - 0.5)^2 - dip, max|m'| ~ 0.25: a dip of 1e-6 relative is a
    # sign change, one of 1e-12 relative is rounding-level and passes
    dips = [(P.polysub(P.polyfromroots([0.5, 0.5]), [0.25 * rel]), rel, 1)
            for rel in (1e-6, 1e-12)]
    # m' = q(t) ((t - r)^2 - e^2), q = 1 + t, r = 0.5: two close simple
    # roots r -/+ e, max|m'| = 0.5 (at t = 1) and a dip of about 1.5 e^2,
    # seen only at the root of m'' between them; and a decreasing mirror
    for rel in (1e-6, 1e-12):
        e = np.sqrt(rel / 3.0)
        dp = P.polymul([1.0, 1.0], P.polyfromroots([0.5 - e, 0.5 + e]))
        dips += [(dp, rel, 1), (-dp, rel, -1)]
    tags = {1: "increasing", -1: "decreasing"}
    for dp, rel, sign in dips:
        spec = ProfileSpec((0.0, 1.0), (tuple(P.polyint(dp)),), (tags[sign],))
        if rel < 1e-9:
            assert build_profile(spec).sign_signature == (sign,)
        else:
            with pytest.raises(SignMismatch) as err:
                build_profile(spec)
            assert err.value.verified == "mixed"
    # the degree cap: m' vanishes to order 7 at the knot
    assert build_profile(builtin("power_max", 0.5, 8)).sign_signature == (1, -1)
    assert build_profile(builtin("power_well", 0.5, 7)).sign_signature == (-1, 1)


@pytest.mark.parametrize("coeffs, message", [
    ((0.0, 1.7e308, -1e308), "profile segment 0 has non-finite derivatives"),
    ((1.7e308, 1.7e308), "profile segment 0 has non-finite derivatives"),
    ((0.0, 0.9e308, 0.45e308), "profile segment 0 has non-finite derivatives"),
    ((0.0, 1.0, 1.0, 1e-320), "m' on segment 0 is not finite"),   # np.roots
])
def test_overflowing_spec_is_malformed(coeffs, message):
    # finite coefficients whose sum |coefficient| at some derivative order,
    # or whose m' companion matrix, overflows; warnings are errors under
    # pytest, so none may be emitted either
    spec = ProfileSpec((0.0, 1.0), (coeffs,), ("increasing",))
    with pytest.raises(MalformedSpec, match=message):
        build_profile(spec)
    # the companion matrices of equal degree share one eigvals call; an
    # overflowing one must still be named by its own segment
    knots, segs = (0.0, 0.5, 1.0), ((0.0, 1.0, 1.0, 1.0), (0.0, 1.0, 1.0, 1e-320))
    with pytest.raises(MalformedSpec, match="m' on segment 1 is not finite"):
        build_profile(ProfileSpec(knots, segs, ("increasing",) * 2))
    # as a potential it is finite, but c jumps from 0.875 to 0 at 0.5
    with pytest.raises(NotC2):
        Potential.from_segments(knots, segs)


def test_sign_signature_affine_invariance():
    spec = builtin("t1", 0.15, 0.3, 0.45, 0.6, 0.8)
    base = build_profile(spec)
    for alpha, beta in ((2.5, 0.0), (0.3, -1.0), (7.0, 4.0)):
        scaled = build_profile(scale_spec(spec, alpha, beta))
        assert scaled.sign_signature == base.sign_signature


_POS = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)


@st.composite
def ascending_points(draw, count):
    pts = sorted(draw(st.lists(_POS, min_size=count, max_size=count)))
    if any(b - a < 0.04 for a, b in zip(pts, pts[1:])):
        # renormalize to guaranteed gaps instead of rejecting
        pts = [0.05 + (0.9 * (i + 1)) / (count + 1) * draw(st.floats(0.7, 1.0))
               for i in range(count)]
        pts = sorted(pts)
    return pts


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_template_builds_over_random_params(data):
    for name, count in (("example1", 4), ("example2", 2), ("example3", 2),
                        ("t1", 5), ("t2", 6)):
        pts = data.draw(ascending_points(count))
        build_profile(builtin(name, *pts))
    x0 = data.draw(st.floats(0.1, 0.9))
    build_profile(builtin("vee", x0))
    build_profile(builtin("power_max", x0, data.draw(st.sampled_from([2, 4, 6, 8]))))
    build_profile(builtin("power_well", x0, data.draw(st.integers(1, 7))))
    build_profile(builtin("periodic_bump", data.draw(st.floats(0.05, 0.45))))
    build_profile(builtin("monotone_increasing"))


def test_all_templates_registered():
    assert set(TEMPLATES) >= {"example1", "example2", "example3", "t1", "t2",
                              "monotone_increasing", "vee", "power_max",
                              "power_well"}


def test_json_round_trip():
    spec = builtin("example3", 0.35, 0.6)
    doc = spec_to_dict(spec)
    doc["potential"] = {"knots": [0.0, 1.0], "segments": [[1.0, 2.0]]}
    spec2, pot = profile_from_dict(json.loads(json.dumps(doc)))
    assert spec2 == spec
    assert pot(0.5) == pytest.approx(2.0)
    # template addressing form
    spec3, _ = profile_from_dict({"template": {"name": "vee", "params": [0.5]}})
    assert spec3 == builtin("vee", 0.5)
    with pytest.raises(MalformedSpec):
        profile_from_dict({"knots": [0, 1]})


def test_potential_validation():
    with pytest.raises(NotC2) as err:
        Potential.from_segments((0.0, 0.5, 1.0), ((0.0,), (1.0,)))  # jump
    assert err.value.order == 0
    pot = Potential.from_segments((0.0, 0.5, 1.0), ((0.0, 1.0), (0.5, 1.0)))
    assert pot(0.75) == pytest.approx(0.75)
    assert (pot(0.0), pot(1.0)) == pytest.approx((0.0, 1.0))
    with pytest.raises(OutOfDomain):
        pot(-0.1)
    # c overflows at the knot: its bound is checked before the glue
    with pytest.raises(MalformedSpec, match="c on segment 0 is not finite"):
        Potential.from_segments((0.0, 0.5, 1.0), ((1.5e308,) * 3, (1.0,)))
    # finite at both ends, but c(0.5) overflows inside the segment
    with pytest.raises(MalformedSpec, match="c on segment 0 is not finite"):
        Potential.from_coeffs([1.6e308, 1.6e308, -1.6e308])
    # a subnormal top coefficient leaves c finite everywhere
    assert Potential.from_coeffs([0.0, 1.0, 1.0, 1e-320])(0.5) == 0.75


def test_robin_bc_validation():
    with pytest.raises(ValidationError):
        RobinBC(0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        RobinBC(-1.0, 1.0, 1.0, 0.0)
    # ell/hbar = 1/1e-320 overflows to inf: the closure phi' = -beta phi is lost
    with pytest.raises(ValidationError, match="ell/hbar"):
        RobinBC(1.0, 0.0, 1e-320, 1.0)
    assert RobinBC(2.0 ** -1000, 1.0, 1.0, 0.0).betas() == (2.0 ** 1000, 0.0)
    bc = RobinBC.neumann()
    assert bc.ell1 == bc.ell2 == 0.0


def test_periodic_bc_validation():
    vee = build_profile(builtin("vee", 0.5))
    with pytest.raises(NotPeriodic):
        PeriodicBC().validate(vee, Potential.zero())
    bump = build_profile(builtin("periodic_bump", 0.25))
    PeriodicBC().validate(bump, Potential.zero())
    with pytest.raises(NotPeriodic):
        PeriodicBC().validate(bump, Potential.from_coeffs([0.0, 1.0]))
    # c = 1e5 u^2 (1 - u)^2 on the bump's pieces (max c = 6250): its wrap
    # jump of ~1.4e-12 is rounding of the large coefficients, so the
    # tolerance scales with them as it does for m
    big = builtin("periodic_bump", 0.3, 1e5)
    PeriodicBC().validate(build_profile(big),
                          Potential.from_segments(big.knots, big.segments))
    with pytest.raises(NotPeriodic):
        PeriodicBC().validate(bump, Potential.from_coeffs([1e5, 1e-6]))


def test_max_abs_deriv():
    prof = build_profile(builtin("vee", 0.5, 1.0))
    assert prof.max_abs_deriv == pytest.approx(1.0)
    # pinned bit for bit: max|m'| of the quintic ramps and of two maxima
    t1 = build_profile(builtin("t1", 0.15, 0.3, 0.45, 0.6, 0.8))
    assert t1.max_abs_deriv == float.fromhex("0x1.9000000000006p+2")
    pm = build_profile(builtin("power_max", 0.5, 6))
    assert pm.max_abs_deriv == float.fromhex("0x1.8000000000000p-3")
    bump = build_profile(builtin("periodic_bump", 0.3, 2))
    assert bump.max_abs_deriv == float.fromhex("0x1.8a2345cc04426p-2")


# constant, quadratic, generic quintic, m' = 2t + 3t^2 (a zero constant
# term) and m = -t^4 (m' has only zero roots): companion degrees 0..4,
# zero coefficients stripped at both ends and segments of unequal length
_MIXED = ((0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
          ((1.0,), (0.5, -1.0, 3.0), (0.1, 2.0, -7.0, 5.0, 30.0, -60.0),
           (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 0.0, 0.0, -1.0)))

_TEMPLATE_PARAMS = {
    "example1": (0.2, 0.4, 0.6, 0.8), "example2": (0.3, 0.6),
    "example3": (0.35, 0.6), "t1": (0.15, 0.3, 0.45, 0.6, 0.8),
    "t2": (0.1, 0.25, 0.4, 0.55, 0.7, 0.85), "monotone_increasing": (),
    "vee": (0.4,), "power_max": (0.5, 6), "power_well": (0.45, 3),
    "periodic_bump": (0.3, 2),
}


def _pieces():
    for name in TEMPLATES:
        spec = builtin(name, *_TEMPLATE_PARAMS[name])
        yield name, build_profile(spec)
    yield "mixed", PiecewisePoly(*_MIXED)


def test_knot_tables_equal_evaluation_at_knots():
    for name, pp in _pieces():
        for k in range(DEGREE_CAP + 2):
            for side in ("left", "right"):
                want = pp(pp.knots, k, side)
                got = np.array([pp.knot_values(i, side)[k]
                                for i in range(len(pp.knots))])
                assert got.tobytes() == want.tobytes(), (name, k, side)


def test_ranges_equal_per_segment_np_roots():
    # the batched critical-point search returns what np.roots and polyval
    # give one segment at a time, bit for bit
    from numpy.polynomial import polynomial as poly
    for name, pp in _pieces():
        want = []
        for i, w in enumerate(pp.widths):
            c = pp._coef_cache[1][:, i]
            d = poly.polyder(c)
            xs = [0.0, w] + [r.real for r in np.roots(d[::-1])
                             if abs(r.imag) < 1e-12 and 0 < r.real < w]
            want.append([poly.polyval(x, c) for x in xs])
        lo, hi = _slope_range(pp)
        assert lo.tolist() == [min(v) for v in want], name
        assert hi.tolist() == [max(v) for v in want], name


# -- build_profile against a per-segment reference ------------------------

@np.errstate(all="ignore")      # derivatives and companion rows may overflow
def _reference_build(spec):
    """What build_profile gives for spec, checked the slow way: every
    derivative by polyder, one segment at a time, the range of m' from
    np.roots and polyval as in test_ranges_equal_per_segment_np_roots,
    and the checks in build_profile's order.  A tuple of the outcome:
    ("ok", signature, max|m'| as hex) or the error with its details."""
    from numpy.polynomial import polynomial as poly
    try:
        spec.validate_structure()
    except MalformedSpec as exc:
        return (MalformedSpec, str(exc))
    widths = [b - a for a, b in zip(spec.knots, spec.knots[1:])]
    derivs = []     # orders 0..DEGREE_CAP + 1 per segment
    for seg in spec.segments:
        orders = [np.array(seg)]
        for _ in range(DEGREE_CAP + 1):
            orders.append(poly.polyder(orders[-1]))
        derivs.append(orders)
    for i, orders in enumerate(derivs):
        bounds = [sum(abs(v) for v in der.tolist()) for der in orders]
        if not all(map(np.isfinite, bounds)):
            return (MalformedSpec, f"profile segment {i} has non-finite derivatives")
    ranges = []
    for i, orders in enumerate(derivs):
        try:
            roots = np.roots(orders[2][::-1])
        except np.linalg.LinAlgError:      # an overflowed companion matrix
            return (MalformedSpec, f"m' on segment {i} is not finite")
        xs = [0.0, widths[i]] + [r.real for r in roots
                                 if abs(r.imag) < 1e-12 and 0 < r.real < widths[i]]
        values = [poly.polyval(x, orders[1]) for x in xs]
        ranges.append((min(values), max(values)))
    for j in range(len(widths) - 1):
        tol = GLUE_TOL * max(1.0, max(np.abs(spec.segments[j]).max(),
                                      np.abs(spec.segments[j + 1]).max()))
        for k in range(3):
            jump = abs(poly.polyval(widths[j], derivs[j][k])
                       - poly.polyval(0.0, derivs[j + 1][k]))
            if jump > tol:
                return (NotC2, spec.knots[j + 1], k, jump.hex())
    scales = []
    for i, (lo, hi) in enumerate(ranges):
        scales.append(max(abs(lo), abs(hi)))
        floor = 1e-9 * scales[-1]
        verified = ("constant" if not derivs[i][1].any() else "increasing"
                    if lo >= -floor else "decreasing" if hi <= floor else "mixed")
        if verified != spec.declared_signs[i]:
            return (SignMismatch, i, spec.declared_signs[i], verified)
    if set(spec.declared_signs) == {"constant"}:
        return (GloballyConstant,)
    return ("ok", tuple(SIGN_TAGS[t] for t in spec.declared_signs),
            float(max(scales)).hex())


def _library_build(spec):
    try:
        prof = build_profile(spec)
    except NotC2 as exc:
        return (NotC2, exc.knot, exc.order, float(exc.mismatch).hex())
    except SignMismatch as exc:
        return (SignMismatch, exc.segment, exc.declared, exc.verified)
    except GloballyConstant:
        return (GloballyConstant,)
    except MalformedSpec as exc:
        return (MalformedSpec, str(exc))
    return ("ok", prof.sign_signature, prof.max_abs_deriv.hex())


_COEFF = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e4, 1e4),
                   st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300]))
_LEVELS = st.sampled_from([0.0, 0.3, -1.0, 2.5, 1e3])
_BUMP_SIZES = st.sampled_from([0.0, 1e-13, -1e-13, 1e-3, -1e-3, 50.0])


@st.composite
@np.errstate(all="ignore")
def piecewise_specs(draw):
    """1 to 8 segments of degree <= DEGREE_CAP in one of three shapes:
    free coefficients (mostly not C^2), segments glued C^2 by the Taylor
    data of the previous segment at its right end, or quintic ramps
    between levels plus a multiple of t^3 (w - t)^3, which keeps the
    glue.  The tags are random, or corrected to the reference's verified
    tags; now and then one coefficient is made huge, or a subnormal top
    coefficient is appended, to reach the overflow checks."""
    from numpy.polynomial import polynomial as poly
    count = draw(st.integers(1, 8))
    cuts = sorted(draw(st.sets(st.integers(1, 999), min_size=count - 1,
                               max_size=count - 1)))
    knots = (0.0, *(c / 1000 for c in cuts), 1.0)
    shape = draw(st.sampled_from(("free", "glued", "ramps")))
    levels = draw(st.lists(_LEVELS, min_size=count + 1, max_size=count + 1))
    segments = []
    for i, w in enumerate(b - a for a, b in zip(knots, knots[1:])):
        if shape == "ramps":
            seg = _ramp_chain((0.0, w), levels[i:i + 2]).segments[0]
            bump = [0.0, 0.0, 0.0, w ** 3, -3 * w ** 2, 3 * w, -1.0]
            size = draw(_BUMP_SIZES) * max(1.0, abs(seg[-1]))
            seg = poly.polyadd(seg, [size * v for v in bump]).tolist()
        else:
            seg = draw(st.lists(_COEFF, min_size=1, max_size=DEGREE_CAP + 1))
            if shape == "glued" and segments:
                prev, width = np.array(segments[-1]), knots[i] - knots[i - 1]
                seg = [poly.polyval(width, poly.polyder(prev, k)) / f
                       for k, f in ((0, 1.0), (1, 1.0), (2, 2.0))] + seg[3:]
        segments.append([float(c) for c in seg])
    i = draw(st.integers(0, count - 1))
    extreme = draw(st.integers(0, 9))
    if extreme == 0:
        position = draw(st.integers(0, len(segments[i]) - 1))
        segments[i][position] = draw(st.sampled_from([1.7e308, -9e307]))
    elif extreme == 1 and len(segments[i]) <= DEGREE_CAP:
        segments[i].append(1e-320)
    tags = draw(st.lists(st.sampled_from(list(SIGN_TAGS)), min_size=count,
                         max_size=count))
    spec = ProfileSpec(knots, segments, tags)
    if draw(st.booleans()):
        for _ in range(count):
            outcome = _reference_build(spec)
            if outcome[0] is not SignMismatch or outcome[3] == "mixed":
                break
            tags[outcome[1]] = outcome[3]
            spec = ProfileSpec(knots, segments, tags)
    return spec


@settings(max_examples=200, deadline=None)
@given(spec=piecewise_specs())
# m jumps from 1e308 to -1e308: the jump overflows to inf and is a NotC2
@example(spec=ProfileSpec((0.0, 0.5, 1.0), ((1e308,), (-1e308, 0.0, 0.0, 1.0)),
                          ("constant", "increasing")))
def test_build_profile_matches_per_segment_reference(spec):
    # the same signature and bits of max|m'|, or the same error with the
    # same segment or knot, order and verified tag
    assert _library_build(spec) == _reference_build(spec)
