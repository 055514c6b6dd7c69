import numpy as np
import pytest

from adveig.errors import NotPeriodic
from adveig.lab import sweep
from adveig.maxset import decompose, decompose_periodic
from adveig.predictor import _sub_eigenvalue, periodic_prediction, predict_limit
from adveig.profile import (PeriodicBC, Potential, ProfileSpec, RobinBC, _ramp_chain,
                            build_profile, builtin)
from conftest import reflect_spec, scale_spec, wrap_bump_spec

T1 = (0.15, 0.3, 0.45, 0.6, 0.8)
T2 = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)


def test_t1_decomposition():
    d = decompose(build_profile(builtin("t1", *T1)))
    assert [(p.x, p.position) for p in d.isolated] == [
        (0.15, "interior"), (1.0, "right_boundary")]
    assert [(s.a, s.b, s.cls) for s in d.segments] == [(0.45, 0.6, "M3")]


def test_t2_decomposition():
    d = decompose(build_profile(builtin("t2", *T2)))
    assert [(p.x, p.position) for p in d.isolated] == [(0.1, "interior")]
    assert [(s.a, s.b, s.cls) for s in d.segments] == [
        (0.25, 0.4, "M4"), (0.55, 0.7, "M2"), (0.85, 1.0, "M8")]


def test_monotone_increasing_decomposition():
    d = decompose(build_profile(builtin("monotone_increasing")))
    assert [(p.x, p.position) for p in d.isolated] == [(1.0, "right_boundary")]
    assert d.segments == ()


def test_examples_decomposition():
    d = decompose(build_profile(builtin("example1", 0.15, 0.4, 0.6, 0.85)))
    assert {p.position for p in d.isolated} == {"left_boundary", "right_boundary"}
    assert [s.cls for s in d.segments] == ["M3"]
    d = decompose(build_profile(builtin("example2", 0.3, 0.7)))
    assert [s.cls for s in d.segments] == ["M4"]
    d = decompose(build_profile(builtin("example3", 0.35, 0.6)))
    assert [s.cls for s in d.segments] == ["M2"]
    assert [(p.x, p.position) for p in d.isolated] == [(1.0, "right_boundary")]


def test_adjacent_same_sign_segments_merge():
    # two increasing pieces followed by two constant pieces: one plateau
    from adveig.profile import _ramp_coeffs
    spec = ProfileSpec(
        (0.0, 0.25, 0.5, 0.75, 1.0),
        (_ramp_coeffs(0.0, 1.0, 0.25), _ramp_coeffs(1.0, 1.0, 0.25),
         (2.0,), (2.0,)),
        ("increasing", "increasing", "constant", "constant"))
    d = decompose(build_profile(spec))
    assert [(s.a, s.b, s.cls) for s in d.segments] == [(0.5, 1.0, "M8")]
    assert d.isolated == ()


def _isolated_at(prof, x0):
    """The isolated maxima of decompose(prof) at x0."""
    return [p for p in decompose(prof).isolated if abs(p.x - x0) <= 1e-12]


def test_kstar_power_max():
    for x0, k, m_kstar in ((0.5, 4, -24.0), (0.5, 2, -2.0),
                           # off-center: the shifted-coefficient expansion still
                           # matches the one-sided derivative sequences within rounding
                           (0.3, 4, -24.0)):
        (point,) = _isolated_at(build_profile(builtin("power_max", x0, k)), x0)
        assert (point.k_star, point.m_kstar) == (k, pytest.approx(m_kstar))


def test_kstar_at_ramp_junction():
    prof = build_profile(builtin("t1", *T1))
    (point,) = _isolated_at(prof, 0.15)
    assert point.k_star is None           # one-sided third derivatives differ
    assert _isolated_at(prof, 0.3) == []  # not a maximum


def test_interior_kstar_is_even_negative():
    for k in (2, 4, 6):
        d = decompose(build_profile(builtin("power_max", 0.4, k)))
        (point,) = [p for p in d.isolated if p.position == "interior"]
        assert point.k_star == k and point.k_star % 2 == 0
        assert point.m_kstar < 0


def test_boundary_kstar():
    # m = -(1-x)^3 near 1: increasing into the right boundary, k* = 3
    spec = ProfileSpec((0.0, 1.0), ((-1.0, 3.0, -3.0, 1.0),), ("increasing",))
    d = decompose(build_profile(spec))
    (point,) = d.isolated
    assert (point.position, point.k_star) == ("right_boundary", 3)
    assert point.m_kstar == pytest.approx(6.0)
    # vee: m'(0) != 0, so no degeneracy order at the boundary maximum
    dv = decompose(build_profile(builtin("vee", 0.5)))
    assert all(p.k_star is None for p in dv.isolated)


def test_boundedness_trichotomy():
    def verdict(decomp, bc):
        pred = predict_limit(decomp, Potential.zero(), bc)
        return pred.finite, pred.case

    vee = decompose(build_profile(builtin("vee", 0.5)))
    assert verdict(vee, RobinBC(1, 1, 1, 1)) == (False, "i-1")
    mono = decompose(build_profile(builtin("monotone_increasing")))
    assert verdict(mono, RobinBC(1, 0, 1, 1)) == (False, "i-3")
    dec = decompose(build_profile(
        ProfileSpec((0.0, 1.0), ((1.0, -1.0),), ("decreasing",))))
    assert verdict(dec, RobinBC(1, 1, 1, 0)) == (False, "i-2")
    # mixed cases stay bounded
    assert verdict(vee, RobinBC(1, 1, 1, 0)) == (True, None)      # c(1) term
    assert verdict(mono, RobinBC(1, 1, 1, 0)) == (True, None)     # c(1) term
    t1 = decompose(build_profile(builtin("t1", *T1)))
    for bc in (RobinBC(1, 1, 1, 1), RobinBC.neumann(), RobinBC.dirichlet()):
        assert verdict(t1, bc) == (True, None)


def test_decompose_affine_invariance():
    spec = builtin("t2", *T2)
    base = decompose(build_profile(spec))
    for alpha, beta in ((3.0, 0.0), (0.25, 2.0)):
        d = decompose(build_profile(scale_spec(spec, alpha, beta)))
        assert [(p.x, p.position, p.k_star) for p in d.isolated] == \
               [(p.x, p.position, p.k_star) for p in base.isolated]
        assert d.segments == base.segments
        for p, q in zip(d.isolated, base.isolated):
            if p.k_star is not None:
                assert p.m_kstar == pytest.approx(alpha * q.m_kstar)


# reflection flips monotonicity direction: I-flanks become D-flanks, so
# the boundary classes cross-pair (M6<->M9, M7<->M8)
REFLECT_MAP = {"M2": "M5", "M5": "M2", "M3": "M3", "M4": "M4",
               "M6": "M9", "M9": "M6", "M7": "M8", "M8": "M7"}


@pytest.mark.parametrize("name,params", [
    ("t1", T1), ("t2", T2), ("example1", (0.15, 0.4, 0.6, 0.85)),
    ("example3", (0.35, 0.6)), ("power_max", (0.4, 4))])
def test_reflection_consistency(name, params):
    spec = builtin(name, *params)
    d = decompose(build_profile(spec))
    dr = decompose(build_profile(reflect_spec(spec)))
    want_segments = sorted((round(1 - s.b, 12), round(1 - s.a, 12),
                            REFLECT_MAP[s.cls]) for s in d.segments)
    got_segments = sorted((round(s.a, 12), round(s.b, 12), s.cls)
                          for s in dr.segments)
    assert got_segments == [tuple(s) for s in want_segments]
    want_points = sorted(round(1 - p.x, 12) for p in d.isolated)
    assert sorted(round(p.x, 12) for p in dr.isolated) == want_points


@pytest.mark.parametrize("name,params", [
    ("t1", T1), ("t2", T2), ("example2", (0.3, 0.7)), ("vee", (0.5,))])
def test_components_disjoint_and_flanks_match(name, params):
    prof = build_profile(builtin(name, *params))
    d = decompose(prof)
    comps = d.components()
    for (a1, b1), (a2, b2) in zip(comps, comps[1:]):
        assert b1 < a2
    for seg in d.segments:
        want_left, want_right = seg.flanks
        if want_left is not None:
            assert prof.sign_signature[np.searchsorted(prof.knots, seg.a, "left") - 1] \
                == want_left
        if want_right is not None:
            assert prof.sign_signature[np.searchsorted(prof.knots, seg.b, "right") - 1] \
                == want_right


def test_periodic_decomposition():
    bump = build_profile(builtin("periodic_bump", 0.25))
    d = decompose_periodic(bump)
    assert [(p.x, p.position) for p in d.isolated] == [(0.25, "interior")]
    assert d.segments == () and d.circle
    # restricted-to-[0,1] reading would also report the wrap point
    assert any(p.position == "right_boundary"
               for p in decompose(bump).isolated)
    # m' of vee jumps by 0.4 at the wrap point, m of m(x) = x by 1
    with pytest.raises(NotPeriodic, match=r"^m\^\(1\) wrap mismatch 4.000e-01"):
        decompose_periodic(build_profile(builtin("vee", 0.5)))
    with pytest.raises(NotPeriodic, match=r"^m\^\(0\) wrap mismatch"):
        decompose_periodic(build_profile(builtin("monotone_increasing")))
    # example2 falls from 0 and rises into 1: its two boundary maxima on
    # [0, 1] are one interior maximum at 0 ~ 1 on the circle, a ramp
    # junction whose one-sided third derivatives differ: no k*
    d = decompose_periodic(build_profile(builtin("example2", 0.3, 0.7)))
    assert [(p.x, p.position, p.k_star) for p in d.isolated] == [(0.0, "interior", None)]
    assert [(s.a, s.b, s.cls) for s in d.segments] == [(0.3, 0.7, "M4")]


def test_periodic_rejects_boundary_plateau():
    # increasing, then constant through the right boundary: m(1) != m(0)
    spec = ProfileSpec(
        (0.0, 0.5, 1.0),
        ((0.0, 0.0, 0.0, 10.0 / 0.125, -15.0 / 0.0625, 6.0 / 0.03125), (1.0,)),
        ("increasing", "constant"))
    prof = build_profile(spec)
    with pytest.raises(NotPeriodic):
        decompose_periodic(prof)
    # m' = 3 (0.5 - x)^2 on [0, 0.5], then the plateau [0.5, 1] (M8 on
    # [0, 1]): m(1) = 0.125 != m(0)
    spec = ProfileSpec((0.0, 0.5, 1.0), ((0.0, 0.75, -1.5, 1.0), (0.125,)),
                       ("increasing", "constant"))
    with pytest.raises(NotPeriodic):
        decompose_periodic(build_profile(spec))
    # down, up, then a plateau that reaches x = 1 and wraps: M8 on [0, 1]
    # with a maximum at 0, one M3 plateau on the circle
    prof = build_profile(_ramp_chain((0.0, 0.3, 0.6, 1.0), (1.0, 0.5, 1.0, 1.0)))
    assert [(s.a, s.b, s.cls) for s in decompose(prof).segments] == [(0.6, 1.0, "M8")]
    d = decompose_periodic(prof)
    assert d.isolated == ()
    assert [(s.a, s.b, s.cls) for s in d.segments] == [(0.6, 1.0, "M3")]


def test_plateau_through_the_wrap_point():
    """A plateau on both sides of 0 ~ 1 is one M3 component [a, b + 1),
    and its rotation into (0, 1) has the same flanks and limit terms."""
    wrapped = build_profile(_ramp_chain((0.0, 0.2, 0.5, 0.8, 1.0),
                                        (1.0, 1.0, 0.5, 1.0, 1.0)))
    (seg,) = decompose_periodic(wrapped).segments
    assert (seg.a, seg.b, seg.flanks, seg.cls) == (0.8, 1.2, (1, -1), "M3")
    assert decompose_periodic(wrapped).isolated == ()
    # the same profile rotated by 0.2: the plateau is [0.6, 1.0]
    inside = build_profile(_ramp_chain((0.0, 0.3, 0.6, 1.0), (1.0, 0.5, 1.0, 1.0)))
    # c on the circle, with kinks at 0 and 0.1 under the plateau, and
    # rotated with m
    c = Potential.from_segments((0.0, 0.1, 0.5, 1.0), ((2.0, -5.0), (1.5, 0.5), (1.7, 0.6)))
    c_inside = Potential.from_segments((0.0, 0.3, 0.8, 0.9, 1.0),
                                       ((1.55, 0.5), (1.7, 0.6), (2.0, -5.0), (1.5, 0.5)))
    got = periodic_prediction(wrapped, c)
    want = periodic_prediction(inside, c_inside)
    assert [t.kind for t in got.terms] == [t.kind for t in want.terms] == ["NN"]
    assert got.terms[0].value == pytest.approx(want.terms[0].value, abs=1e-12)
    for betas in ((0.0, 0.0), (None, None)):      # NN and DD closures
        assert _sub_eigenvalue(c, 0.8, 1.2, betas)[0] == pytest.approx(
            _sub_eigenvalue(c_inside, 0.6, 1.0, betas)[0], abs=1e-12)


def test_lone_run_round_the_circle():
    """m = +-1e-13 x passes the wrap check, whose tolerance is 1e-12 for
    a profile this small: its one sign run is its own neighbour, and m
    is largest at 0 ~ 1 either way."""
    for slope, sign in ((1e-13, "increasing"), (-1e-13, "decreasing")):
        prof = build_profile(ProfileSpec((0.0, 1.0), ((0.0, slope),), (sign,)))
        d = decompose_periodic(prof)
        assert [(p.x, p.position) for p in d.isolated] == [(0.0, "interior")]
        assert d.segments == ()


def test_maximum_at_the_wrap_point():
    """m = p((x + 1/2) mod 1), p = u^2 (1 - u)^2: the maximum at 0 ~ 1
    takes its k* from the left values at 1 and the right values at 0,
    and the limit c(0) is what the periodic eigenvalue approaches."""
    prof = build_profile(wrap_bump_spec())
    (point,) = decompose_periodic(prof).isolated
    assert (point.x, point.position, point.k_star) == (0.0, "interior", 2)
    assert point.m_kstar == pytest.approx(-1.0, abs=1e-12)
    c = Potential.from_coeffs([2.0, -1.0, 1.0])
    assert periodic_prediction(prof, c).value == 2.0
    gaps = [abs(r.lam - 2.0) for r in sweep(prof, c, PeriodicBC(), [1e2, 1e3, 1e4])]
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-2
