import numpy as np
import pytest

from adveig.errors import BoundaryClassPresent, NotPeriodic, PreconditionViolated
from adveig.maxset import decompose, decompose_periodic
from adveig.predictor import predict_limit
from adveig.profile import Potential, ProfileSpec, RobinBC, build_profile, builtin
from conftest import reflect_spec, scale_spec

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
    assert d.segments == ()
    # restricted-to-[0,1] reading would also report the wrap point
    assert any(p.position == "right_boundary"
               for p in decompose(bump).isolated)
    with pytest.raises(PreconditionViolated):
        decompose_periodic(build_profile(builtin("vee", 0.5)))
    # m'(0) > 0 but no maximum on the circle: m is not 1-periodic
    with pytest.raises(NotPeriodic):
        decompose_periodic(build_profile(builtin("monotone_increasing")))


def test_periodic_rejects_boundary_plateau():
    # increasing, then constant through the right boundary; m'(0) > 0
    spec = ProfileSpec(
        (0.0, 0.5, 1.0),
        ((0.0, 0.0, 0.0, 10.0 / 0.125, -15.0 / 0.0625, 6.0 / 0.03125), (1.0,)),
        ("increasing", "constant"))
    prof = build_profile(spec)
    with pytest.raises((BoundaryClassPresent, PreconditionViolated)):
        decompose_periodic(prof)
    # m' = 3 (0.5 - x)^2 on [0, 0.5]: m'(0) > 0, so only the plateau [0.5, 1]
    # (M8) stands in the way
    spec = ProfileSpec((0.0, 0.5, 1.0), ((0.0, 0.75, -1.5, 1.0), (0.125,)),
                       ("increasing", "constant"))
    with pytest.raises(BoundaryClassPresent):
        decompose_periodic(build_profile(spec))
