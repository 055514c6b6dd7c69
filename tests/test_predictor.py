import math

import pytest

from adveig.errors import PreconditionViolated
from adveig.maxset import decompose
from adveig.predictor import (LimitTerm, _argmin_set, frak_L,
                              periodic_prediction, predict_limit)
from adveig.profile import (Potential, ProfileSpec, RobinBC, build_profile,
                            builtin, _ramp_coeffs)

C0 = Potential.zero()
CX = Potential.from_coeffs([0.0, 1.0])


def test_frak_L_analytic_values():
    # M4 plateau [0.2,0.4] -> DD = (pi/0.2)^2, M2 plateau [0.5,0.7] ->
    # ND = (pi/0.4)^2; the boundary M8 plateau is not part of frak_L
    prof = build_profile(builtin("t2", 0.1, 0.2, 0.4, 0.5, 0.7, 0.9))
    val = frak_L(decompose(prof), C0)
    assert val == pytest.approx((math.pi / 0.4) ** 2, rel=1e-4)
    assert val < (math.pi / 0.2) ** 2


def test_frak_L_empty_plateaus_is_infinite():
    prof = build_profile(builtin("monotone_increasing"))
    assert frak_L(decompose(prof), C0) == math.inf


def test_frak_L_shift_property():
    prof = build_profile(builtin("example3", 0.35, 0.6))
    base = frak_L(decompose(prof), C0)
    shifted = frak_L(decompose(prof), Potential.constant(2.5))
    assert shifted == pytest.approx(base + 2.5, abs=1e-9)


def test_predict_example1_neumann():
    prof = build_profile(builtin("example1", 0.15, 0.4, 0.6, 0.85))
    pred = predict_limit(decompose(prof), CX, RobinBC.neumann())
    assert pred.finite
    # min{c(0)=0, c(1)=1, lambda_NN(0.4, 0.6) >= 0.4} attained at c(0)
    assert pred.value == pytest.approx(0.0, abs=1e-9)
    kinds = sorted(t.kind for t in pred.terms)
    assert kinds == ["NN", "c_at_point", "c_at_point"]
    (i,) = pred.argmin
    assert pred.terms[i].source.position == "left_boundary"


def test_predict_unbounded_cases():
    vee = decompose(build_profile(builtin("vee", 0.5)))
    pred = predict_limit(vee, CX, RobinBC(1, 1, 1, 1))
    assert not pred.finite and pred.case == "i-1"
    assert pred.value is None
    mono = decompose(build_profile(builtin("monotone_increasing")))
    assert predict_limit(mono, C0, RobinBC(1, 0, 1, 1)).case == "i-3"


def test_predict_example3_mixed_bc_single_term():
    prof = build_profile(builtin("example3", 0.35, 0.6))
    pred = predict_limit(decompose(prof), C0, RobinBC(1, 0, 1, 1))
    assert [t.kind for t in pred.terms] == ["ND"]
    assert pred.value == pytest.approx((math.pi / 0.5) ** 2, rel=1e-4)


def test_boundary_c_terms_gated_by_ell():
    prof = build_profile(builtin("example1", 0.15, 0.4, 0.6, 0.85))
    d = decompose(prof)
    neumann_terms = {t.kind for t in predict_limit(d, CX, RobinBC.neumann()).terms}
    assert neumann_terms == {"c_at_point", "NN"}
    # ell1 > 0 drops c(0); ell2 > 0 drops c(1)
    pred = predict_limit(d, CX, RobinBC(1, 2, 1, 0))
    points = [t.source.position for t in pred.terms if t.kind == "c_at_point"]
    assert points == ["right_boundary"]


def test_boundary_plateaus_inherit_robin_pair():
    prof = build_profile(builtin("t2", 0.1, 0.25, 0.4, 0.55, 0.7, 0.85))
    d = decompose(prof)
    # under Neumann the M8 term is the NN eigenvalue; under a Dirichlet
    # global condition at 1 it becomes ND-like and strictly larger for c=0
    neu = predict_limit(d, C0, RobinBC.neumann())
    dir2 = predict_limit(d, C0, RobinBC(1, 0, 0, 1))
    t_neu = [t for t in neu.terms if t.kind == "NR"][0]
    t_dir = [t for t in dir2.terms if t.kind == "NR"][0]
    assert t_neu.value == pytest.approx(0.0, abs=1e-8)
    assert t_dir.value == pytest.approx((math.pi / 0.3) ** 2, rel=1e-4)


def test_shift_equivariance_and_scale_invariance():
    from conftest import scale_spec
    spec = builtin("t1", 0.15, 0.3, 0.45, 0.6, 0.8)
    prof = build_profile(spec)
    c = Potential.from_segments((0.0, 1.0), ((2.0, 0.5, 1.0),))
    base = predict_limit(decompose(prof), c, RobinBC.neumann())
    shifted_c = Potential.from_segments((0.0, 1.0), ((5.0, 0.5, 1.0),))
    shifted = predict_limit(decompose(prof), shifted_c, RobinBC.neumann())
    assert shifted.value == pytest.approx(base.value + 3.0, abs=1e-9)
    assert shifted.argmin == base.argmin
    scaled = predict_limit(decompose(build_profile(scale_spec(spec, 4.0, 0.0))),
                           c, RobinBC.neumann())
    assert scaled.value == pytest.approx(base.value, abs=1e-12)
    assert scaled.argmin == base.argmin


def test_prediction_never_below_min_c():
    c = Potential.from_segments((0.0, 1.0), ((0.7, -2.0, 2.0),))
    for name, params in (("t1", (0.15, 0.3, 0.45, 0.6, 0.8)),
                         ("t2", (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)),
                         ("example2", (0.3, 0.7))):
        prof = build_profile(builtin(name, *params))
        pred = predict_limit(decompose(prof), c, RobinBC.neumann())
        assert pred.value >= c.range[0] - 1e-6


def test_periodic_prediction_isolated_max():
    bump = build_profile(builtin("periodic_bump", 0.25))
    c = Potential.from_segments((0.0, 1.0), ((0.3 + 0.0625, -0.5, 1.0),))
    assert periodic_prediction(bump, c).value == pytest.approx(0.3, abs=1e-12)
    # c -> c + sigma shifts the prediction by exactly sigma
    c2 = Potential.from_segments((0.0, 1.0), ((1.3 + 0.0625, -0.5, 1.0),))
    assert periodic_prediction(bump, c2).value == pytest.approx(1.3, abs=1e-12)


def _periodic_plateau_profile():
    """1-periodic profile with m'(0) > 0 whose only maximum is an M3
    plateau: up-ramp, plateau, down-ramp, valley plateau, wrapped so the
    evaluation window starts mid-ascent."""
    up = _ramp_coeffs(0.0, 1.0, 0.15)
    down = _ramp_coeffs(1.0, -1.0, 0.3)
    # knots in x: shift the pattern by delta = 0.15/2 so m'(0) > 0
    return ProfileSpec(
        (0.0, 0.075, 0.275, 0.575, 0.925, 1.0),
        (_shift(up, 0.075), (1.0,), down, (0.0,), up),
        ("increasing", "constant", "decreasing", "constant", "increasing"))


def _shift(coeffs, s):
    out = [0.0] * len(coeffs)
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += c * math.comb(i, j) * s ** (i - j)
    return tuple(out)


def test_periodic_prediction_plateau():
    prof = build_profile(_periodic_plateau_profile())
    pred = periodic_prediction(prof, C0)
    kinds = [t.kind for t in pred.terms]
    assert "NN" in kinds and "DD" in kinds
    assert pred.value == pytest.approx(0.0, abs=1e-8)   # NN of zero potential
    (i,) = [j for j, t in enumerate(pred.terms) if t.kind == "NN"]
    assert i in pred.argmin


def test_periodic_preconditions():
    with pytest.raises(PreconditionViolated):
        periodic_prediction(build_profile(builtin("vee", 0.5)), C0)


def test_argmin_tie_uses_the_pair_error_estimates():
    """t2 under Robin data (ell1 = 1.58502) with c = 1.276807 - 0.073879 x
    + 0.072 x^2: c at the first maximum sits 2.5e-4 above the NR term,
    both nearly exact.  The wide error estimate of the DD term must not
    tie them."""
    terms = [LimitTerm("c_at_point", 1.270790298522928, None),
             LimitTerm("DD", 573.7364131981376, None, (0.19726, 0.328562),
                       1.6867662260059053e-3),
             LimitTerm("ND", 148.3581390199945, None, (0.660744, 0.790258),
                       1.1286729724702127e-4),
             LimitTerm("NR", 1.270540811202643, None, (0.861793, 1.0),
                       8.188936935956311e-10)]
    assert _argmin_set(terms) == ((3,), 1.270540811202643)
    # a term within its own error estimate of the minimum stays tied
    wide = LimitTerm("DD", 1.270540811202643 + 5e-3, None, (0.2, 0.3), 2e-3)
    assert _argmin_set(terms + [wide]) == ((3, 4), 1.270540811202643)


def test_argmin_on_the_robin_case():
    prof = build_profile(builtin("t2", 0.089193, 0.19726, 0.328562,
                                 0.660744, 0.790258, 0.861793))
    c = Potential.from_coeffs([1.276807, -0.073879, 0.072])
    pred = predict_limit(decompose(prof), c, RobinBC(1.0, 1.58502, 1.0, 0.0))
    assert [t.kind for t in pred.terms] == ["c_at_point", "DD", "ND", "NR"]
    assert pred.argmin == (3,)
