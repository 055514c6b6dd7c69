import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import adveig
from adveig import predictor
from adveig.errors import AdveigError, NoConvergence, NotPeriodic, PreconditionViolated
from adveig.maxset import decompose, decompose_periodic
from adveig.predictor import (LimitTerm, _argmin_set, _gll_eigenvalue,
                              _sub_eigenvalue, periodic_prediction, predict_limit)
from adveig.profile import (PeriodicBC, Potential, ProfileSpec, RobinBC,
                            TEMPLATES, build_profile, builtin, _ramp_chain,
                            _ramp_coeffs)
from conftest import TEMPLATE_PARAMS, reflect_spec

C0 = Potential.zero()
CX = Potential.from_coeffs([0.0, 1.0])


def _inner_plateau_min(prof, c):
    """min over predict_limit's inner-plateau (M2..M5) terms; +inf when
    there is none."""
    pred = predict_limit(decompose(prof), c, RobinBC.neumann())
    return min((t.value for t in pred.terms if t.kind in ("ND", "NN", "DD", "DN")),
               default=math.inf)


def test_inner_plateau_terms_analytic_values():
    # M4 plateau [0.2,0.4] -> DD = (pi/0.2)^2, M2 plateau [0.5,0.7] ->
    # ND = (pi/0.4)^2; the boundary M8 plateau is not an inner plateau
    prof = build_profile(builtin("t2", 0.1, 0.2, 0.4, 0.5, 0.7, 0.9))
    val = _inner_plateau_min(prof, C0)
    assert val == pytest.approx((math.pi / 0.4) ** 2, rel=1e-4)
    assert val < (math.pi / 0.2) ** 2


def test_no_inner_plateau_gives_no_plateau_term():
    prof = build_profile(builtin("monotone_increasing"))
    assert _inner_plateau_min(prof, C0) == math.inf


def test_inner_plateau_terms_shift_property():
    prof = build_profile(builtin("example3", 0.35, 0.6))
    base = _inner_plateau_min(prof, C0)
    shifted = _inner_plateau_min(prof, Potential.constant(2.5))
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
        assert pred.value >= 0.2 - 1e-6      # min c = c(1/2)


def test_periodic_prediction_isolated_max():
    # c = 0.3 + (circle distance to 0.25)^2, so c(0) = c(1)
    bump = build_profile(builtin("periodic_bump", 0.25))
    c = Potential.from_segments((0.0, 0.75, 1.0),
                                ((0.3625, -0.5, 1.0), (0.55, -1.0, 1.0)))
    assert periodic_prediction(bump, c).value == pytest.approx(0.3, abs=1e-12)
    # c -> c + sigma shifts the prediction by exactly sigma
    c2 = Potential.from_segments((0.0, 0.75, 1.0),
                                 ((1.3625, -0.5, 1.0), (1.55, -1.0, 1.0)))
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


def test_periodic_prediction_is_predict_limit_on_the_circle():
    bump = build_profile(builtin("periodic_bump", 0.3, 2.0))
    c = Potential.from_segments((0.0, 1.0), ((0.5, 2.0, -2.0),))  # c(0)=c(1)
    assert periodic_prediction(bump, c) == predict_limit(
        decompose_periodic(bump), c, PeriodicBC())


# every builtin template with the boundary maxima of its local-maximum
# set, or None when that set also holds an interior point or a plateau
TEMPLATE_MAXIMA = {
    "example1": ((0.15, 0.4, 0.6, 0.85), None),
    "example2": ((0.3, 0.7), None),
    "example3": ((0.35, 0.6), None),
    "t1": ((0.15, 0.3, 0.45, 0.6, 0.8), None),
    "t2": ((0.1, 0.25, 0.4, 0.55, 0.7, 0.85), None),
    "monotone_increasing": ((), {1.0}),
    "vee": ((0.5,), {0.0, 1.0}),
    "power_max": ((0.5, 2), None),
    "power_well": ((0.5, 2), {0.0, 1.0}),
    "periodic_bump": ((0.25,), None),
}
FIVE_BCS = (RobinBC.neumann(), RobinBC.dirichlet(), RobinBC(1, 1, 1, 0),
            RobinBC(1, 0, 1, 1), RobinBC(1, 1, 1, 1))


def _paper_case(maxima, bc):
    """(i-1) both ells > 0 and M subset {0,1}; (i-2) ell1 > 0 = ell2 and
    M = {0}; (i-3) ell1 = 0 < ell2 and M = {1}; None when bounded."""
    if maxima is None:
        return None
    if bc.ell1 > 0 and bc.ell2 > 0:
        return "i-1"
    if bc.ell1 > 0 and maxima == {0.0}:
        return "i-2"
    if bc.ell2 > 0 and maxima == {1.0}:
        return "i-3"
    return None


@pytest.mark.parametrize("bc", FIVE_BCS, ids=lambda bc: "robin:%g,%g,%g,%g" % (
    bc.hbar1, bc.ell1, bc.hbar2, bc.ell2))
def test_prediction_and_trichotomy_agree(bc):
    assert set(TEMPLATE_MAXIMA) == set(TEMPLATES)
    c = Potential.from_coeffs([0.5, -1.0, 2.0])
    for name, (params, maxima) in TEMPLATE_MAXIMA.items():
        decomp = decompose(build_profile(builtin(name, *params)))
        pred = predict_limit(decomp, c, bc)
        case = _paper_case(maxima, bc)
        assert (pred.finite, pred.case) == (case is None, case), name
        assert bool(pred.terms) == pred.finite, name
        if pred.finite:
            assert pred.argmin, name


# the limit for c = 1 - x/2 under PAIRING_BCS: decompose for the four
# Robin data, decompose_periodic for PeriodicBC (None where it refuses the
# profile); a string is the case of an unbounded verdict
# each plateau's closures, left to right: N where m falls away from the
# plateau, D where it rises away, R at x = 0 or 1.  With their mirror
# images these profiles hold all eight plateau classes M2..M9.
FLANK_SPECS = {name: (builtin(name, *params), kinds) for name, params, kinds in (
    ("example1", TEMPLATE_PARAMS["example1"], ["NN"]),              # M3
    ("example2", TEMPLATE_PARAMS["example2"], ["DD"]),              # M4
    ("example3", TEMPLATE_PARAMS["example3"], ["ND"]),              # M2 (M5)
    ("t1", TEMPLATE_PARAMS["t1"], ["NN"]),                          # M3
    ("t2", TEMPLATE_PARAMS["t2"], ["DD", "ND", "NR"]),              # M4 M2 M8 (M7)
    ("monotone_increasing", (), []), ("vee", (0.5,), []),
    ("power_max", (0.5, 2), []), ("power_well", (0.5, 2), []))}
FLANK_SPECS["m6"] = (_ramp_chain((0.0, 0.3, 0.6, 1.0), (0.2, 0.2, 0.5, 0.1)),
                     ["RD"])                                        # M6 (M9)
FLANK_BCS = (RobinBC.neumann(), RobinBC.dirichlet(), RobinBC(1.0, 0.7, 0.5, 1.5),
             RobinBC(0.0, 1.0, 1.0, 0.0), RobinBC(2.0, 0.0, 1.0, 3.0))


@pytest.mark.parametrize("bc", FLANK_BCS, ids=lambda bc: ",".join(
    f"{v:g}" for v in (bc.hbar1, bc.ell1, bc.hbar2, bc.ell2)))
@pytest.mark.parametrize("name", list(FLANK_SPECS))
def test_flank_rule_commutes_with_reflection(name, bc):
    """m(1 - x) with c(1 - x) and mirrored boundary data has the same
    limit, and each plateau's closures come out reversed (ND <-> DN,
    RD <-> DR, RN <-> NR).  Each plateau term is the eigenvalue under
    the closures its kind names."""
    assert set(TEMPLATE_PARAMS) - set(FLANK_SPECS) == {"periodic_bump"}
    spec, kinds = FLANK_SPECS[name]
    c = Potential.from_coeffs([0.3, 1.0])
    pred = predict_limit(decompose(build_profile(spec)), c, bc)
    plateaus = [t for t in pred.terms if t.interval is not None]
    assert [t.kind for t in plateaus] == kinds
    for t in plateaus:
        assert t.value == _sub_eigenvalue(c, *t.interval, _betas(t.kind, bc))[0]
    mirror = predict_limit(decompose(build_profile(reflect_spec(spec))),
                           Potential.from_coeffs([1.3, -1.0]),
                           RobinBC(bc.hbar2, bc.ell2, bc.hbar1, bc.ell1))
    assert [t.kind for t in mirror.terms if t.interval is not None] == \
        [k[::-1] for k in reversed(kinds)]
    assert pred.finite == mirror.finite
    if pred.finite:
        assert mirror.value == pytest.approx(pred.value, rel=1e-9, abs=0.0)
    else:
        assert mirror.case == {"i-1": "i-1", "i-2": "i-3", "i-3": "i-2"}[pred.case]


PAIRING_BCS = (RobinBC.neumann(), RobinBC.dirichlet(), RobinBC(1, 1, 1, 0),
               RobinBC(1, 0, 1, 1), PeriodicBC())
PAIRED_LIMITS = {
    "example1": (0.5, 0.749996666667, 0.5, 0.749996666667, None),
    "example2": (0.5, 62.4350204843, 0.5, 1.0, None),
    "example3": (0.5, 40.2662458554, 0.5, 40.2662458554, None),
    "t1": (0.5, 0.737498945313, 0.5, 0.737498945313, None),
    "t2": (0.537498945313, 0.95, 0.537498945313, 0.95, None),
    "monotone_increasing": (0.5, "i-1", 0.5, "i-3", None),
    "vee": (0.5, "i-1", 0.5, 1.0, None),
    "power_max": (0.75, 0.75, 0.75, 0.75, 0.75),
    "power_well": (0.5, "i-1", 0.5, 1.0, None),
    "periodic_bump": (0.5, 0.875, 0.5, 0.875, 0.875),
    # on the circle the maximum at 1 is gone, so the Neumann c(1) = 0.5
    # term exists only for the decomposition on [0, 1]
    "periodic_bump:0.3": (0.5, 0.85, 0.5, 0.85, 0.85),
}


@pytest.mark.parametrize("template", list(PAIRED_LIMITS))
def test_decomposition_pairs_with_its_boundary_type(template, monkeypatch):
    """A decomposition and a boundary condition of the same domain give
    the limit; one of the other domain is PreconditionViolated before
    any plateau solve, never an AttributeError or a value."""
    assert set(TEMPLATE_PARAMS) <= set(PAIRED_LIMITS)
    name, _, params = template.partition(":")
    prof = build_profile(builtin(name, *(map(float, params.split(",")) if params
                                        else TEMPLATE_PARAMS[name])))
    c = Potential.from_coeffs([1.0, -0.5])
    line = decompose(prof)
    try:
        circle = decompose_periodic(prof)
    except AdveigError:
        circle = None
    assert (circle is None) == (PAIRED_LIMITS[template][-1] is None)

    def unreachable(*args):
        raise AssertionError("a plateau was solved")

    for bc, expected in zip(PAIRING_BCS, PAIRED_LIMITS[template]):
        matched, other = (circle, line) if isinstance(bc, PeriodicBC) else (line, circle)
        if matched is not None:
            pred = predict_limit(matched, c, bc)
            if isinstance(expected, str):
                assert (pred.finite, pred.case) == (False, expected), bc
            else:
                assert pred.finite and pred.value == pytest.approx(expected, rel=1e-11), bc
        if other is not None:
            with monkeypatch.context() as patch:
                patch.setattr(predictor, "_sub_eigenvalue", unreachable)
                with pytest.raises(PreconditionViolated):
                    predict_limit(other, c, bc)


def test_periodic_preconditions():
    with pytest.raises(PreconditionViolated):
        periodic_prediction(build_profile(builtin("vee", 0.5)), C0)
    # m'(0) = 1 but m'(1) = -1: m does not wrap
    kink = ProfileSpec((0.0, 0.5, 1.0), ((0.0, 1.0, -1.0), (0.25, 0.0, -1.0)),
                       ("increasing", "decreasing"))
    with pytest.raises(NotPeriodic):
        periodic_prediction(build_profile(kink), Potential.from_coeffs([0.0, 1.0]))
    # c = x does not wrap
    with pytest.raises(NotPeriodic):
        periodic_prediction(build_profile(builtin("periodic_bump", 0.25)),
                            Potential.from_coeffs([0.0, 1.0]))


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


def test_constant_potential_ties_every_term_exactly():
    """Under Neumann data with constant c every term of t1 is c: the two
    c(x) point terms and the NN plateau term tie exactly."""
    prof = build_profile(builtin("t1", 0.15, 0.3, 0.45, 0.6, 0.8))
    pred = predict_limit(decompose(prof), Potential.constant(-0.130529),
                         RobinBC.neumann())
    (nn,) = [t for t in pred.terms if t.kind == "NN"]
    assert nn.value == pytest.approx(-0.130529, rel=1e-14, abs=0.0)
    assert pred.argmin == (0, 1, 2)


def test_constant_potential_under_neumann_ends_is_c_to_rounding():
    """A plateau term with constant c and Neumann closures is c up to
    rounding: the energy sum of the rounded, nearly constant eigenvector
    is not 0.  That noise is about 1e-25 / w^2 on the builtin plateaus
    (w the plateau width; at most 1e-24 / w^2 over random NN plateaus),
    so it shows only where c is 0 or tiny, and a c of order 1 comes out
    exactly."""
    cases = list(TEMPLATE_PARAMS.items()) + [
        ("t1", (0.1, 0.2, 0.4, 0.65, 0.85)), ("t2", (0.1, 0.25, 0.3, 0.45, 0.6, 0.8)),
        ("example1", (0.2, 0.35, 0.55, 0.8))]
    kinds = set()
    for name, params in cases:
        decomp = decompose(build_profile(builtin(name, *params)))
        for value in (0.0, 1e-8, 1.25, -3.0):
            pred = predict_limit(decomp, Potential.constant(value), RobinBC.neumann())
            for term in pred.terms:
                if term.kind == "c_at_point" or "D" in term.kind:
                    continue
                kinds.add(term.kind)
                a, b = term.interval
                assert abs(term.value - value) <= 1e-23 / (b - a) ** 2, (name, term)
                if abs(value) >= 1.0:
                    assert term.value == value, (name, term)
    assert kinds == {"NN", "NR"}


def _rd_root(beta, width):
    """k of phi = sin(k (L - x)) under phi'(0) = beta phi(0): tan(kL) = -k/beta."""
    return brentq(lambda k: math.tan(k * width) + k / beta,
                  (math.pi / 2 + 1e-9) / width, (math.pi - 1e-9) / width)


def _rn_root(beta, width):
    """k of phi = cos(k (L - x)) under phi'(0) = beta phi(0): k tan(kL) = beta."""
    return brentq(lambda k: k * math.tan(k * width) - beta,
                  1e-9, (math.pi / 2 - 1e-9) / width)


# case -> (c, a, b, Robin data, exact eigenvalue of -phi'' + c phi on
# [a, b]); the first two letters of the case are the closures.  NR and DR
# mirror RN and RD, so they check the hbar2/ell2 side of the Robin rule.
CLOSED_FORMS = {
    "DD": (C0, 0.3, 0.35, None, (math.pi / (0.35 - 0.3)) ** 2),
    "ND": (C0, 0.4, 0.6, None, (math.pi / (2 * (0.6 - 0.4))) ** 2),
    "NN": (Potential.constant(2.75), 0.45, 0.6, None, 2.75),
    "RD": (C0, 0.0, 0.3, RobinBC(1.0, 2.0, 0.0, 1.0), _rd_root(2.0, 0.3) ** 2),
    "RN": (Potential.constant(-1.5), 0.0, 0.3, RobinBC(0.5, 1.5, 1.0, 0.0),
           _rn_root(3.0, 0.3) ** 2 - 1.5),
    "NR": (Potential.constant(-1.5), 0.7, 1.0, RobinBC(1.0, 0.0, 0.5, 1.5),
           _rn_root(3.0, 1.0 - 0.7) ** 2 - 1.5),
    "DR": (C0, 0.7, 1.0, RobinBC(0.0, 1.0, 1.0, 2.0), _rd_root(2.0, 1.0 - 0.7) ** 2),
    # a knot of c one rounding step inside the plateau starts no element
    "DD-knot-at-end": (Potential.from_segments((0.0, 0.1 + 0.2, 1.0), ((2.0,), (2.0,))),
                       0.3, 0.35, None, (math.pi / (0.35 - 0.3)) ** 2 + 2.0),
}


def _betas(kinds, bc):
    """beta or None at each end for closure letters: N is 0, D is None
    and R is bc's closure at that end."""
    return tuple(bc.betas()[end] if kind == "R" else {"N": 0.0, "D": None}[kind]
                 for end, kind in enumerate(kinds))


@pytest.mark.parametrize("case", list(CLOSED_FORMS))
def test_sub_eigenvalue_closed_forms(case):
    c, a, b, bc, exact = CLOSED_FORMS[case]
    value, estimate = _sub_eigenvalue(c, a, b, _betas(case[:2], bc))
    assert value == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert estimate <= 1e-10


def test_sub_eigenvalue_two_pieces_of_c():
    """A knot of c inside [a, b] splits it into two elements; the value
    matches a degree-24 solve on the same elements."""
    c = Potential.from_segments((0.0, 0.5, 1.0), ((1.0, 2.0, -3.0),
                                                  (1.25, -1.0, 5.0)))
    value, estimate = _sub_eigenvalue(c, 0.2, 0.9, (None, 0.0))
    reference = _gll_eigenvalue(c, 0.2, 0.9, (None, 0.0), 24)
    assert value == pytest.approx(reference, rel=1e-12, abs=0.0)
    assert estimate <= 1e-10


@pytest.mark.parametrize("kinds", ["NN", "DN", "RD"])
def test_sub_eigenvalue_error_estimate_covers_a_steep_potential(kinds):
    """c = 1e4 x^2 confines the eigenfunction to a 0.1-wide layer that one
    degree-16 element does not resolve; the error estimate says so."""
    c = Potential.from_coeffs([0.0, 0.0, 1e4])
    betas = _betas(kinds, RobinBC(1.0, 2.0, 0.0, 1.0))
    value, estimate = _sub_eigenvalue(c, 0.0, 1.0, betas)
    reference = _gll_eigenvalue(c, 0.0, 1.0, betas, 24)
    assert abs(value - reference) <= 4.0 * estimate


def test_gll_eigensolve_failure_is_no_convergence(monkeypatch):
    """A LinAlgError from the dense GLL eigensolve reaches the caller as
    the library's NoConvergence, not as a numpy error."""
    def failing_eigh(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(predictor.np.linalg, "eigh", failing_eigh)
    decomp = decompose(build_profile(builtin("t1", 0.15, 0.3, 0.45, 0.6, 0.8)))
    with pytest.raises(NoConvergence, match="eigh"):
        predict_limit(decomp, C0, RobinBC.neumann())


@pytest.mark.parametrize("module", ["predictor", "cli"])
def test_module_does_not_import_assembly(module):
    """Boundary data become closures only through RobinBC.betas, and the
    CLI solves through lab: neither module reaches into assembly."""
    tree = ast.parse((Path(adveig.__file__).parent / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            if node.module in (None, "adveig"):
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert "assembly" not in imported
