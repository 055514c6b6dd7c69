import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from adveig.assembly import (SubBC, assemble_periodic, assemble_subinterval,
                             assemble_transformed, eigenfunction_on_grid,
                             principal_eigen)
from adveig.errors import GridTooCoarse, NotPeriodic, ValidationError
from adveig.lab import DEFAULT_POLICY, mass_distribution
from adveig.profile import (Potential, RobinBC, TEMPLATES, build_profile,
                            builtin)

C0 = Potential.zero()
PI2 = math.pi ** 2
T1 = (0.15, 0.3, 0.45, 0.6, 0.8)


def sub_lambda(c, a, b, left, right, n):
    return principal_eigen(assemble_subinterval(c, a, b, left, right, n)).lam


def test_analytic_subinterval_eigenvalues():
    assert sub_lambda(C0, 0.0, 1.0, SubBC.D(), SubBC.D(), 2000) == \
        pytest.approx(PI2, rel=1e-5)
    assert sub_lambda(C0, 0.4, 0.6, SubBC.N(), SubBC.D(), 2000) == \
        pytest.approx((math.pi / 0.4) ** 2, rel=1e-5)
    assert abs(sub_lambda(C0, 0.25, 0.75, SubBC.N(), SubBC.N(), 2000)) <= 1e-10


def test_robin_with_zero_ell_is_neumann():
    c = Potential.from_coeffs([1.0, 0.5])
    lam_r = sub_lambda(c, 0.0, 0.7, SubBC.R(2.0, 0.0), SubBC.N(), 1200)
    lam_n = sub_lambda(c, 0.0, 0.7, SubBC.N(), SubBC.N(), 1200)
    assert lam_r == pytest.approx(lam_n, abs=1e-10)
    # R is only admissible where the global boundary sits
    with pytest.raises(ValidationError):
        sub_lambda(c, 0.2, 0.9, SubBC.R(2.0, 0.0), SubBC.N(), 1200)


def test_robin_closure_against_analytic_value():
    # -u'' = lam u on (0,1), u'(0) = beta u(0), u(1) = 0 with beta = 1:
    # lam = k^2 where k solves k cos k = -sin k + ... via tan k = -k/beta?
    # Use the transcendental root: u = sin(k(1-x)) satisfies u(1)=0 and
    # u'(0) = -k cos(k) = beta sin(k) => -k/tan(k) = beta.
    from scipy.optimize import brentq
    beta = 1.0
    k = brentq(lambda k: beta * math.sin(k) + k * math.cos(k), 1.6, 3.1)
    lam = sub_lambda(C0, 0.0, 1.0, SubBC.R(1.0, beta), SubBC.D(), 3000)
    assert lam == pytest.approx(k ** 2, rel=1e-5)


def test_transformed_neumann_zero_potential():
    # constant phi solves the original Neumann problem with lam = 0
    for name, params in (("t1", T1), ("vee", (0.5,)), ("power_max", (0.5, 2))):
        prof = build_profile(builtin(name, *params))
        op = assemble_transformed(prof, C0, RobinBC.neumann(), 1.0, 4000)
        assert abs(principal_eigen(op).lam) <= 1e-6


def test_transformed_dirichlet_linear_profile():
    # m(x) = x: lam = s^2 + pi^2 in the continuum; on the default grid
    # the relative error is (s h)^2 / 12
    prof = build_profile(builtin("monotone_increasing"))
    for s in (10.0, 100.0, 1e3, 1e4):
        op = assemble_transformed(prof, C0, RobinBC.dirichlet(), s,
                                  DEFAULT_POLICY.n_for(prof, s))
        assert principal_eigen(op).lam == pytest.approx(s * s + PI2, rel=1e-3), s


def test_potential_shift_moves_diagonal_exactly():
    prof = build_profile(builtin("vee", 0.5))
    op0 = assemble_transformed(prof, C0, RobinBC.neumann(), 5.0, 500)
    op5 = assemble_transformed(prof, Potential.constant(5.0),
                               RobinBC.neumann(), 5.0, 500)
    assert np.array_equal(op5.matrix.diag, op0.matrix.diag + 5.0)
    assert np.array_equal(op5.matrix.offdiag, op0.matrix.offdiag)


def test_gauge_invariance_m_plus_beta():
    from conftest import scale_spec
    spec = builtin("t2", 0.1, 0.25, 0.4, 0.55, 0.7, 0.85)
    prof = build_profile(spec)
    shifted = build_profile(scale_spec(spec, 1.0, 3.7))
    op1 = assemble_transformed(prof, C0, RobinBC.neumann(), 20.0, 800)
    op2 = assemble_transformed(shifted, C0, RobinBC.neumann(), 20.0, 800)
    assert np.array_equal(op1.matrix.diag, op2.matrix.diag)
    assert np.array_equal(op1.matrix.offdiag, op2.matrix.offdiag)


def test_grid_conventions():
    op = assemble_subinterval(C0, 0.0, 1.0, SubBC.D(), SubBC.D(), 100)
    assert op.grid["h"] == pytest.approx(1.0 / 101)
    assert op.matrix.n == 100
    op = assemble_subinterval(C0, 0.0, 1.0, SubBC.N(), SubBC.N(), 100)
    assert op.grid["h"] == pytest.approx(1.0 / 99)
    assert op.matrix.n == 100
    op = assemble_subinterval(C0, 0.0, 1.0, SubBC.N(), SubBC.D(), 100)
    assert op.grid["h"] == pytest.approx(1.0 / 100)


def test_grid_too_coarse_guard():
    prof = build_profile(builtin("monotone_increasing"))
    with pytest.raises(GridTooCoarse) as info:
        assemble_transformed(prof, C0, RobinBC.dirichlet(), 400.0, 20)
    assert info.value.drift == pytest.approx(400.0 / 21)


def test_zero_s_is_the_subinterval_operator():
    c = Potential.from_coeffs([1.0, -2.0, 3.0])
    prof = build_profile(builtin("t1", *T1))
    for bc, left, right in ((RobinBC.neumann(), SubBC.N(), SubBC.N()),
                            (RobinBC(0.0, 1.0, 2.0, 3.0), SubBC.D(), SubBC.R(2.0, 3.0))):
        full = assemble_transformed(prof, c, bc, 0.0, 500).matrix
        sub = assemble_subinterval(c, 0.0, 1.0, left, right, 500).matrix
        assert np.array_equal(full.diag, sub.diag)
        assert np.array_equal(full.offdiag, sub.offdiag)


@pytest.mark.parametrize("s", [1.0, 100.0, 1e4])
def test_constant_potential_is_the_eigenvalue(s):
    """lambda = c for constant c under Neumann and periodic data at every
    s, to the solver's certificate margin: the fitted stiffness has the
    exact discrete null vector e^{s m}."""
    c = Potential.constant(2.5)
    for name, params, bc in (("t1", T1, RobinBC.neumann()),
                             ("vee", (0.5,), RobinBC.neumann()),
                             ("periodic_bump", (0.25,), None)):
        prof = build_profile(builtin(name, *params))
        n = DEFAULT_POLICY.n_for(prof, s)
        op = (assemble_periodic(prof, c, s, n) if bc is None
              else assemble_transformed(prof, c, bc, s, n))
        margin = 64 * np.finfo(float).eps * op.matrix.inf_norm()
        assert abs(principal_eigen(op).lam - 2.5) <= margin, (name, s)


def test_large_s_eigenvalue_is_a_converged_rayleigh_quotient():
    """t1 at s = 1e4 on the default grid (n = 1e6) has a certificate
    margin of 0.063, so a closed bracket alone is not an answer; the
    Rayleigh quotient must match LAPACK's stebz/stein value 2.00019763."""
    prof = build_profile(builtin("t1", *T1))
    c = Potential.from_coeffs([2.9, -12.0, 40.0])
    s = 1e4
    op = assemble_transformed(prof, c, RobinBC.neumann(), s, DEFAULT_POLICY.n_for(prof, s))
    assert abs(principal_eigen(op).lam - 2.00019763) <= 1e-5


def test_eigenvalue_independent_of_knot_positions():
    # n = 29999..30003 moves every C^2 ramp junction across a cell
    prof = build_profile(builtin("t1", *T1))
    c = Potential.from_coeffs([2.9, -12.0, 40.0])
    lams = [principal_eigen(assemble_transformed(prof, c, RobinBC.neumann(),
                                                 100.0, n)).lam
            for n in range(29999, 30004)]
    assert max(lams) - min(lams) <= 1e-6
    assert lams[0] == pytest.approx(2.004248, abs=1e-6)


def test_periodic_assembly():
    bump = build_profile(builtin("periodic_bump", 0.25))
    assert abs(principal_eigen(assemble_periodic(bump, C0, 7.0, 4000)).lam) <= 1e-6
    assert principal_eigen(
        assemble_periodic(bump, Potential.constant(3.0), 0.0, 2000)).lam == \
        pytest.approx(3.0, abs=1e-9)
    vee = build_profile(builtin("vee", 0.5))
    with pytest.raises(NotPeriodic):
        assemble_periodic(vee, C0, 1.0, 500)


def test_periodic_matches_dense_oracle_at_s0():
    bump = build_profile(builtin("periodic_bump", 0.3))
    c = Potential.from_segments((0.0, 1.0), ((0.5, 2.0, -2.0),))  # c(0)=c(1)
    op = assemble_periodic(bump, c, 0.0, 64)
    lam = principal_eigen(op).lam
    dense = float(np.linalg.eigvalsh(op.matrix.dense())[0])
    assert lam == pytest.approx(dense, abs=1e-9 * max(1.0, abs(dense)))


def test_principal_eigen_normalization_and_positivity():
    prof = build_profile(builtin("t1", 0.15, 0.3, 0.45, 0.6, 0.8))
    op = assemble_transformed(prof, C0, RobinBC.neumann(), 0.0, 1000)
    pair = principal_eigen(op)
    assert pair.lam == pytest.approx(0.0, abs=1e-9)
    assert pair.vector == pytest.approx(np.ones(op.matrix.n), abs=1e-6)
    assert np.all(pair.vector > 0)
    x, w = eigenfunction_on_grid(op, pair)
    assert np.trapezoid(w ** 2, x) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_cluster_gives_one_positive_vector():
    """example1 with c = 0 under Neumann data has three eigenvalues within
    1e-8 of each other.  The principal vector is still positive and the
    same on every call, and its mass near the middle plateau moves
    smoothly along the ladder instead of jumping between cluster members."""
    prof = build_profile(builtin("example1", 0.15, 0.4, 0.6, 0.85))
    masses = []
    for s in (100.0, 200.0, 400.0):
        op = assemble_transformed(prof, C0, RobinBC.neumann(), s,
                                  DEFAULT_POLICY.n_for(prof, s))
        cluster = eigh_tridiagonal(op.matrix.diag, op.matrix.offdiag,
                                   select="i", select_range=(0, 2),
                                   eigvals_only=True)
        assert cluster[2] - cluster[0] <= 1e-8
        pair = principal_eigen(op)
        assert np.all(pair.vector > 0)
        assert np.array_equal(principal_eigen(op).vector, pair.vector)
        x, w = eigenfunction_on_grid(op, pair)
        masses.append(mass_distribution(x, w, [(0.45, 0.55)])[0])
    assert all(abs(b - a) < 0.1 for a, b in zip(masses, masses[1:]))


def test_dirichlet_eigenfunction_matches_sine():
    op = assemble_subinterval(C0, 0.0, 1.0, SubBC.D(), SubBC.D(), 2000)
    pair = principal_eigen(op)
    x, w = eigenfunction_on_grid(op, pair)
    assert np.max(np.abs(w - math.sqrt(2.0) * np.sin(np.pi * x))) <= 1e-3
    assert np.all(pair.vector > 0)


def test_second_order_convergence():
    errs = [abs(sub_lambda(C0, 0.0, 1.0, SubBC.D(), SubBC.D(), n) - PI2)
            for n in (250, 500, 1000, 2000)]
    for e1, e2 in zip(errs, errs[1:]):
        assert 3.5 <= e1 / e2 <= 4.5


def test_bc_monotonicity_chain():
    c = Potential.from_segments((0.0, 1.0), ((0.3, -1.0, 4.0),))
    for a, b in ((0.0, 1.0), (0.3, 0.55)):
        nn = sub_lambda(c, a, b, SubBC.N(), SubBC.N(), 1000)
        nd = sub_lambda(c, a, b, SubBC.N(), SubBC.D(), 1000)
        dd = sub_lambda(c, a, b, SubBC.D(), SubBC.D(), 1000)
        assert nn <= nd + 1e-12
        assert nd <= dd + 1e-12


def test_neumann_paper_bound_across_templates():
    """min c <= lambda^N(s) <= max c over the s-ladder on the default
    grid, to the solver's certificate margin: the fitted stiffness rows
    sum to zero, so the bound holds discretely, boundary layers at
    m'(boundary) != 0 included."""
    c = Potential.from_segments((0.0, 1.0), ((1.0, 1.0, -1.0),))
    c_lo, c_hi = c.range
    params = {"example1": (0.15, 0.4, 0.6, 0.85), "example2": (0.3, 0.7),
              "example3": (0.35, 0.6), "t1": (0.15, 0.3, 0.45, 0.6, 0.8),
              "t2": (0.1, 0.25, 0.4, 0.55, 0.7, 0.85),
              "monotone_increasing": (), "vee": (0.5,),
              "power_max": (0.5, 2), "power_well": (0.5, 2),
              "periodic_bump": (0.25,)}
    assert set(params) == set(TEMPLATES)
    for name, p in params.items():
        prof = build_profile(builtin(name, *p))
        for s in (25.0, 50.0, 100.0, 200.0):
            op = assemble_transformed(prof, c, RobinBC.neumann(), s,
                                      DEFAULT_POLICY.n_for(prof, s))
            margin = 64 * np.finfo(float).eps * op.matrix.inf_norm()
            lam = principal_eigen(op).lam
            assert c_lo - margin <= lam <= c_hi + margin, (name, s, lam)


def test_validation_errors():
    with pytest.raises(ValidationError):
        assemble_subinterval(C0, 0.5, 0.2, SubBC.N(), SubBC.N(), 100)
    prof = build_profile(builtin("vee", 0.5))
    with pytest.raises(ValidationError):
        assemble_transformed(prof, C0, RobinBC.neumann(), -1.0, 100)
    with pytest.raises(ValidationError):
        assemble_transformed(prof, C0, RobinBC.neumann(), 1.0, 8)
    with pytest.raises(ValidationError):
        SubBC.R(0.0, 0.0)
