import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adveig import lab
from adveig.assembly import (SubBC, assemble_subinterval, assemble_transformed,
                             principal_eigen)
from adveig.errors import (InsufficientData, IntervalOutOfDomain,
                           KStarUndefined, NonPositiveLambda, NoOverlap,
                           NumericalError, ValidationError)
from adveig.lab import (GridPolicy, LimitProfile, RescaledProfile, SweepRecord,
                        component_mass_radius, estimate_limit, growth_exponent,
                        limit_ode_ground_state, mass_distribution,
                        profile_distance, rescaled_profile,
                        segment_restriction_distance, sweep)
from adveig.maxset import decompose
from adveig.profile import (TEMPLATES, Potential, RobinBC, build_profile,
                            builtin)
from conftest import TEMPLATE_PARAMS

C0 = Potential.zero()
CX = Potential.from_coeffs([0.0, 1.0])


def rec(s, lam):
    return SweepRecord(s=float(s), n=100, lam=float(lam))


# -- grid policy ---------------------------------------------------------

FLAT_ENDED = {"example1", "example2", "example3", "t1", "t2"}


def test_grid_policy_is_linear_in_s_where_m_prime_is_nonzero_at_an_end():
    assert set(TEMPLATE_PARAMS) == set(TEMPLATES)
    for name in set(TEMPLATES) - FLAT_ENDED:
        prof = build_profile(builtin(name, *TEMPLATE_PARAMS[name]))
        ends = (prof.knot_values(0)[1], prof.knot_values(len(prof.knots) - 1)[1])
        assert max(abs(v) for v in ends) > 0.1, name
        for policy in (GridPolicy(), GridPolicy(multiplier=48.0)):
            for s in (1.0, 25.0, 400.0, 1e4):
                old = int(max(policy.floor, math.ceil(
                    policy.multiplier * max(s, 1.0) * prof.max_abs_deriv)))
                assert policy.n_for(prof, s) == old, (name, s)


def test_grid_policy_follows_the_sqrt_layer_where_m_is_flat_at_both_ends():
    for name in FLAT_ENDED:
        prof = build_profile(builtin(name, *TEMPLATE_PARAMS[name]))
        for mult in (16.0, 48.0):
            for s in (400.0, 1e4):
                n = math.ceil(8.0 * mult * math.sqrt(s * prof.max_abs_deriv))
                assert GridPolicy(multiplier=mult).n_for(prof, s) == n, (name, s)
        assert GridPolicy().n_for(prof, 1.0) == 2000
    for name in ("t1", "t2"):
        prof = build_profile(builtin(name, *TEMPLATE_PARAMS[name]))
        assert GridPolicy().n_for(prof, 1e4) <= 40_000


def test_grid_policy_refuses_a_floor_past_the_cap():
    """The floor counts toward the cap: n_for never returns a grid that
    assembly would refuse as too large."""
    from adveig.assembly import MAX_NODES
    prof = build_profile(builtin("vee", 0.5))
    assert GridPolicy(floor=MAX_NODES).n_for(prof, 10.0) == MAX_NODES
    with pytest.raises(ValidationError, match="grid too large"):
        GridPolicy(floor=MAX_NODES + 1).n_for(prof, 10.0)


def test_t1_at_large_s_on_the_default_grid():
    """The default grid (n = 32001) gives t1's lambda at s = 1e4 to 1e-7;
    the n = 4000, 8000 and 16000 values lie within 4e-9 of the pin."""
    prof = build_profile(builtin("t1", *TEMPLATE_PARAMS["t1"]))
    c = Potential.from_coeffs([2.9, -12.0, 40.0])
    pin = 2.000173983
    [record] = sweep(prof, c, RobinBC.neumann(), [1e4])
    assert abs(record.lam - pin) <= 1e-7
    for n in (4000, 8000, 16000):
        op = assemble_transformed(prof, c, RobinBC.neumann(), 1e4, n)
        assert abs(principal_eigen(op).lam - pin) <= 4e-9, n


# -- sweep ---------------------------------------------------------------

def test_sweep_example1_approaches_prediction():
    prof = build_profile(builtin("example1", 0.15, 0.4, 0.6, 0.85))
    records = sweep(prof, CX, RobinBC.neumann(), [25.0, 50.0, 100.0, 200.0],
                    mass_intervals=[(0.0, 0.05), (0.4, 0.6)])
    lams = [r.lam for r in records]
    assert all(r.error is None for r in records)
    assert lams[-1] < lams[0]
    assert lams[-1] <= 0.1            # limit is c(0) = 0
    # concentration moves mass onto the argmin component {0}
    assert records[-1].mass[0][1] >= 0.95


def test_sweep_vee_dirichlet_strictly_increasing():
    prof = build_profile(builtin("vee", 0.5))
    records = sweep(prof, C0, RobinBC.dirichlet(), [25.0, 50.0, 100.0, 200.0])
    lams = [r.lam for r in records]
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_sweep_empty_mass_intervals_and_error_markers():
    prof = build_profile(builtin("vee", 0.5))
    records = sweep(prof, C0, RobinBC.neumann(), [10.0])
    assert records[0].mass == ()
    # an unresolvable grid is recorded, not raised
    records = sweep(prof, C0, RobinBC.neumann(), [10.0, 1e7],
                    grid_policy=GridPolicy(multiplier=0.0, floor=2000))
    assert records[0].error is None
    assert records[1].error is not None and "GridTooCoarse" in records[1].error


def test_mass_drift_raises_typed_error(monkeypatch):
    """The total-mass check is a raised NumericalError (kept under -O),
    and sweep records it as an error row."""
    prof = build_profile(builtin("vee", 0.5))
    real = lab.eigenfunction_on_grid

    def doubled(op, pair):
        x, w = real(op, pair)
        return x, 2.0 * w

    monkeypatch.setattr(lab, "eigenfunction_on_grid", doubled)
    with pytest.raises(NumericalError, match="drifted"):
        lab._solve_one(prof, C0, RobinBC.neumann(), 10.0, 2000, ((0.0, 0.5),))
    records = sweep(prof, C0, RobinBC.neumann(), [10.0], mass_intervals=[(0.0, 0.5)])
    assert records[0].lam is None and "NumericalError" in records[0].error


def test_sweep_refuses_mass_intervals_outside_the_domain_before_solving(monkeypatch):
    prof = build_profile(builtin("vee", 0.5))

    def unreachable(*args):
        raise AssertionError("a ladder entry was solved")

    monkeypatch.setattr(lab, "_solve_one", unreachable)
    for bad in ((0.9, 1.5), (0.6, 0.4), (-0.1, 0.2), (0.2, float("nan"))):
        with pytest.raises(IntervalOutOfDomain, match="0 <= lo <= hi <= 1"):
            sweep(prof, C0, RobinBC.neumann(), [10.0, 20.0],
                  mass_intervals=[(0.0, 0.5), bad])


def test_sweep_propagates_programming_errors(monkeypatch):
    prof = build_profile(builtin("vee", 0.5))

    def broken(*args):
        raise TypeError("not a library failure")

    monkeypatch.setattr(lab, "_solve_one", broken)
    with pytest.raises(TypeError, match="not a library failure"):
        sweep(prof, C0, RobinBC.neumann(), [10.0])


def test_sweep_thread_pool_map_matches_serial():
    """map_fn runs ladder entries concurrently; the records are the
    serial ones, in ladder order."""
    prof = build_profile(builtin("t2", 0.1, 0.25, 0.4, 0.55, 0.7, 0.85))
    args = (prof, C0, RobinBC.neumann(), [30.0, 10.0, 40.0, 20.0])
    masses = [(0.1, 0.25), (0.4, 0.55)]
    serial = sweep(*args, mass_intervals=masses)
    with ThreadPoolExecutor(3) as pool:
        threaded = sweep(*args, mass_intervals=masses, map_fn=pool.map)
    assert [r.s for r in threaded] == [10.0, 20.0, 30.0, 40.0]
    assert ([(r.s, r.n, r.lam, r.mass) for r in threaded]
            == [(r.s, r.n, r.lam, r.mass) for r in serial])
    assert all(r.error is None for r in threaded)


def periodic_quadratic_potential(x0, floor):
    """(circle distance to x0)^2 + floor: the 1-periodic version of
    (x - x0)^2 + floor, identical near x0.  Needs x0 < 1/2."""
    far = x0 + 0.5      # antipode of x0; beyond it the distance wraps
    return Potential.from_segments(
        (0.0, far, 1.0),
        ((floor + x0 ** 2, -2 * x0, 1.0),      # (x - x0)^2 + floor
         (floor + 0.25, -1.0, 1.0)))           # (1/2 - (x - far))^2 + floor


def test_sweep_periodic_bc():
    from adveig.profile import PeriodicBC
    prof = build_profile(builtin("periodic_bump", 0.25))
    c = periodic_quadratic_potential(0.25, 0.3)
    assert c(0.25) == pytest.approx(0.3)
    assert c(0.0) == pytest.approx(c(1.0))
    records = sweep(prof, c, PeriodicBC(), [100.0, 400.0],
                    mass_intervals=[(0.15, 0.35)])
    assert all(r.error is None for r in records)
    assert records[-1].mass[0][1] >= 0.9


# -- estimators -----------------------------------------------------------

def test_estimate_limit_synthetic_inverse_s():
    est = estimate_limit([rec(10, 0.6), rec(100, 0.51), rec(1000, 0.501)])
    assert est["extrapolated"] == pytest.approx(0.5, abs=1e-3)


def test_estimate_limit_constant_sequence_is_exact():
    est = estimate_limit([rec(10, 2.0), rec(20, 2.0), rec(40, 2.0)])
    assert est["extrapolated"] == 2.0
    assert est["converged"]


def test_estimate_limit_divergent_flagged():
    est = estimate_limit([rec(10, 100.0), rec(100, 1e4), rec(1000, 1e6)])
    assert not est["converged"]
    assert not est["reliable"]


@settings(max_examples=40, deadline=None)
@given(amp=st.floats(min_value=-10, max_value=10),
       lam_inf=st.floats(min_value=-5, max_value=5))
def test_estimate_limit_recovers_one_over_s(amp, lam_inf):
    records = [rec(s, lam_inf + amp / s) for s in (10.0, 40.0, 160.0, 640.0)]
    est = estimate_limit(records)
    tol = 1e-3 * max(1.0, abs(lam_inf))
    assert abs(est["extrapolated"] - lam_inf) <= tol


def test_estimate_limit_needs_three_records():
    with pytest.raises(InsufficientData):
        estimate_limit([rec(10, 1.0), rec(20, 1.0)])


@pytest.mark.parametrize("call, message", [
    (lambda: sweep(build_profile(builtin("vee", 0.5)), C0, RobinBC.neumann(), []),
     "empty s ladder"),
    (lambda: estimate_limit([rec(10, 1.0), rec(20, 1.0)]),
     f"need at least {lab.MIN_RECORDS} successful records"),
], ids=["empty_ladder", "short_tail"])
def test_refusals_pin_class_and_message(call, message):
    with pytest.raises(InsufficientData) as err:
        call()
    assert (type(err.value), str(err.value)) == (InsufficientData, message)


def test_growth_exponent():
    records = [rec(s, s ** 2) for s in (10.0, 20.0, 40.0, 80.0)]
    assert growth_exponent(records) == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(NonPositiveLambda):
        growth_exponent([rec(10, -1.0), rec(20, 1.0), rec(40, 1.0)])


def test_growth_exponent_linear_profile_dirichlet():
    prof = build_profile(builtin("monotone_increasing"))
    records = sweep(prof, C0, RobinBC.dirichlet(), [50.0, 100.0, 200.0, 400.0])
    slope = growth_exponent(records)
    assert 1.9 <= slope <= 2.0        # lambda = s^2 + pi^2


# -- masses ---------------------------------------------------------------

def test_mass_distribution_basics():
    x = np.linspace(0.0, 1.0, 1001)
    w = np.ones_like(x)
    assert mass_distribution(x, w, [(0.0, 0.5)]) == [pytest.approx(0.5)]
    assert mass_distribution(x, w, [(0.25, 0.3)]) == [pytest.approx(0.05)]
    with pytest.raises(IntervalOutOfDomain):
        mass_distribution(x, w, [(0.5, 1.5)])


def test_mass_distribution_slices_match_masks():
    """The slice between two searchsorted ends gives bitwise the masses of
    a full-grid mask with every node interpolated."""
    def masked(x, w, lo, hi):
        inside = x[(x > lo) & (x < hi)]
        xs = np.concatenate(([lo], inside, [hi]))
        return float(np.trapezoid(np.interp(xs, x, w) ** 2, xs))

    x = np.sort(np.random.default_rng(7).uniform(0.0, 1.0, 200))
    x[0], x[-1] = 0.0, 1.0
    mid = 0.5 * (x[3] + x[4])
    repeated = np.insert(x, 30, x[30])        # a zero-width cell at x[30]
    for grid in (x, repeated):
        w = np.exp(-8.0 * (grid - 0.4) ** 2) * (1.0 + grid)   # one value per point
        intervals = [(grid[10], grid[50]),                   # ends on nodes
                     (mid, 0.5 * (grid[70] + grid[71])),     # ends between nodes
                     (grid[20], grid[20]), (mid, mid),       # lo == hi
                     (grid[5] + 0.2 * (grid[6] - grid[5]),   # inside one cell
                      grid[5] + 0.7 * (grid[6] - grid[5])),
                     (grid[0], grid[-1]),                    # the whole grid
                     (grid[30], grid[31]), (grid[25], grid[30]), (grid[30], 0.9)]
        got = mass_distribution(grid, w, intervals)
        assert got == [masked(grid, w, lo, hi) for lo, hi in intervals]


def test_vee_neumann_mass_all_at_boundaries():
    prof = build_profile(builtin("vee", 0.5))
    records = sweep(prof, C0, RobinBC.neumann(), [200.0],
                    grid_policy=GridPolicy(multiplier=64.0),
                    mass_intervals=[(0.1, 0.9)])
    assert records[0].mass[0][1] <= 0.01


def test_total_mass_invariant_along_ladders():
    prof = build_profile(builtin("t2", 0.1, 0.25, 0.4, 0.55, 0.7, 0.85))
    records = sweep(prof, C0, RobinBC.neumann(), [25.0, 50.0],
                    mass_intervals=[(0.0, 1.0)])
    for r in records:
        assert r.mass[0][1] == pytest.approx(1.0, abs=1e-6)


def test_mass_outside_argmin_support_decreases():
    """Mass outside the 0.05-neighborhood of the argmin support shrinks
    along the ladder tail for the bounded builtin scenarios."""
    from adveig.predictor import predict_limit
    cases = [("t1", (0.15, 0.3, 0.45, 0.6, 0.8)),
             ("t2", (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)),
             ("example1", (0.15, 0.4, 0.6, 0.85)),
             ("example2", (0.3, 0.7)),
             ("example3", (0.35, 0.6)),
             ("power_max", (0.5, 2))]
    delta = 0.05
    for name, params in cases:
        prof = build_profile(builtin(name, *params))
        pred = predict_limit(decompose(prof), C0, RobinBC.neumann())
        support = []
        for i in pred.argmin:
            src = pred.terms[i].source
            lo, hi = (src.a, src.b) if hasattr(src, "a") else (src.x, src.x)
            support.append((max(0.0, lo - delta), min(1.0, hi + delta)))
        support.sort()
        outside = []
        edge = 0.0
        for lo, hi in support:
            if lo > edge:
                outside.append((edge, lo))
            edge = max(edge, hi)
        if edge < 1.0:
            outside.append((edge, 1.0))
        records = sweep(prof, C0, RobinBC.neumann(), [100.0, 200.0, 400.0],
                        mass_intervals=outside)
        leaks = [sum(m for _, m in r.mass) for r in records]
        assert all(b <= a + 1e-9 for a, b in zip(leaks, leaks[1:])), (name, leaks)
        assert leaks[-1] <= 0.05, (name, leaks)


# -- rescaled profiles ------------------------------------------------------

def _neumann_grid(prof, c, s, mult=16):
    n = max(2000, math.ceil(mult * s * prof.max_abs_deriv))
    records = sweep(prof, c, RobinBC.neumann(), [s],
                    grid_policy=GridPolicy(multiplier=mult))
    assert records[0].error is None
    return records[0]


def test_rescaled_profile_gaussian():
    prof = build_profile(builtin("power_max", 0.5, 2))
    r = _neumann_grid(prof, C0, 400.0)
    x, w = r.grid
    decomp = decompose(prof)
    radius = component_mass_radius(decomp, 0.5)
    resc = rescaled_profile(x, w, 0.5, 2, 400.0, radius)
    sel = np.abs(resc.y) <= 3.0
    target = (2 / np.pi) ** 0.25 * np.exp(-resc.y[sel] ** 2)
    assert np.max(np.abs(resc.values[sel] - target)) <= 0.05


def test_rescaled_profile_symmetry():
    prof = build_profile(builtin("power_max", 0.5, 4))
    r = _neumann_grid(prof, C0, 300.0)
    x, w = r.grid
    resc = rescaled_profile(x, w, 0.5, 4, 300.0, 0.25)
    flipped = np.interp(-resc.y, resc.y, resc.values)
    assert np.max(np.abs(resc.values - flipped)) <= 1e-3


def test_rescaled_profile_boundary_maximum_half_line():
    """Boundary maximum at x0 = 1 with k* = 3: the rescaled profile must
    converge to the half-line limit state (Neumann closure at 0)."""
    from adveig.profile import ProfileSpec
    spec = ProfileSpec((0.0, 1.0), ((-1.0, 3.0, -3.0, 1.0),), ("increasing",))
    prof = build_profile(spec)
    d = decompose(prof)
    (point,) = d.isolated
    assert (point.position, point.k_star, point.m_kstar) == \
        ("right_boundary", 3, pytest.approx(6.0))
    s = 400.0
    recs = sweep(prof, C0, RobinBC.neumann(), [s],
                 grid_policy=GridPolicy(multiplier=32.0))
    x, w = recs[0].grid
    resc = rescaled_profile(x, w, 1.0, 3, s, component_mass_radius(d, 1.0))
    assert resc.y[-1] == 0.0          # grid image stops at the boundary
    lp = limit_ode_ground_state(6.0, 3, half_line="left")
    assert profile_distance(resc, lp) <= 1e-3


def test_rescaled_profile_errors():
    x = np.linspace(0, 1, 101)
    w = np.ones_like(x)
    with pytest.raises(KStarUndefined):
        rescaled_profile(x, w, 0.5, None, 100.0, 0.2)
    with pytest.raises(Exception):
        rescaled_profile(x, np.zeros_like(x), 0.5, 2, 100.0, 0.2)


@pytest.mark.parametrize("s", [0.0, -100.0, float("nan"), float("inf")])
def test_rescaled_profile_needs_finite_positive_s(s):
    x = np.linspace(0, 1, 101)
    with pytest.raises(ValidationError, match="s must be finite and > 0"):
        rescaled_profile(x, np.ones_like(x), 0.5, 2, s, 0.2)


@pytest.mark.parametrize("radius", [0.0, -0.2, float("nan"), float("inf")])
def test_rescaled_profile_needs_finite_positive_mass_radius(radius):
    x = np.linspace(0, 1, 101)
    with pytest.raises(ValidationError, match="mass_radius must be finite and > 0"):
        rescaled_profile(x, np.ones_like(x), 0.5, 2, 100.0, radius)


def test_component_mass_radius():
    prof = build_profile(builtin("t1", 0.15, 0.3, 0.45, 0.6, 0.8))
    d = decompose(prof)
    assert component_mass_radius(d, 0.15) == pytest.approx(0.15)  # to [0.45,0.6]
    single = decompose(build_profile(builtin("power_max", 0.5, 2)))
    assert component_mass_radius(single, 0.5) == pytest.approx(0.25)


# -- limit ODE -------------------------------------------------------------

def test_limit_ode_harmonic_case():
    lp = limit_ode_ground_state(-2.0, 2, y_max=6.0)
    assert abs(lp.E0) <= 1e-3
    w0 = float(np.interp(0.0, lp.y, lp.values))
    assert w0 == pytest.approx((2 / np.pi) ** 0.25, abs=1e-3)
    # analytic ground state is the normalized Gaussian e^{m'' y^2 / 2}
    target = (2 / np.pi) ** 0.25 * np.exp(-lp.y ** 2)
    assert np.max(np.abs(lp.values - target)) <= 1e-3
    assert np.trapezoid(lp.values ** 2, lp.y) == pytest.approx(1.0, abs=1e-6)


def test_limit_ode_quartic_case():
    lp = limit_ode_ground_state(-24.0, 4)
    assert abs(lp.E0) <= 1e-3
    # zero-energy solution is proportional to e^{-y^4}
    target = np.exp(-lp.y ** 4)
    target /= math.sqrt(np.trapezoid(target ** 2, lp.y))
    assert np.max(np.abs(lp.values - target)) <= 1e-3


def test_limit_ode_half_line_case():
    lp = limit_ode_ground_state(6.0, 3, half_line="left")
    assert abs(lp.E0) <= 1e-3
    target = np.exp(lp.y ** 3)        # decays as y -> -inf, W'(0) = 0
    target /= math.sqrt(np.trapezoid(target ** 2, lp.y))
    assert np.max(np.abs(lp.values - target)) <= 1e-3
    assert np.all(lp.values[1:] > 0)  # node 0 is the Dirichlet truncation


def test_limit_ode_truncation_symmetry():
    a = limit_ode_ground_state(-2.0, 2, y_max=6.0, n=8001)
    b = limit_ode_ground_state(-2.0, 2, y_max=6.0, n=8000)
    assert abs(a.E0 - b.E0) <= 1e-6


def test_limit_ode_preconditions():
    with pytest.raises(ValidationError):
        limit_ode_ground_state(0.0, 2)
    with pytest.raises(ValidationError):
        limit_ode_ground_state(2.0, 2)          # needs m_kstar < 0
    with pytest.raises(ValidationError):
        limit_ode_ground_state(-6.0, 3)         # odd k* has no full-line state
    with pytest.raises(ValidationError):
        limit_ode_ground_state(-6.0, 3, half_line="left")


@pytest.mark.parametrize("y_max", [-6.0, 0.0, float("nan"), float("inf")])
def test_limit_ode_needs_finite_positive_y_max(y_max):
    with pytest.raises(ValidationError, match="y_max must be finite and > 0"):
        limit_ode_ground_state(-2.0, 2, y_max=y_max)


# -- distances --------------------------------------------------------------

def test_profile_distance():
    y = np.linspace(-3, 3, 61)
    a = RescaledProfile(0.5, 2, 100.0, y, np.exp(-y ** 2))
    b = LimitProfile(2, -2.0, "none", 0.0, y, np.exp(-y ** 2))
    assert profile_distance(a, b) == 0.0
    b2 = LimitProfile(2, -2.0, "none", 0.0, y, np.exp(-y ** 2) + 0.1)
    assert profile_distance(a, b2) == pytest.approx(0.1)
    far = LimitProfile(2, -2.0, "none", 0.0, y + 100.0, np.exp(-y ** 2))
    with pytest.raises(NoOverlap):
        profile_distance(a, far)


def test_segment_restriction_distance_identity():
    op = assemble_subinterval(C0, 0.3, 0.7, SubBC("N"), SubBC("N"), 800)
    pair = principal_eigen(op)
    x = np.linspace(0.0, 1.0, 2001)
    w = np.ones_like(x)               # constant is the NN ground state
    assert segment_restriction_distance(x, w, op, pair) <= 1e-6
