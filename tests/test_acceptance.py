"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each (run with -s to see them on success).

Scenario constants (potentials, grid multipliers, Robin pairs) were
fixed during development from convergence studies; the default grid
policy targets layer resolution, so gap-ratio comparisons at 1e-3
scales use the documented 3x-finer multiplier 48.
"""

import math
import time

import numpy as np

from adveig.assembly import (SubBC, assemble_subinterval,
                             assemble_transformed, principal_eigen)
from adveig.lab import (GridPolicy, component_mass_radius, growth_exponent,
                        limit_ode_ground_state, mass_distribution,
                        profile_distance, rescaled_profile,
                        segment_restriction_distance, sweep)
from adveig.maxset import decompose
from adveig.predictor import periodic_prediction, predict_limit
from adveig.profile import (PeriodicBC, Potential, RobinBC, build_profile,
                            builtin)
from adveig.spectral import SymTridiag, smallest_eig
from conftest import charpoly_smallest, scale_spec

C0 = Potential.zero()
PI2 = math.pi ** 2
FINE = GridPolicy(multiplier=48.0)


def check(num, ok, detail):
    print(f"ACCEPTANCE #{num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_analytic_subinterval_oracles():
    t0 = time.perf_counter()
    dd = principal_eigen(assemble_subinterval(
        C0, 0.0, 1.0, SubBC("D"), SubBC("D"), 2000)).lam
    nd = principal_eigen(assemble_subinterval(
        C0, 0.4, 0.6, SubBC("N"), SubBC("D"), 2000)).lam
    nn = principal_eigen(assemble_subinterval(
        C0, 0.25, 0.85, SubBC("N"), SubBC("N"), 2000)).lam
    elapsed = time.perf_counter() - t0
    ok = (abs(dd - PI2) <= 1e-5 * PI2
          and abs(nd - (math.pi / 0.4) ** 2) <= 1e-5 * (math.pi / 0.4) ** 2
          and abs(nn) <= 1e-5
          and elapsed < 1.0)
    check(1, ok, f"DD={dd:.8f} (pi^2={PI2:.8f}), ND={nd:.6f}, "
                 f"NN={nn:.2e}, {elapsed:.2f}s")


def _gap_protocol(profile, c, bc):
    pred = predict_limit(decompose(profile), c, bc)
    assert pred.finite
    records = sweep(profile, c, bc, [100.0, 400.0], grid_policy=FINE)
    assert all(r.error is None for r in records)
    gap100 = abs(records[0].lam - pred.value)
    gap400 = abs(records[1].lam - pred.value)
    return pred, records, gap100, gap400


def test_criterion_2_theorem_t1_reproduction():
    t0 = time.perf_counter()
    prof = build_profile(builtin("t1", 0.15, 0.3, 0.45, 0.6, 0.8))
    c = Potential.from_coeffs([2.9, -12.0, 40.0])   # 2 + 40 (x - 0.15)^2
    pred, records, gap100, gap400 = _gap_protocol(prof, c, RobinBC.neumann())
    values = sorted(t.value for t in pred.terms)
    separated = all(b - a >= 0.2 for a, b in zip(values, values[1:]))
    elapsed = time.perf_counter() - t0
    ok = (len(pred.terms) == 3 and separated
          and gap400 <= 0.02 and gap400 <= 0.5 * gap100
          and elapsed < 30.0)
    check(2, ok, f"pred={pred.value:.6f}, terms={[round(v, 3) for v in values]}, "
                 f"gap100={gap100:.2e}, gap400={gap400:.2e}, "
                 f"ratio={gap400 / gap100:.2f}, {elapsed:.1f}s")


def test_criterion_3_theorem_t2_reproduction():
    t0 = time.perf_counter()
    a1 = 0.1
    prof = build_profile(builtin("t2", a1, 0.25, 0.4, 0.55, 0.7, 0.85))
    c = Potential.from_coeffs([2.4, -8.0, 40.0])    # 2 + 40 (x - 0.1)^2
    pred, records, gap100, gap400 = _gap_protocol(prof, c, RobinBC.neumann())
    kinds = sorted(t.kind for t in pred.terms)
    values = sorted(t.value for t in pred.terms)
    separated = all(b - a >= 0.2 for a, b in zip(values, values[1:]))
    # identify the attained term through the mass distribution
    x, w = records[-1].grid
    comp_masses = []
    for t in pred.terms:
        src = t.source
        lo, hi = (src.a, src.b) if hasattr(src, "a") else \
            (max(0.0, src.x - 0.05), min(1.0, src.x + 0.05))
        comp_masses.append(mass_distribution(x, w, [(lo, hi)])[0])
    attained = int(np.argmax(comp_masses))
    elapsed = time.perf_counter() - t0
    ok = (kinds == ["DD", "ND", "NR", "c_at_point"] and separated
          and gap400 <= 0.02 and gap400 <= 0.5 * gap100
          and attained in pred.argmin and comp_masses[attained] >= 0.9
          and elapsed < 30.0)
    check(3, ok, f"pred={pred.value:.6f}, argmin kind="
                 f"{pred.terms[pred.argmin[0]].kind}, mass_on_argmin="
                 f"{comp_masses[attained]:.4f}, gap ratio="
                 f"{gap400 / gap100:.2f}, {elapsed:.1f}s")


def test_criterion_4_unbounded_growth_rates():
    t0 = time.perf_counter()
    # vee under genuine Robin data: strong growth between s=50 and 400
    vee = build_profile(builtin("vee", 0.5))
    bc = RobinBC(0.5, 1.0, 0.5, 1.0)
    recs = sweep(vee, C0, bc, [50.0, 400.0],
                 grid_policy=GridPolicy(multiplier=96.0, floor=4000))
    ratio = recs[1].lam / recs[0].lam
    # m(x) = x under Dirichlet: lambda = s^2 + pi^2 closed form
    mono = build_profile(builtin("monotone_increasing"))
    slope_lin = growth_exponent(
        sweep(mono, C0, RobinBC.dirichlet(), [50.0, 100.0, 200.0, 400.0]))
    # degenerate well: exponent 2/(nu+1) = 2/3 for nu = 2
    well = build_profile(builtin("power_well", 0.5, 2))
    slope_well = growth_exponent(
        sweep(well, C0, RobinBC.dirichlet(),
              [50.0, 100.0, 200.0, 400.0, 800.0]))
    elapsed = time.perf_counter() - t0
    ok = (ratio >= 10.0 and 1.85 <= slope_lin <= 2.0
          and abs(slope_well - 2.0 / 3.0) <= 0.15 and elapsed < 60.0)
    check(4, ok, f"vee lam400/lam50={ratio:.2f}, m=x exponent="
                 f"{slope_lin:.4f}, well exponent={slope_well:.4f} "
                 f"(target 2/3), {elapsed:.1f}s")


def test_criterion_5_periodic_limit():
    t0 = time.perf_counter()
    x0 = 0.25
    prof = build_profile(builtin("periodic_bump", x0))
    # 1-periodic version of (x - x0)^2 + 0.3 (circle distance squared)
    c = Potential.from_segments(
        (0.0, x0 + 0.5, 1.0),
        ((0.3 + x0 ** 2, -2 * x0, 1.0), (0.55, -1.0, 1.0)))
    pred = periodic_prediction(prof, c).value
    records = sweep(prof, c, PeriodicBC(), [400.0], grid_policy=FINE)
    lam = records[0].lam
    elapsed = time.perf_counter() - t0
    ok = (abs(pred - 0.3) <= 1e-9 and abs(lam - 0.3) <= 0.02
          and elapsed < 30.0)
    check(5, ok, f"pred={pred:.6f}, lamP(400)={lam:.6f}, "
                 f"|gap|={abs(lam - 0.3):.2e}, {elapsed:.1f}s")


def test_criterion_6_concentration_masses():
    t0 = time.perf_counter()
    x1, x2 = 0.3, 0.7
    prof = build_profile(builtin("example2", x1, x2))
    records = sweep(prof, C0, RobinBC.neumann(), [200.0], grid_policy=FINE,
                    mass_intervals=[(x1 + 0.05, x2 - 0.05), (0.0, 0.05),
                                    (0.95, 1.0), (0.05, x1), (x2, 0.95)])
    masses = [m for _, m in records[0].mass]
    good = masses[0] + masses[1] + masses[2]
    monotone = masses[3] + masses[4]
    elapsed = time.perf_counter() - t0
    ok = good >= 0.98 and monotone <= 0.02 and elapsed < 30.0
    check(6, ok, f"plateau+boundaries={good:.5f} (>=0.98), "
                 f"monotone regions={monotone:.2e} (<=0.02), {elapsed:.1f}s")


def test_criterion_7_rescaled_profile_and_limit_ode():
    t0 = time.perf_counter()
    prof = build_profile(builtin("power_max", 0.5, 2))
    records = sweep(prof, C0, RobinBC.neumann(), [400.0])
    x, w = records[0].grid
    radius = component_mass_radius(decompose(prof), 0.5)
    resc = rescaled_profile(x, w, 0.5, 2, 400.0, radius)
    sel = np.abs(resc.y) <= 3.0
    gauss = (2.0 / math.pi) ** 0.25 * np.exp(-resc.y[sel] ** 2)
    sup_gauss = float(np.max(np.abs(resc.values[sel] - gauss)))
    lp2 = limit_ode_ground_state(-2.0, 2, y_max=6.0)
    lp4 = limit_ode_ground_state(-24.0, 4)
    sup_ode = profile_distance(resc, lp2)
    elapsed = time.perf_counter() - t0
    ok = (sup_gauss <= 0.05 and abs(lp2.E0) <= 1e-3 and abs(lp4.E0) <= 1e-3
          and sup_ode <= 0.05 and elapsed < 60.0)
    check(7, ok, f"sup|W - gaussian|={sup_gauss:.2e} (<=0.05), "
                 f"E0(2,-2)={lp2.E0:.2e}, E0(4,-24)={lp4.E0:.2e}, "
                 f"sup vs ODE state={sup_ode:.2e}, {elapsed:.1f}s")


def test_criterion_8_plateau_eigenfunction():
    t0 = time.perf_counter()
    x1, x2, x3, x4 = 0.15, 0.4, 0.6, 0.85
    prof = build_profile(builtin("example1", x1, x2, x3, x4))
    c = Potential.from_coeffs([2.0, -6.0, 6.0])     # 2 - 6 x (1 - x)
    pred = predict_limit(decompose(prof), c, RobinBC.neumann())
    (i,) = pred.argmin
    assert pred.terms[i].kind == "NN"               # unique plateau argmin
    records = sweep(prof, c, RobinBC.neumann(), [400.0], grid_policy=FINE)
    x, w = records[0].grid
    op_sub = assemble_subinterval(c, x2, x3, SubBC("N"), SubBC("N"), 2000)
    pair_sub = principal_eigen(op_sub)
    dist = segment_restriction_distance(x, w, op_sub, pair_sub)
    elapsed = time.perf_counter() - t0
    ok = dist <= 0.05 and elapsed < 60.0
    check(8, ok, f"argmin=NN({x2},{x3}) value={pred.value:.5f}, "
                 f"sup-dist={dist:.2e} (<=0.05), {elapsed:.1f}s")


def test_criterion_9_property_suites(rng, tmp_path, capsys):
    t0 = time.perf_counter()
    # spectral oracle equivalence at n <= 12
    oracle_ok = True
    for _ in range(20):
        n = int(rng.integers(1, 13))
        T = SymTridiag(rng.normal(size=n) * 5, rng.normal(size=max(n - 1, 0)) * 3)
        want = charpoly_smallest(T.diag, T.offdiag)
        oracle_ok &= abs(smallest_eig(T).lam - want) <= 1e-9 * max(1, abs(want))
    # shift equivariance of the prediction
    spec = builtin("t1", 0.15, 0.3, 0.45, 0.6, 0.8)
    prof = build_profile(spec)
    d = decompose(prof)
    p0 = predict_limit(d, C0, RobinBC.neumann())
    p3 = predict_limit(d, Potential.constant(3.0), RobinBC.neumann())
    shift_ok = abs(p3.value - p0.value - 3.0) <= 1e-9 and p3.argmin == p0.argmin
    # gauge invariance of the assembled matrix under m -> m + beta
    shifted = build_profile(scale_spec(spec, 1.0, 2.0))
    opa = assemble_transformed(prof, C0, RobinBC.neumann(), 30.0, 600)
    opb = assemble_transformed(shifted, C0, RobinBC.neumann(), 30.0, 600)
    gauge_ok = np.array_equal(opa.matrix.diag, opb.matrix.diag)
    # BC monotonicity chain
    cq = Potential.from_coeffs([0.5, 1.0, -1.0])
    lams = [principal_eigen(assemble_subinterval(
        cq, 0.2, 0.8, SubBC(l), SubBC(r), 1000)).lam
        for l, r in (("N", "N"), ("N", "D"), ("D", "D"))]
    chain_ok = lams[0] <= lams[1] + 1e-12 <= lams[2] + 2e-12
    # total-mass normalization along a ladder
    recs = sweep(prof, C0, RobinBC.neumann(), [25.0, 50.0],
                 mass_intervals=[(0.0, 1.0)])
    mass_ok = all(abs(r.mass[0][1] - 1.0) <= 1e-6 for r in recs)
    # CLI determinism
    from adveig.cli import main as cli_main
    args = ["sweep", "--template", "example3:0.35,0.6", "--c", "poly:0,1",
            "--bc", "robin:1,0,1,0", "--ladder", "10,20"]
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    cli_main(args + ["--out", str(pa)])
    cli_main(args + ["--out", str(pb)])
    cli_ok = pa.read_bytes() == pb.read_bytes()
    elapsed = time.perf_counter() - t0
    ok = all([oracle_ok, shift_ok, gauge_ok, chain_ok, mass_ok, cli_ok])
    check(9, ok, f"oracle={oracle_ok}, shift={shift_ok}, gauge={gauge_ok}, "
                 f"chain={chain_ok}, mass={mass_ok}, cli={cli_ok}, "
                 f"{elapsed:.1f}s")
