"""The benchmark's three seeded workloads and their cases.

A workload is a fixed list of cases made from the seed.  Generating the
list touches no library code, so the same seed always gives equal
lists.  prepare() then builds the library objects a case needs (set-up),
run() is the timed call through the stable entry points (names exported
from adveig and adveig.cli.main), run_traced() makes the same calls one
layer at a time under spans, and check() grades the output.

- robin_ladder: a few large tridiagonal solves (n from 2e3 to 1e6),
  bound by assembly and the non-cyclic eigensolver.
- periodic_ladder: the cyclic eigensolver, which robin_ladder never
  reaches.
- predict_mix: a few hundred small cases where per-call cost dominates:
  exact profile checks, decomposition, limit prediction and the CLI.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass

import oracles
from oracles import DIRICHLET, NEUMANN


def poly(*coeffs):
    """A single-piece potential c(x) = c0 + c1 x + ... as (knots, segments)."""
    return ((0.0, 1.0), (tuple(float(v) for v in coeffs),))


class Library:
    """Builds the library objects cases share; profiles are built once.

    With a tracer, each profile build is recorded as a set-up span.  The
    library (and numpy with it) is imported here, not at module level,
    so run.py can pin the BLAS thread pools first.
    """

    def __init__(self, tracer=None):
        import adveig
        self.api = adveig
        self.tracer = tracer
        self._profiles = {}

    def spec(self, template, params):
        if template == "line_down":      # m = 1 - x: the only maximum is x = 0
            return self.api.ProfileSpec((0.0, 1.0), ((1.0, -1.0),), ("decreasing",))
        return self.api.builtin(template, *params)

    def profile(self, template, params):
        key = (template, params)
        if key not in self._profiles:
            spec = self.spec(template, params)
            if self.tracer is None:
                self._profiles[key] = self.api.build_profile(spec)
            else:
                with self.tracer.span("profile.build"):
                    self._profiles[key] = self.api.build_profile(spec)
                self.tracer.count("profile.builds")
        return self._profiles[key]

    def potential(self, c):
        return self.api.Potential.from_segments(*c)

    def boundary(self, bc):
        return self.api.PeriodicBC() if bc is None else self.api.RobinBC(*bc)


def _lapack_floor(tr, matrix):
    """Reference span: the bare LAPACK call on the same matrix (its
    tridiagonal part when cyclic)."""
    from scipy.linalg import eigh_tridiagonal
    with tr.span("spectral.lapack_floor"):
        eigh_tridiagonal(matrix.diag, matrix.offdiag, select="i",
                         select_range=(0, 0), check_finite=False)


def _sibling_eig(tr, api, matrix):
    """Reference span: smallest_eig alone on the matrix principal_eigen saw."""
    name = "spectral.smallest_eig" if matrix.corner is None else "spectral.cyclic"
    with tr.span(name):
        api.smallest_eig(matrix)


def _pass_unknowns(tr, op):
    m = op.matrix
    tr.count("assembly.unknowns", m.n)
    tr.count("assembly.bytes_computed",
             m.diag.nbytes + m.offdiag.nbytes + op.nodes.nbytes)


@dataclass
class SolveCase:
    """One certified lambda at one s: assemble, eigensolve, normalize and
    masses, with the grid sweep() chooses by default."""
    id: str
    template: str
    params: tuple
    c: tuple                          # (knots, segments)
    bc: tuple | None                  # Robin (hbar1, ell1, hbar2, ell2); None = periodic
    s: float
    masses: tuple = ()
    ref: float | None = None          # exact lambda
    limit: float | None = None        # predicted limit the gap is checked against
    rescale_x0: float | None = None   # compare the k* = 2 rescaled profile here

    def prepare(self, lib):
        self.api = lib.api
        self.profile = lib.profile(self.template, self.params)
        self.potential = lib.potential(self.c)
        self.boundary = lib.boundary(self.bc)

    def _rescaled(self, rec):
        api = self.api
        radius = api.component_mass_radius(api.decompose(self.profile), self.rescale_x0)
        x, w = rec.grid
        return api.rescaled_profile(x, w, self.rescale_x0, 2, self.s, radius)

    def warm(self):
        self.api.sweep(self.profile, self.potential, self.boundary, [min(self.s, 25.0)],
                       mass_intervals=self.masses)

    def run(self):
        rec = self.api.sweep(self.profile, self.potential, self.boundary, [self.s],
                             mass_intervals=self.masses)[0]
        resc = None
        if self.rescale_x0 is not None and rec.error is None:
            resc = self._rescaled(rec)
        return rec, resc

    def run_traced(self, tr, prev):
        import numpy as np
        api = self.api
        n = prev[0].n                     # the grid sweep() chose for this case
        with tr.span("assembly.assemble"):
            if self.bc is None:
                op = api.assemble_periodic(self.profile, self.potential, self.s, n)
            else:
                op = api.assemble_transformed(self.profile, self.potential,
                                              self.boundary, self.s, n)
        _pass_unknowns(tr, op)
        with tr.span("assembly.principal_eigen"):
            pair = api.principal_eigen(op)
        tr.note_max("spectral.residual_max", pair.residual)
        with tr.span("lab.mass"):
            x, w = api.eigenfunction_on_grid(op, pair)
            if self.bc is None:           # close the circle, as sweep() does
                x = np.append(x, 1.0)
                w = np.append(w, w[0])
            masses = api.mass_distribution(x, w, self.masses)
            if self.masses:
                api.mass_distribution(x, w, [(x[0], x[-1])])
        rec = api.SweepRecord(s=self.s, n=n, lam=pair.lam,
                              mass=tuple(zip(self.masses, masses)), grid=(x, w))
        resc = None
        if self.rescale_x0 is not None:
            with tr.span("lab.rescaled"):
                resc = self._rescaled(rec)
        _sibling_eig(tr, api, op.matrix)
        _lapack_floor(tr, op.matrix)
        return rec, resc

    def check(self, out, errors):
        rec, resc = out
        if rec.error is not None:
            return [rec.error]
        lam = rec.lam
        if not math.isfinite(lam):
            return ["lambda is not finite"]
        problems = []
        if self.ref is not None:
            errors.append(oracles.rel_err(lam, self.ref))
            if not oracles.exact_ok(lam, self.ref):
                problems.append(f"lambda {lam} vs exact {self.ref}")
        if self.limit is not None and abs(lam - self.limit) > oracles.GAP_TOL:
            problems.append(f"gap |{lam} - {self.limit}| > {oracles.GAP_TOL}")
        if len(self.c[1]) == 1:
            cmin, cmax = oracles.poly_range(self.c, 0.0, 1.0)
            slack = oracles.EXACT_TOL * max(1.0, abs(cmin), abs(cmax))
            if lam < cmin - slack:
                problems.append(f"lambda {lam} below min c {cmin}")
            if (self.bc is None or self.bc == NEUMANN) and lam > cmax + slack:
                problems.append(f"lambda {lam} above max c {cmax}")
        masses = [m for _, m in rec.mass]
        if (len(masses) != len(self.masses) or any(m < 0 for m in masses)
                or sum(masses) > 1.0 + oracles.MASS_TOL):
            problems.append(f"masses {masses} are not a sub-probability")
        if self.rescale_x0 is not None:
            import numpy as np
            sel = np.abs(resc.y) <= 3.0
            gauss = (2.0 / math.pi) ** 0.25 * np.exp(-resc.y[sel] ** 2)
            sup = float(np.max(np.abs(resc.values[sel] - gauss)))
            if sup > oracles.GAUSS_TOL:
                problems.append(f"rescaled profile is {sup:.3g} from the Gaussian")
        return problems


@dataclass
class PredictCase:
    """Build the profile (exact sign check), decompose, predict the limit."""
    id: str
    template: str
    params: tuple
    c: tuple
    bc: tuple | None
    expect_terms: int | None = None
    expect_value: float | None = None

    def prepare(self, lib):
        self.api = lib.api
        self.spec = lib.spec(self.template, self.params)
        self.potential = lib.potential(self.c)
        self.boundary = lib.boundary(self.bc)

    def run(self):
        api = self.api
        prof = api.build_profile(self.spec)
        if self.bc is None:
            decomp = api.decompose_periodic(prof)
            return api.periodic_prediction(prof, self.potential), decomp
        decomp = api.decompose(prof)
        return api.predict_limit(decomp, self.potential, self.boundary), decomp

    def run_traced(self, tr, prev):
        api = self.api
        with tr.span("profile.build"):
            prof = api.build_profile(self.spec)
        tr.count("profile.builds")
        with tr.span("maxset.decompose"):
            decomp = (api.decompose_periodic(prof) if self.bc is None
                      else api.decompose(prof))
        tr.count("maxset.components", len(decomp.components()))
        with tr.span("predictor.predict"):
            pred = (api.periodic_prediction(prof, self.potential) if self.bc is None
                    else api.predict_limit(decomp, self.potential, self.boundary))
        tr.count("predictor.terms", len(pred.terms))
        tr.count("predictor.segment_terms",
                 sum(t.kind != "c_at_point" for t in pred.terms))
        return pred, decomp

    def check(self, out, errors):
        pred, _ = out
        problems = oracles.check_prediction(pred, self.c, self.bc, self.template, errors)
        if self.expect_terms is not None and len(pred.terms) != self.expect_terms:
            problems.append(f"{len(pred.terms)} terms, expected {self.expect_terms}")
        if self.expect_value is not None and not (
                pred.finite and oracles.close(pred.value, self.expect_value, 1e-9)):
            problems.append(f"limit {pred.value}, expected {self.expect_value}")
        return problems


def _c_arg(c):
    coeffs = c[1][0]
    if len(c[1]) != 1:
        raise ValueError("the CLI cases use single-piece potentials")
    if coeffs == (0.0,):
        return "zero"
    if len(coeffs) == 1:
        return f"const:{coeffs[0]!r}"
    return "poly:" + ",".join(repr(v) for v in coeffs)


def _cli_json(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@dataclass
class CliCase:
    """`adveig predict` and `adveig classify` through adveig.cli.main; the
    JSON is checked against the API result for the same inputs."""
    id: str
    template: str
    params: tuple
    c: tuple
    bc: tuple | None

    def prepare(self, lib):
        from adveig.cli import main
        self.main = main
        self.twin = PredictCase(self.id, self.template, self.params, self.c, self.bc)
        self.twin.prepare(lib)
        tpl = self.template
        if self.params:
            tpl += ":" + ",".join(repr(p) for p in self.params)
        bc = "periodic" if self.bc is None else "robin:" + ",".join(repr(v) for v in self.bc)
        self.predict_argv = ["predict", "--template", tpl, "--c", _c_arg(self.c),
                             "--bc", bc]
        self.classify_argv = ["classify", "--template", tpl]

    def run(self):
        return (_cli_json(self.main, self.predict_argv),
                _cli_json(self.main, self.classify_argv))

    def run_traced(self, tr, prev):
        outs = []
        for argv in (self.predict_argv, self.classify_argv):
            with tr.span("cli.main"):
                outs.append(_cli_json(self.main, argv))
            tr.count("cli.calls")
        return tuple(outs)

    def check(self, out, errors):
        (code_p, text_p), (code_c, text_c) = out
        if code_p != 0 or code_c != 0:
            return [f"CLI exit codes {code_p}, {code_c}"]
        pred, decomp = self.twin.run()
        if self.bc is None:               # classify always takes the interval view
            api = self.twin.api
            decomp = api.decompose(api.build_profile(self.twin.spec))
        return (oracles.compare_cli(json.loads(text_p), json.loads(text_c), pred, decomp)
                + self.twin.check((pred, decomp), errors))


@dataclass
class LimitOdeCase:
    """Ground state of the limiting model operator; E0 is exactly 0."""
    id: str
    m_kstar: float
    k_star: int
    y_max: float | None = None

    def prepare(self, lib):
        self.api = lib.api

    def run(self):
        return self.api.limit_ode_ground_state(self.m_kstar, self.k_star, y_max=self.y_max)

    def run_traced(self, tr, prev):
        with tr.span("lab.limit_ode"):
            return self.run()

    def check(self, out, errors):
        errors.append(abs(out.E0))
        return [] if abs(out.E0) <= oracles.E0_TOL else [f"E0 = {out.E0}"]


@dataclass
class OracleCase:
    """Analytic sub-interval eigenvalue of -phi'' with N/D ends."""
    id: str
    a: float
    b: float
    left: str
    right: str
    n: int

    def prepare(self, lib):
        self.api = lib.api
        self.zero = lib.potential(poly(0.0))
        self.ends = (self.api.SubBC(self.left), self.api.SubBC(self.right))

    def _assemble(self):
        return self.api.assemble_subinterval(self.zero, self.a, self.b, *self.ends, self.n)

    def run(self):
        return self.api.principal_eigen(self._assemble()).lam

    def run_traced(self, tr, prev):
        api = self.api
        with tr.span("assembly.assemble"):
            op = self._assemble()
        _pass_unknowns(tr, op)
        with tr.span("assembly.principal_eigen"):
            pair = api.principal_eigen(op)
        tr.note_max("spectral.residual_max", pair.residual)
        _sibling_eig(tr, api, op.matrix)
        _lapack_floor(tr, op.matrix)
        return pair.lam

    def check(self, out, errors):
        ref = oracles.interval_mu(self.left, self.right, self.b - self.a)
        errors.append(oracles.rel_err(out, ref))
        return [] if oracles.exact_ok(out, ref) else [f"lambda {out} vs exact {ref}"]


# -- robin_ladder ---------------------------------------------------------

T1 = (0.15, 0.3, 0.45, 0.6, 0.8)
T1_C = poly(2.9, -12.0, 40.0)            # 2 + 40 (x - 0.15)^2; limit c(0.15) = 2
T1_MASSES = ((0.1, 0.2), (0.45, 0.6), (0.95, 1.0))
T2 = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)
T2_C = poly(2.4, -8.0, 40.0)             # 2 + 40 (x - 0.1)^2
T2_BC = (1.0, 0.5, 1.0, 0.0)
T2_MASSES = ((0.25, 0.4), (0.55, 0.7), (0.85, 1.0))
LADDER_S = (100.0, 400.0, 1600.0, 1e4)


def _jitter(rng, s):
    """s moved by up to 10%, or by 2% where the grid, and so the cost,
    grows with s (s > 400).  2% of n ~ 1e5 cells still moves every knot
    across many cells, and keeps the work, the memory and the order of
    the slowest cases comparable across seeds."""
    width = 0.1 if s <= 400.0 else 0.02
    return s * rng.uniform(1.0 - width, 1.0 + width)


def robin_ladder(seed):
    rng = random.Random(seed)
    cases = [PredictCase("t1/predict", "t1", T1, T1_C, NEUMANN,
                         expect_terms=3, expect_value=2.0)]
    for s in LADDER_S:
        cases.append(SolveCase(f"t1/s{s:g}", "t1", T1, T1_C, NEUMANN,
                               _jitter(rng, s), T1_MASSES,
                               limit=2.0 if s >= 400 else None))
    # The constant-c twin stays at the nominal s: its error falls smoothly
    # as 1/s, so a jittered s would move lambda_err_max between seeds.
    level = rng.uniform(0.0, 1.0)
    for s in LADDER_S:
        cases.append(SolveCase(f"t1-const/s{s:g}", "t1", T1, poly(level), NEUMANN,
                               s, T1_MASSES, ref=level))
    for s in (100.0, 1000.0, 1e4):
        s = _jitter(rng, s)
        cases.append(SolveCase(f"line/s{s:.0f}", "monotone_increasing", (), poly(0.0),
                               DIRICHLET, s, ((0.0, 0.5), (0.5, 1.0)),
                               ref=oracles.dirichlet_line(s)))
    for i in range(8):
        s = 25.0 * 16.0 ** (i / 7)      # 8-point log ladder from 25 to 400
        cases.append(SolveCase(f"t2-ladder/s{s:.1f}", "t2", T2, T2_C, T2_BC, s, T2_MASSES))
    cases.append(SolveCase("power_max/s400", "power_max", (0.5, 2.0), poly(0.0),
                           NEUMANN, 400.0, ((0.45, 0.55),), ref=0.0, rescale_x0=0.5))
    return cases


# -- periodic_ladder ------------------------------------------------------

# 1-periodic (circle distance to 0.25)^2 + 0.3: the criterion-5 potential
C5 = ((0.0, 0.75, 1.0), ((0.3625, -0.5, 1.0), (0.55, -1.0, 1.0)))


def periodic_ladder(seed):
    # The cyclic solve costs ~n, so a 2% jitter keeps wall_s comparable
    # across seeds while still moving every knot across many cells.
    rng = random.Random(seed)
    cases = [PredictCase("c5/predict", "periodic_bump", (0.25,), C5, None,
                         expect_value=0.3)]
    for s in (100.0, 400.0):
        cases.append(SolveCase(f"c5/s{s:g}", "periodic_bump", (0.25,), C5, None,
                               s * rng.uniform(0.98, 1.02), ((0.15, 0.35),), limit=0.3))
    x0 = rng.uniform(0.2, 0.35)
    level = rng.uniform(0.0, 1.0)
    for s in (100.0, 400.0):
        cases.append(SolveCase(f"bump20/s{s:g}", "periodic_bump", (x0, 20.0),
                               poly(level), None, s * rng.uniform(0.98, 1.02),
                               ((x0 - 0.05, x0 + 0.05),), ref=level))
    return cases


# -- predict_mix ----------------------------------------------------------

def _breakpoints(rng, k, gap=0.05):
    """k ascending points in (0, 1), every gap (ends included) >= gap."""
    weights = [rng.expovariate(1.0) for _ in range(k + 1)]
    free = 1.0 - (k + 1) * gap
    pts, x = [], 0.0
    for w in weights[:-1]:
        x += gap + free * w / sum(weights)
        pts.append(round(x, 6))
    return tuple(pts)


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


MIX_TEMPLATES = {
    "example1": lambda rng: _breakpoints(rng, 4),
    "example2": lambda rng: _breakpoints(rng, 2),
    "example3": lambda rng: _breakpoints(rng, 2),
    "t1": lambda rng: _breakpoints(rng, 5),
    "t2": lambda rng: _breakpoints(rng, 6),
    "monotone_increasing": lambda rng: (),
    "line_down": lambda rng: (),
    "vee": lambda rng: (_u(rng, 0.3, 0.7), _u(rng, 0.1, 0.5)),
    "power_max": lambda rng: (_u(rng, 0.3, 0.7), float(rng.choice((2, 4, 6))),
                              _u(rng, 0.5, 2.0)),
    "power_well": lambda rng: (_u(rng, 0.3, 0.7), float(rng.choice((1, 2, 3))),
                               _u(rng, 0.5, 2.0)),
    "periodic_bump": lambda rng: (_u(rng, 0.15, 0.45), _u(rng, 0.5, 5.0)),
}


def _mix_bc(rng, kind):
    if kind == "neumann":
        return NEUMANN
    if kind == "dirichlet":
        return DIRICHLET
    ell = _u(rng, 0.2, 2.0)
    return (1.0, ell, 1.0, 0.0) if kind == "robin_left" else (1.0, 0.0, 1.0, ell)


def _mix_c(rng, kind, periodic):
    if kind == "zero":
        return poly(0.0)
    if kind == "const":
        return poly(_u(rng, -1.0, 3.0))
    c2 = _u(rng, 0.0, 4.0)
    c1 = -c2 if periodic else _u(rng, -2.0, 2.0)   # periodic data needs c(0) = c(1)
    return poly(_u(rng, 0.0, 2.0), c1, c2)


def predict_mix(seed):
    """Every template under every kind of boundary data and potential,
    once through the API and once through the CLI (line_down has no
    template, so both of its cases use the API)."""
    rng = random.Random(seed)
    cases = []
    combos = [(t, b) for t in MIX_TEMPLATES
              for b in ("neumann", "dirichlet", "robin_left", "robin_right")]
    combos.append(("periodic_bump", "periodic"))
    for template, bc_kind in combos:
        for c_kind in ("zero", "const", "quadratic"):
            for route in ("api", "cli"):
                bc = None if bc_kind == "periodic" else _mix_bc(rng, bc_kind)
                params = MIX_TEMPLATES[template](rng)
                c = _mix_c(rng, c_kind, bc is None)
                case_id = f"{template}/{bc_kind}/{c_kind}/{route}"
                if route == "cli" and template != "line_down":
                    cases.append(CliCase(case_id, template, params, c, bc))
                else:
                    cases.append(PredictCase(case_id, template, params, c, bc))
    # A DD plateau at the narrowest width the generator allows: the
    # predictor's grid error is largest there, so every seed measures
    # lambda_err_max at the same geometry.
    cases.append(PredictCase("t2/narrowest-DD", "t2", (0.1, 0.25, 0.3, 0.45, 0.6, 0.8),
                             poly(_u(rng, -1.0, 3.0)), NEUMANN))
    cases.append(LimitOdeCase("limit_ode/k2", -2.0, 2, y_max=6.0))
    cases.append(LimitOdeCase("limit_ode/k4", -24.0, 4))
    # the criterion-1 analytic sub-interval oracles
    cases.append(OracleCase("oracle/DD", 0.0, 1.0, "D", "D", 2000))
    cases.append(OracleCase("oracle/ND", 0.4, 0.6, "N", "D", 2000))
    cases.append(OracleCase("oracle/NN", 0.25, 0.85, "N", "N", 2000))
    return cases


WORKLOADS = {"robin_ladder": robin_ladder, "periodic_ladder": periodic_ladder,
             "predict_mix": predict_mix}
