"""Exact answers and coarse pass/fail checks for the adveig benchmark.

Every reference here is a closed form, never a value the library
computed:

- lambda = c for constant c under Neumann or periodic data, for any
  profile and any s;
- lambda = s^2 + pi^2 for m(x) = x and c = 0 under Dirichlet data;
- -phi'' + c phi on an interval of length L with constant c:
  c (NN), c + (pi/2L)^2 (ND, DN), c + (pi/L)^2 (DD); a Robin end lies
  between its Neumann and Dirichlet versions;
- the boundedness trichotomy for profiles whose local maxima are all
  boundary points.

The checks are coarse: they catch wrong answers, not grid error.
Accuracy is graded separately by the relative error against these
references, which the benchmark reports as measured.
A problem tagged KNOWN_DEFECT is a known fault of the library that the
benchmark reports beside its result instead of failing the case (see
_argmin_problems).
"""

from __future__ import annotations

import math
from bisect import bisect_right

EXACT_TOL = 2e-2      # relative; today's worst grid error is ~7e-3
GAP_TOL = 0.02        # |lambda(s) - predicted limit| for s >= 400
MASS_TOL = 1e-6
CLI_RTOL = 1e-10      # the CLI prints 12 significant digits
GAUSS_TOL = 0.05      # sup |W - Gaussian| of the rescaled k* = 2 profile
E0_TOL = 1e-3         # ground energy of the limit ODE, exactly 0
TIE_FACTOR = 4.0      # predict_limit's argmin tie tolerance, in error estimates
ARGMIN_ABS = 1e-6     # argmin members closer than this to the minimum are ties
# prefix of a problem that is a known library defect, reported, not failed
KNOWN_DEFECT = "known defect: "

NEUMANN = (1.0, 0.0, 1.0, 0.0)
DIRICHLET = (0.0, 1.0, 0.0, 1.0)

# templates whose local maxima are boundary points only, with that set
BOUNDARY_MAXIMA = {"monotone_increasing": {1}, "line_down": {0},
                   "vee": {0, 1}, "power_well": {0, 1}}


def rel_err(lam: float, ref: float) -> float:
    return abs(lam - ref) / max(1.0, abs(ref))


def exact_ok(lam: float, ref: float, tol: float = EXACT_TOL) -> bool:
    return math.isfinite(lam) and rel_err(lam, ref) <= tol


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def dirichlet_line(s: float) -> float:
    """Principal eigenvalue for m(x) = x, c = 0 under Dirichlet data."""
    return s * s + math.pi ** 2


def interval_mu(left: str, right: str, length: float) -> float:
    """Principal eigenvalue of -phi'' on an interval with N/D ends."""
    share = {"NN": 0.0, "ND": 0.25, "DN": 0.25, "DD": 1.0}[left + right]
    return share * (math.pi / length) ** 2


def closure_bracket(kind_letter: str, robin_pair):
    """(lower, upper) N/D stand-ins for one end of a limit term.  An R
    end inherits the global (hbar, ell) pair at that boundary."""
    if kind_letter != "R":
        return kind_letter, kind_letter
    hbar, ell = robin_pair
    if ell == 0.0:
        return "N", "N"
    if hbar == 0.0:
        return "D", "D"
    return "N", "D"


def piecewise_eval(c, x: float) -> float:
    """Evaluate a (knots, segments) potential, local coordinate per piece."""
    knots, segments = c
    i = min(bisect_right(knots, x), len(segments)) - 1
    t = x - knots[i]
    acc = 0.0
    for coef in reversed(segments[i]):
        acc = acc * t + coef
    return acc


def poly_range(c, a: float, b: float):
    """(min, max) on [a, b] of a single-piece potential of degree <= 2."""
    knots, segments = c
    if len(segments) != 1 or len(segments[0]) > 3:
        raise ValueError("poly_range handles one quadratic piece")
    pts = [a, b]
    coeffs = tuple(segments[0]) + (0.0,) * (3 - len(segments[0]))
    if coeffs[2] != 0.0:
        vertex = knots[0] - coeffs[1] / (2.0 * coeffs[2])
        if a < vertex < b:
            pts.append(vertex)
    vals = [piecewise_eval(c, x) for x in pts]
    return min(vals), max(vals)


def expected_case(template: str, bc):
    """Unbounded case tag (i-1, i-2, i-3) the trichotomy gives, or None
    for a finite limit.  bc is a Robin tuple, or None for periodic data."""
    maxima = BOUNDARY_MAXIMA.get(template)
    if bc is None or maxima is None:
        return None
    _, ell1, _, ell2 = bc
    if ell1 > 0 and ell2 > 0:
        return "i-1"
    if ell1 > 0 and ell2 == 0 and maxima == {0}:
        return "i-2"
    if ell1 == 0 and ell2 > 0 and maxima == {1}:
        return "i-3"
    return None


def check_prediction(pred, c, bc, template, errors):
    """Problems found in a LimitPrediction; appends the relative error of
    every term with an exact reference to errors."""
    want = expected_case(template, bc)
    if want is not None:
        if pred.finite or pred.case != want:
            return [f"verdict {pred.verdict}/{pred.case}, expected {want}"]
        return []
    if not pred.finite:
        return [f"unbounded ({pred.case}), expected finite"]
    problems = []
    values = [t.value for t in pred.terms]
    if not values or not close(pred.value, min(values), 1e-12):
        problems.append("value is not the minimum term")
    problems += _argmin_problems(pred, values)
    pairs = ((bc[0], bc[1]), (bc[2], bc[3])) if bc else ((1.0, 0.0), (1.0, 0.0))
    for t in pred.terms:
        if t.kind == "c_at_point":
            if not close(t.value, piecewise_eval(c, t.source.x), 1e-9):
                problems.append(f"c term at {t.source.x} is {t.value}")
            continue
        a, b = t.interval
        lo_l, hi_l = closure_bracket(t.kind[0], pairs[0])
        lo_r, hi_r = closure_bracket(t.kind[1], pairs[1])
        cmin, cmax = poly_range(c, a, b)
        lower = cmin + interval_mu(lo_l, lo_r, b - a)
        upper = cmax + interval_mu(hi_l, hi_r, b - a)
        if not (lower - EXACT_TOL * max(1.0, abs(lower)) <= t.value
                <= upper + EXACT_TOL * max(1.0, abs(upper))):
            problems.append(f"{t.kind} term {t.value} outside [{lower}, {upper}]")
        elif cmin == cmax and lower == upper:
            errors.append(rel_err(t.value, lower))
    return problems


def _argmin_problems(pred, values):
    """The argmin set against the predictor's tie rule.

    predict_limit keeps in argmin every term within TIE_FACTOR times the
    largest error estimate of any of its terms of the minimum, so that
    ties are reported in full.  A failure is an argmin that misses an
    exact minimizer or holds a term outside that tolerance.  A term
    inside it that its own error estimate and the minimizer's tell apart
    from the minimum is a known defect of that rule: one wide error
    estimate (a narrow DD plateau) widens the tolerance for every term.
    It is returned tagged with KNOWN_DEFECT; the run reports it beside
    the result, not as a failed case.
    """
    if not values or not pred.argmin or any(not 0 <= i < len(values) for i in pred.argmin):
        return ["argmin is empty or indexes no term"]
    errs = [t.error_estimate for t in pred.terms]
    tie_tol = max(1e-9, TIE_FACTOR * max(errs))
    best = min(range(len(values)), key=values.__getitem__)
    problems = []
    for i, v in enumerate(values):
        if i not in pred.argmin and v <= pred.value:
            problems.append(f"argmin misses term {i}, which attains the minimum")
    for i in pred.argmin:
        gap = values[i] - pred.value
        if gap > tie_tol:
            problems.append(f"argmin holds term {i}, {gap:.3g} above the minimum")
        elif gap > ARGMIN_ABS + TIE_FACTOR * (errs[i] + errs[best]):
            problems.append(f"{KNOWN_DEFECT}argmin holds term {i} ({pred.terms[i].kind}), "
                            f"{gap:.3g} above the minimum, inside the tie tolerance "
                            f"{tie_tol:.3g} that another term's error estimate sets")
    return problems


def _source_matches(term_json, term):
    src = term_json["source"]
    if hasattr(term.source, "cls"):
        return (src.get("type") == "segment" and src["class"] == term.source.cls
                and close(src["a"], term.source.a, CLI_RTOL)
                and close(src["b"], term.source.b, CLI_RTOL))
    return (src.get("type") == "isolated" and src["position"] == term.source.position
            and close(src["x"], term.source.x, CLI_RTOL))


def compare_cli(predict_json, classify_json, pred, decomp):
    """Problems in the CLI's predict and classify JSON against the API."""
    problems = []
    if predict_json["verdict"] != pred.verdict:
        problems.append("CLI verdict differs")
    elif not pred.finite:
        if predict_json["case"] != pred.case:
            problems.append("CLI unbounded case differs")
    else:
        terms = predict_json["terms"]
        if (not close(predict_json["value"], pred.value, CLI_RTOL)
                or predict_json["argmin"] != list(pred.argmin)
                or len(terms) != len(pred.terms)):
            problems.append("CLI prediction differs")
        else:
            for tj, t in zip(terms, pred.terms):
                if (tj["kind"] != t.kind or not close(tj["value"], t.value, CLI_RTOL)
                        or not _source_matches(tj, t)):
                    problems.append(f"CLI term {t.kind} differs")
    iso, seg = classify_json["isolated"], classify_json["segments"]
    if len(iso) != len(decomp.isolated) or len(seg) != len(decomp.segments):
        return problems + ["CLI classify component count differs"]
    for pj, p in zip(iso, decomp.isolated):
        if (pj["position"] != p.position or pj["k_star"] != p.k_star
                or not close(pj["x"], p.x, CLI_RTOL)):
            problems.append(f"CLI isolated max at {p.x} differs")
    for sj, s in zip(seg, decomp.segments):
        if (sj["class"] != s.cls or not close(sj["a"], s.a, CLI_RTOL)
                or not close(sj["b"], s.b, CLI_RTOL)):
            problems.append(f"CLI segment {s.cls} differs")
    return problems
