"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately use different algorithms than the library:
characteristic-polynomial Sturm sequences with bisection for
tridiagonal eigenvalues, LDL^T pivot-sign (Sturm and bordered cyclic
inertia) counts, dense numpy eigensolves for cyclic matrices, and
closed-form eigenvalues where they exist.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adveig.profile import ProfileSpec, SIGN_TAGS


def charpoly_count_below(diag, offdiag, lam):
    """Eigenvalues of the tridiagonal matrix strictly below lam, by sign
    variations of the characteristic-polynomial sequence."""
    d = np.asarray(diag, dtype=float)
    e = np.asarray(offdiag, dtype=float)
    p_prev, p = 1.0, d[0] - lam
    signs = [1.0, p]
    for k in range(1, d.size):
        p_prev, p = p, (d[k] - lam) * p - e[k - 1] ** 2 * p_prev
        # rescale to dodge overflow; only signs matter
        scale = max(abs(p), abs(p_prev), 1.0)
        p, p_prev = p / scale, p_prev / scale
        signs.append(p)
    count = 0
    prev = 1.0
    for v in signs[1:]:
        if v == 0.0:
            v = -prev      # zero counts as a sign change (eigenvalue hit)
        if v * prev < 0:
            count += 1
        prev = v
    return count


def sturm_count(T, lam):
    """Number of eigenvalues of a non-cyclic SymTridiag T strictly below lam.

    Standard LDL^T sign recurrence; zero pivots are nudged by a tiny
    offdiagonal-scaled amount, the usual underflow guard.
    """
    if T.corner is not None:
        raise ValueError("Sturm counting applies to non-cyclic matrices")
    d = T.diag
    e = T.offdiag
    eps = np.finfo(float).eps
    count = 0
    piv = d[0] - lam
    if piv < 0:
        count += 1
    for i in range(1, T.n):
        if piv == 0.0:
            piv = eps * max(abs(e[i - 1]), eps)
        piv = (d[i] - lam) - e[i - 1] * e[i - 1] / piv
        if piv < 0:
            count += 1
    return count


def cyclic_inertia_below(T, lam):
    """Number of eigenvalues of a cyclic SymTridiag T strictly below lam.

    Bordered LDL^T: rows are eliminated in order while the last column
    (carrying the corner coupling) is kept as a dense border, so the
    pivot signs of (T - lam I) come out in O(n); negative pivot count
    equals the eigenvalue count by Sylvester's law.
    """
    if T.corner is None:
        return sturm_count(T, lam)
    n = T.n
    d = T.diag
    e = T.offdiag
    beta = T.corner
    eps = np.finfo(float).eps
    guard = eps * max(T.inf_norm(), eps)
    count = 0
    piv = d[0] - lam
    fill = beta                       # current A[i, n-1] after elimination
    acc = 0.0                         # accumulated border Schur correction
    for i in range(n - 2):
        if piv == 0.0:
            piv = guard
        if piv < 0:
            count += 1
        acc += fill * fill / piv
        ratio = e[i] / piv
        nxt_fill = (e[n - 2] if i + 1 == n - 2 else 0.0) - ratio * fill
        piv = (d[i + 1] - lam) - e[i] * ratio
        fill = nxt_fill
    if piv == 0.0:
        piv = guard
    if piv < 0:
        count += 1
    acc += fill * fill / piv
    last = (d[n - 1] - lam) - acc
    if last < 0:
        count += 1
    return count


def charpoly_smallest(diag, offdiag, tol=1e-12):
    """Smallest eigenvalue by bisection on charpoly_count_below."""
    d = np.asarray(diag, dtype=float)
    e = np.asarray(offdiag, dtype=float)
    r = np.zeros(d.size)
    if d.size > 1:
        r[:-1] += np.abs(e)
        r[1:] += np.abs(e)
    lo, hi = float((d - r).min()), float((d + r).max())
    scale = max(abs(lo), abs(hi), 1.0)
    while hi - lo > tol * scale:
        mid = 0.5 * (lo + hi)
        if charpoly_count_below(d, e, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# one parameter tuple per builtin template
TEMPLATE_PARAMS = {"example1": (0.15, 0.4, 0.6, 0.85), "example2": (0.3, 0.7),
                   "example3": (0.35, 0.6), "t1": (0.15, 0.3, 0.45, 0.6, 0.8),
                   "t2": (0.1, 0.25, 0.4, 0.55, 0.7, 0.85),
                   "monotone_increasing": (), "vee": (0.5,),
                   "power_max": (0.5, 2), "power_well": (0.5, 2),
                   "periodic_bump": (0.25,)}


def reflect_spec(spec: ProfileSpec) -> ProfileSpec:
    """Spec of the reflected profile m(1 - x)."""
    knots = tuple(1.0 - k for k in reversed(spec.knots))
    segments = []
    signs = []
    for seg, tag, a, b in zip(spec.segments, spec.declared_signs,
                              spec.knots, spec.knots[1:]):
        w = b - a
        # coefficients of p(w - u): shift by w, then u -> -u
        shifted = _shift(seg, w)
        segments.append(tuple(c * (-1.0) ** j for j, c in enumerate(shifted)))
        signs.append({1: "decreasing", -1: "increasing", 0: "constant"}[SIGN_TAGS[tag]])
    return ProfileSpec(knots, tuple(reversed(segments)), tuple(reversed(signs)))


def _shift(coeffs, s):
    n = len(coeffs)
    out = [0.0] * n
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += c * math.comb(i, j) * s ** (i - j)
    return out


def scale_spec(spec: ProfileSpec, alpha, beta) -> ProfileSpec:
    """Spec of alpha*m + beta."""
    segments = []
    for seg in spec.segments:
        seg = [alpha * c for c in seg]
        seg[0] += beta
        segments.append(tuple(seg))
    signs = spec.declared_signs if alpha > 0 else tuple(
        {"increasing": "decreasing", "decreasing": "increasing",
         "constant": "constant"}[t] for t in spec.declared_signs)
    return ProfileSpec(spec.knots, tuple(segments), signs)


def run_fresh(script, *args):
    """stdout of `script` run by a new interpreter that imports adveig
    from this checkout's src; a nonzero exit fails the test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240813)
