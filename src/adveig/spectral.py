"""Smallest-eigenpair solvers for symmetric (cyclic-)tridiagonal matrices.

Every eigenvalue is certified with two LAPACK-speed facts (Parlett, The
Symmetric Eigenvalue Problem): a banded Cholesky of T - sigma I succeeds
exactly when sigma lies below the smallest eigenvalue (Sylvester
inertia), and any Rayleigh quotient is at least the smallest eigenvalue.

The non-cyclic path is LAPACK's bisection + inverse iteration
(stebz/stein via scipy.linalg.eigh_tridiagonal).  One inverse-iteration
step by Cholesky of T - (lam - delta) I then certifies lam - delta from
below, and its Rayleigh quotient, at most lam + delta, from above.
Cyclic matrices have no LAPACK route: there the Cholesky test, extended
to the corner coupling by a rank-one (Sherman-Morrison) term, drives a
bisection over the Gershgorin window, followed by inverse iteration at
the certified shift with Rayleigh-quotient refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, solveh_banded

from .errors import NoConvergence, NonFinite

RESIDUAL_TOL = 1e-8
DEFAULT_TOL_LAMBDA = 1e-10


@dataclass(frozen=True)
class SymTridiag:
    """Symmetric tridiagonal matrix, optionally with a cyclic corner
    coupling entries 1 and n."""
    diag: np.ndarray
    offdiag: np.ndarray
    corner: float | None = None

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("diag must be a nonempty 1-D vector")
        if e.shape != (d.size - 1,):
            raise ValueError("offdiag must have length n - 1")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise NonFinite("matrix entries must be finite")
        if self.corner is not None and not np.isfinite(self.corner):
            raise NonFinite("corner must be finite")

    @property
    def n(self):
        return self.diag.size

    def matvec(self, v):
        out = self.diag * v
        if self.n > 1:
            out[:-1] += self.offdiag * v[1:]
            out[1:] += self.offdiag * v[:-1]
        if self.corner is not None and self.n > 1:
            out[0] += self.corner * v[-1]
            out[-1] += self.corner * v[0]
        return out

    def _radii(self):
        """Row sums of the absolute offdiagonal entries."""
        r = np.zeros(self.n)
        if self.n > 1:
            r[:-1] += np.abs(self.offdiag)
            r[1:] += np.abs(self.offdiag)
        if self.corner is not None and self.n > 1:
            r[0] += abs(self.corner)
            r[-1] += abs(self.corner)
        return r

    def inf_norm(self):
        return float((np.abs(self.diag) + self._radii()).max())

    def gershgorin(self):
        r = self._radii()
        return float((self.diag - r).min()), float((self.diag + r).max())

    def dense(self):
        a = np.diag(self.diag)
        if self.n > 1:
            a += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
            if self.corner is not None:
                a[0, -1] += self.corner
                a[-1, 0] += self.corner
        return a


@dataclass(frozen=True)
class EigenPair:
    lam: float
    vector: np.ndarray
    residual: float           # ||T v - lam v||_2 / ||T||_inf


def _residual(T, lam, v):
    return float(np.linalg.norm(T.matvec(v) - lam * v) / max(T.inf_norm(), 1e-300))


def _fix_sign(v):
    i = int(np.argmax(np.abs(v)))
    return v if v[i] > 0 else -v


def _delta(T, tol_lambda):
    """Certificate margin: tol_lambda, widened to the backward-error
    scale eps*||T|| below which the Cholesky test of the rounded matrix
    is not meaningful."""
    return max(tol_lambda, 64 * np.finfo(float).eps * T.inf_norm())


def _cholesky_solve(diag, offdiag, sigma, rhs):
    """(tridiag(offdiag, diag, offdiag) - sigma I)^{-1} rhs by banded
    Cholesky (no pivoting), or None when that matrix is not positive
    definite.  A result is the certificate that sigma lies below its
    smallest eigenvalue.

    With negative offdiagonals the shifted matrix is then an M-matrix:
    the substitution sweeps involve no cancellation, so a nonnegative
    rhs yields a strictly positive result even in floating point.
    """
    ab = np.empty((2, diag.size))
    ab[0, 0] = 0.0
    ab[0, 1:] = offdiag
    ab[1] = diag - sigma
    try:
        return solveh_banded(ab, rhs, overwrite_ab=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None


def _rank_one_split(T):
    """(d, beta, u) with cyclic C = B + beta u u^T: beta = -|corner| < 0,
    u = e_1 - sign(corner) e_n, and B = tridiag(offdiag, d, offdiag) the
    tridiagonal part with |corner| added to both corner diagonals."""
    beta = -abs(T.corner)
    u = np.zeros(T.n)
    u[0] = 1.0
    u[-1] = -math.copysign(1.0, T.corner)
    d = T.diag.copy()
    d[0] -= beta
    d[-1] -= beta
    return d, beta, u


def _cyclic_definite_below(T, split, sigma):
    """(B - sigma I)^{-1} u when C - sigma I is positive definite, else
    None.  Since beta < 0, that holds iff the Cholesky of B - sigma I
    succeeds and 1 + beta u^T (B - sigma I)^{-1} u > 0."""
    d, beta, u = split
    z = _cholesky_solve(d, T.offdiag, sigma, u)
    return z if z is not None and 1.0 + beta * (u @ z) > 0.0 else None


def _smallest_eig_lapack(T: SymTridiag, tol_lambda: float,
                         max_iterations: int = 6) -> EigenPair:
    if T.n == 1:
        return EigenPair(float(T.diag[0]), np.array([1.0]), 0.0)
    try:
        w, v = eigh_tridiagonal(T.diag, T.offdiag, select="i", select_range=(0, 0),
                                tol=tol_lambda, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(1, f"LAPACK stebz/stein: {exc}") from exc
    lam = float(w[0])
    vec = _fix_sign(v[:, 0].copy())
    if not np.isfinite(lam) or not np.all(np.isfinite(vec)):
        raise NonFinite("eigensolve produced non-finite values")
    # inverse iteration from just below lam: the first Cholesky is the
    # lower certificate, and the steps regenerate entries that inverse
    # iteration inside LAPACK flushed to zero
    delta = _delta(T, tol_lambda)
    sigma = lam - delta
    seed = np.maximum(vec, 0.0)
    vec = seed if np.any(seed > 0) else np.ones(T.n)
    for _ in range(max_iterations):
        vec = _cholesky_solve(T.diag, T.offdiag, sigma, vec)
        if vec is None:
            raise NoConvergence(1, "Cholesky of T - (lam - delta) I failed: "
                                   "lam is above the smallest eigenvalue")
        norm = np.linalg.norm(vec)
        if not np.isfinite(norm) or norm == 0.0:
            raise NonFinite("inverse iteration produced non-finite vector")
        vec /= norm
        rq = float(vec @ T.matvec(vec))
        res = _residual(T, rq, vec)
        if res <= RESIDUAL_TOL:
            break
    else:
        raise NoConvergence(max_iterations, f"residual {res:.2e}")
    # upper certificate: the Rayleigh quotient bounds the smallest
    # eigenvalue from above
    if rq > lam + delta:
        raise NoConvergence(1, f"Rayleigh quotient {rq!r} above lam + delta "
                               f"= {lam + delta!r}")
    return EigenPair(rq, _fix_sign(vec), res)


def _smallest_eig_cyclic(T: SymTridiag, tol_lambda: float,
                         max_iterations: int = 60) -> EigenPair:
    # bracket the smallest eigenvalue by bisection on the Cholesky test,
    # starting from the Gershgorin window
    split = _rank_one_split(T)
    lo, hi = T.gershgorin()
    delta = _delta(T, tol_lambda)
    while hi - lo > delta:
        mid = 0.5 * (lo + hi)
        if _cyclic_definite_below(T, split, mid) is None:
            hi = mid
        else:
            lo = mid
    sigma = lo - delta                # certified just below the eigenvalue
    z = _cyclic_definite_below(T, split, sigma)
    if z is None:
        raise NoConvergence(1, "Cholesky test failed below the certified bracket")
    d, beta, u = split
    gain = beta / (1.0 + beta * (u @ z))
    v = np.ones(T.n) / math.sqrt(T.n)
    for _ in range(max_iterations):
        # Sherman-Morrison: (C - sigma I)^{-1} v from B - sigma I, whose
        # Cholesky succeeded for z
        y = _cholesky_solve(d, T.offdiag, sigma, v)
        w = y - z * (gain * (u @ y))
        norm = np.linalg.norm(w)
        if not np.isfinite(norm) or norm == 0.0:
            raise NonFinite("inverse iteration produced non-finite vector")
        v = w / norm
        lam = float(v @ T.matvec(v))   # Rayleigh-quotient refinement
        res = _residual(T, lam, v)
        if res <= RESIDUAL_TOL:
            return EigenPair(lam, _fix_sign(v), res)
    raise NoConvergence(max_iterations, "cyclic inverse iteration")


def smallest_eig(T: SymTridiag, tol_lambda: float = DEFAULT_TOL_LAMBDA) -> EigenPair:
    """Principal (smallest) eigenpair; the vector's global sign is fixed
    so that its largest-magnitude entry is positive, which makes it
    entrywise positive for matrices with nonpositive offdiagonals."""
    if tol_lambda <= 0:
        raise ValueError("tol_lambda must be positive")
    if T.corner is None or T.n == 1:   # a 1x1 matrix has no corner entry
        return _smallest_eig_lapack(T, tol_lambda)
    return _smallest_eig_cyclic(T, tol_lambda)
