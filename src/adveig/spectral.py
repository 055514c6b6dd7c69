"""Principal (smallest) eigenpair of a symmetric tridiagonal matrix,
optionally with a cyclic corner coupling entries 1 and n.

One shift-and-certify loop serves both kinds, built on two facts
(Parlett, The Symmetric Eigenvalue Problem): a banded Cholesky of
T - sigma I succeeds exactly when sigma lies below the smallest
eigenvalue (Sylvester inertia), and every Rayleigh quotient lies at or
above it.  A cyclic corner enters as a rank-one Sherman-Morrison term,
solved as a second right-hand side of the same factorization; a
non-cyclic matrix is the case without it.

The bracket [lo, hi] starts as the Gershgorin window, the vector as the
constant one and the shift just below the window.  A Cholesky that
succeeds raises lo to sigma and takes one inverse-iteration step, whose
Rayleigh quotient lowers hi; one that fails lowers hi to sigma.  The
next shift lies just below the smaller of the Rayleigh quotient and the
Collatz-Wielandt estimate min_i (Tv)_i / v_i when that is inside the
bracket; otherwise it bisects the bracket.  For nonpositive
offdiagonals the estimate is a lower bound and the loop is Noda's
iteration, which converges superlinearly.  Once the bracket is 2 delta
wide, inverse iteration continues at the certified shift until the
Rayleigh quotient stalls, and the residual is checked.  Iterating from
a positive vector, such matrices get an entrywise positive,
deterministic principal vector, also when their smallest eigenvalues
form a numerically degenerate cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from .errors import NoConvergence, NonFinite

RESIDUAL_TOL = 1e-8
TOL_LAMBDA = 1e-10   # certificate margin floor and Rayleigh-quotient stall test
MAX_STEPS = 100   # Cholesky factorizations per eigenpair; ~50 bisections close any bracket


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


def _fix_sign(v):
    i = int(np.argmax(np.abs(v)))
    return v if v[i] > 0 else -v


def _delta(T):
    """Certificate margin: TOL_LAMBDA, widened to the backward-error
    scale eps*||T|| below which the Cholesky test of the rounded matrix
    is not meaningful."""
    return max(TOL_LAMBDA, 64 * np.finfo(float).eps * T.inf_norm())


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


def _cyclic_definite_below(T, split, sigma, v=None):
    """(C - sigma I)^{-1} v, with v = u by default, when C - sigma I is
    positive definite, else None.  Since beta < 0, that holds iff the
    Cholesky of B - sigma I succeeds and 1 + beta u^T (B - sigma I)^{-1} u
    > 0; v and u are the two right-hand sides of that one factorization,
    combined by Sherman-Morrison."""
    d, beta, u = split
    yz = _cholesky_solve(d, T.offdiag, sigma,
                         np.column_stack((u if v is None else v, u)))
    if yz is None:
        return None
    y, z = yz.T
    denom = 1.0 + beta * (u @ z)
    return y - z * (beta * (u @ y) / denom) if denom > 0.0 else None


def smallest_eig(T: SymTridiag) -> EigenPair:
    """Principal (smallest) eigenpair; the vector's global sign is fixed
    so that its largest-magnitude entry is positive, which makes it
    entrywise positive for matrices with nonpositive offdiagonals."""
    if T.n == 1:                       # a 1x1 matrix has no corner entry
        return EigenPair(float(T.diag[0]), np.array([1.0]), 0.0)
    split = None if T.corner is None else _rank_one_split(T)
    delta = _delta(T)
    lo, hi = T.gershgorin()
    lo -= delta                        # T - lo I is strictly diagonally dominant
    sigma = lo
    v = np.full(T.n, 1.0 / math.sqrt(T.n))
    last = prev = rq = cw = math.inf
    for _ in range(MAX_STEPS):
        if split is None:
            w = _cholesky_solve(T.diag, T.offdiag, sigma, v)
        else:
            w = _cyclic_definite_below(T, split, sigma, v)
        if w is None:
            hi = sigma
        else:
            lo = sigma
            norm = np.linalg.norm(w)
            if not np.isfinite(norm) or norm == 0.0:
                raise NonFinite("inverse iteration produced non-finite vector")
            # Collatz-Wielandt estimate: (Tw)_i / w_i = sigma + v_i / w_i
            cw = sigma + float((v / w).min()) if np.all(w > 0) else math.inf
            v = w / norm
            Tv = T.matvec(v)
            rq = float(v @ Tv)
            hi = min(hi, rq)
            if hi - lo <= 2 * delta and sigma == last and prev - rq <= TOL_LAMBDA:
                res = float(np.linalg.norm(Tv - rq * v) / max(T.inf_norm(), 1e-300))
                if res <= RESIDUAL_TOL:
                    return EigenPair(rq, _fix_sign(v), res)
            last, prev = sigma, rq
        if hi - lo > 2 * delta:
            guess = min(rq, cw) - delta
            sigma = guess if lo < guess < hi else 0.5 * (lo + hi)
        else:
            sigma = lo                 # certified: iterate until rq stalls
    raise NoConvergence(MAX_STEPS, f"bracket [{lo!r}, {hi!r}]")
