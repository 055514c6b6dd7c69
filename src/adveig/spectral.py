"""Principal (smallest) eigenpair of a symmetric tridiagonal matrix,
optionally with a cyclic corner coupling entries 1 and n.

One shift-and-certify loop serves both kinds, built on two facts
(Parlett, The Symmetric Eigenvalue Problem): the LDL^T factorization
(LAPACK dpttrf) of T - sigma I has positive pivots exactly when sigma
lies below the smallest eigenvalue (Sylvester inertia), and every
Rayleigh quotient lies at or above it.  A cyclic corner enters as a
rank-one Sherman-Morrison term, whose vector is solved once per shift
with the same factorization; a non-cyclic matrix is the case without
it.

The bracket [lo, hi] starts as the Gershgorin window, the vector as the
constant one and the shift just below the window.  A factorization that
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

A call costs one factorization per distinct shift (plus one solve for
the corner's vector when cyclic) and one solve per step: the steps at
the final certified shift are a solve each.  It holds three n-vectors
besides the factors.

Both LAPACK routines load scipy at the first factorization, so code
that solves no eigenproblem never imports it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonFinite

RESIDUAL_TOL = 1e-8
TOL_LAMBDA = 1e-10   # certificate margin floor and Rayleigh-quotient stall test
# Steps per eigenpair: each factors its shift unless it repeats the last
# one, and solves once if the shift is certified; ~50 bisections close
# any bracket.
MAX_STEPS = 100


@functools.cache
def _lapack():
    """scipy.linalg.lapack, imported at the first factorization; a
    repeated or concurrent first import (sweeps on threads) is harmless."""
    from scipy.linalg import lapack
    return lapack


def dpttrf(*args, **kwargs):
    """LAPACK dpttrf: LDL^T factors of a tridiagonal matrix; info > 0 if
    it is not positive definite."""
    return _lapack().dpttrf(*args, **kwargs)


def dpttrs(*args, **kwargs):
    """LAPACK dpttrs: a solve with the factors from dpttrf."""
    return _lapack().dpttrs(*args, **kwargs)


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

    def _matvec_into(self, v, out, tmp):
        """T v written into out; tmp (n - 1 entries) is scratch."""
        np.multiply(self.diag, v, out=out)
        if self.n > 1:
            np.add(out[:-1], np.multiply(self.offdiag, v[1:], out=tmp), out=out[:-1])
            np.add(out[1:], np.multiply(self.offdiag, v[:-1], out=tmp), out=out[1:])
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

    def _window(self):
        """(Gershgorin lower end, upper end, ||T||_inf) from one set of radii."""
        r = self._radii()
        return (float((self.diag - r).min()), float((self.diag + r).max()),
                float((np.abs(self.diag) + r).max()))

    def inf_norm(self):
        return self._window()[2]

    def gershgorin(self):
        return self._window()[:2]

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


def _delta(norm):
    """Certificate margin for ||T||_inf = norm: TOL_LAMBDA, widened to
    the backward-error scale eps*||T|| below which the LDL^T test of the
    rounded matrix is not meaningful.  A Python float, so messages print
    plain numbers."""
    return float(max(TOL_LAMBDA, 64 * np.finfo(float).eps * norm))


class _ShiftedFactor:
    """LDL^T factors of T - sigma I for the shifts of one eigensolve,
    kept in two work arrays and recomputed only when sigma changes.

    A cyclic T is split as C = B + beta u u^T: beta = -|corner| < 0,
    u = e_1 - sign(corner) e_n, and B the tridiagonal part with |corner|
    added to both corner diagonals.  Since beta < 0, C - sigma I is
    positive definite iff B - sigma I is and the Sherman-Morrison
    denominator 1 + beta u^T (B - sigma I)^{-1} u is positive; z =
    (B - sigma I)^{-1} u and that denominator are solved once per shift.

    With negative offdiagonals the shifted matrix is an M-matrix: the
    substitution sweeps involve no cancellation, so a nonnegative rhs
    yields a strictly positive result even in floating point.
    """

    def __init__(self, T):
        self.offdiag = T.offdiag
        self.d = np.empty(T.n)
        self.e = np.empty(T.n - 1)
        self.sigma = None
        self.definite = False
        if T.corner is None:
            self.diag, self.z = T.diag, None
            return
        self.beta = -abs(T.corner)
        self.u_n = -math.copysign(1.0, T.corner)   # u's last entry; u_1 = 1
        self.diag = T.diag.copy()
        self.diag[0] -= self.beta
        self.diag[-1] -= self.beta
        self.z = np.empty(T.n)

    def factor(self, sigma):
        """Whether T - sigma I is positive definite, factoring it unless
        sigma is the shift factored last."""
        if sigma != self.sigma:
            self.sigma = sigma
            np.subtract(self.diag, sigma, out=self.d)
            np.copyto(self.e, self.offdiag)
            info = dpttrf(self.d, self.e, overwrite_d=1, overwrite_e=1)[2]
            if info < 0:
                raise ValueError(f"illegal value in argument {-info} of dpttrf")
            self.definite = info == 0
            if self.definite and self.z is not None:
                z = self.z
                z.fill(0.0)
                z[0], z[-1] = 1.0, self.u_n
                dpttrs(self.d, self.e, z, overwrite_b=1)
                self.denom = 1.0 + self.beta * (z[0] + self.u_n * z[-1])
                self.definite = self.denom > 0.0
        return self.definite

    def solve(self, rhs, out, tmp):
        """out = (T - sigma I)^{-1} rhs at the last shift factored, which
        must be definite; tmp (n entries) is scratch for the corner term."""
        np.copyto(out, rhs)
        dpttrs(self.d, self.e, out, overwrite_b=1)
        if self.z is not None:
            scale = self.beta * (out[0] + self.u_n * out[-1]) / self.denom
            np.subtract(out, np.multiply(self.z, scale, out=tmp), out=out)
        return out


def smallest_eig(T: SymTridiag) -> EigenPair:
    """Principal (smallest) eigenpair; the vector's global sign is fixed
    so that its largest-magnitude entry is positive, which makes it
    entrywise positive for matrices with nonpositive offdiagonals."""
    if T.n == 1:                       # a 1x1 matrix has no corner entry
        return EigenPair(float(T.diag[0]), np.array([1.0]), 0.0)
    lo, hi, norm_inf = T._window()
    delta = _delta(norm_inf)
    lo -= delta                        # T - lo I is strictly diagonally dominant
    sigma = lo
    shifted = _ShiftedFactor(T)
    v = np.full(T.n, 1.0 / math.sqrt(T.n))
    w = np.empty(T.n)
    Tv = np.empty(T.n)
    last = prev = rq = cw = math.inf
    for _ in range(MAX_STEPS):
        if not shifted.factor(sigma):
            hi = sigma
        else:
            lo = sigma
            shifted.solve(v, w, Tv)
            norm = np.linalg.norm(w)
            if not np.isfinite(norm) or norm == 0.0:
                raise NonFinite("inverse iteration produced non-finite vector")
            if hi - lo > 2 * delta:    # cw is read only while the bracket is open
                # Collatz-Wielandt estimate: (Tw)_i / w_i = sigma + v_i / w_i
                cw = (sigma + float(np.divide(v, w, out=Tv).min())
                      if w.min() > 0 else math.inf)
            np.divide(w, norm, out=v)
            T._matvec_into(v, Tv, w[:-1])
            rq = float(v @ Tv)
            hi = min(hi, rq)
            if hi - lo <= 2 * delta and sigma == last and prev - rq <= TOL_LAMBDA:
                r = np.subtract(Tv, np.multiply(v, rq, out=w), out=w)
                res = float(np.linalg.norm(r) / max(norm_inf, 1e-300))
                if res <= RESIDUAL_TOL:
                    return EigenPair(rq, _fix_sign(v), res)
            last, prev = sigma, rq
        if hi - lo > 2 * delta:
            guess = min(rq, cw) - delta
            sigma = guess if lo < guess < hi else 0.5 * (lo + hi)
        else:
            sigma = lo                 # certified: iterate until rq stalls
    raise NoConvergence(MAX_STEPS, f"bracket [{lo!r}, {hi!r}]")
