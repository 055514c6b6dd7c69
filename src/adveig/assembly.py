"""Exponentially fitted (Scharfetter-Gummel) assembly of the eigenvalue
problems.

The operator is -(e^{2sm} phi')' + c e^{2sm} phi, with the flux on each
cell exact for an exponential weight, symmetrized by w = e^{sm} phi.  A
cell enters only through its drift d = s (m(x_{i+1}) - m(x_i)), taken
by Simpson's rule on m' so that m -> m + const leaves the matrix
bitwise unchanged.  With B(x) = x/(e^x - 1):

    offdiagonal  -(d/sinh d)/h^2
    diagonal     (B(-2 d_right) + B(2 d_left))/h^2 + c.

No m'', no e^{2sm} and no overflow appear; s = 0 gives the standard
three-point Laplacian.  The unsymmetrized stiffness rows sum to zero, so
under Neumann or periodic data constant c is the exact eigenvalue for
every s.  The one resolution guard is max |d| <= 0.5.

Grids are vertex-centered.  A Neumann/Robin end keeps its node with a
half cell, the closure hbar phi' = +-ell phi adding 2 (ell/hbar)/h to
its diagonal, and is symmetrized by scaling that unknown by sqrt(2)
(eigenvalues unchanged, eigenvector entries scale back).  A Dirichlet
end drops its node.  With n the matrix dimension this gives
h = (b-a)/(n-1) when both ends are kept and h = (b-a)/(n+1) when both
are dropped.  On the circle (PeriodicBC) the n nodes are x_i = i/n and
the matrix carries a cyclic corner: an operator is periodic exactly when
matrix.corner is not None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, ValidationError
from .profile import AdvectionProfile, PeriodicBC, Potential, RobinBC
from .spectral import EigenPair, SymTridiag, smallest_eig

_SQRT2 = math.sqrt(2.0)
_MAX_DRIFT = 0.5
_BLOCK = 1 << 15        # cells per vectorized block: keeps temporaries small


@dataclass(frozen=True)
class SubBC:
    """Closure at one end of a sub-interval problem: N, D, or R with the
    inherited (hbar, ell) pair of the global boundary condition."""
    kind: str
    hbar: float | None = None
    ell: float | None = None

    def __post_init__(self):
        if self.kind not in ("N", "D", "R"):
            raise ValidationError(f"unknown sub-boundary kind {self.kind!r}")
        if self.kind == "R":
            if self.hbar is None or self.ell is None:
                raise ValidationError("R closure needs (hbar, ell)")
            if self.hbar < 0 or self.ell < 0 or self.hbar + self.ell <= 0:
                raise ValidationError("R closure needs hbar, ell >= 0, hbar+ell > 0")

    @staticmethod
    def N():
        return SubBC("N")

    @staticmethod
    def D():
        return SubBC("D")

    @staticmethod
    def R(hbar, ell):
        return SubBC("R", float(hbar), float(ell))

    def beta(self):
        """ell/hbar of the closure phi' = +-beta phi, or None for a
        Dirichlet end."""
        if self.kind == "N":
            return 0.0
        if self.kind == "D" or self.hbar == 0.0:
            return None
        return self.ell / self.hbar


@dataclass(frozen=True)
class DiscreteOperator:
    matrix: SymTridiag
    grid: dict                      # {a, b, n, h}; n is the matrix dimension
    nodes: np.ndarray = field(repr=False)   # all nodes incl. dropped Dirichlet ones
    kept: slice = field(repr=False)
    scales: tuple = (1.0, 1.0)      # sqrt(2) desymmetrization at kept ends


def _blocks(n):
    return ((lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


def _cell_drift(d, profile, s, a, h):
    """Fill d[i] = s * integral of m' over [a + i h, a + (i+1) h]
    (Simpson's rule) and return max |d|."""
    dmax = 0.0
    for lo, hi in _blocks(d.size):
        f = profile(a + 0.5 * h * np.arange(2 * lo, 2 * hi + 1), 1)  # ends, midpoints
        d[lo:hi] = (s * h / 6.0) * (f[:-1:2] + 4.0 * f[1::2] + f[2::2])
        dmax = max(dmax, float(np.abs(d[lo:hi]).max()))
    return dmax


def _build(a, b, n, c, ends, s=0.0, profile=None):
    """Fitted operator on [a, b] with matrix dimension n.

    ends is (beta_left, beta_right), each the Robin coefficient of a
    kept end or None for a dropped Dirichlet end, or None for the circle
    of length b - a.  c is evaluated at the kept nodes; the cell drifts
    come from s and the profile's m' (none needed at s = 0).
    """
    if n < 4:
        raise ValidationError("grid too small (need n >= 4)")
    if ends is None:
        n_nodes = n_cells = n
        kept = slice(0, n)
    else:
        n_nodes = n + (ends[0] is None) + (ends[1] is None)
        n_cells = n_nodes - 1
        kept = slice(int(ends[0] is None), n_nodes - (ends[1] is None))
    h = (b - a) / n_cells
    # the operator's long-lived arrays first; d becomes the offdiagonal
    nodes = a + h * np.arange(n_nodes)
    if ends is not None:
        nodes[-1] = b
    diag = np.zeros(n_cells + 1)        # on the circle entry n is node 0
    d = np.zeros(n_cells)
    if s:
        dmax = _cell_drift(d, profile, s, a, h)
        if dmax > _MAX_DRIFT:
            raise GridTooCoarse(h, dmax)
    for lo, hi in _blocks(n_cells):
        x = 2.0 * d[lo:hi]
        bp = np.divide(x, np.expm1(x), out=np.ones_like(x), where=x != 0.0)
        bm = bp + x                     # B(-x) = B(x) + x
        diag[lo:hi] += bm
        diag[lo + 1:hi + 1] += bp
        np.sqrt(bp * bm, out=d[lo:hi])  # B(2d) B(-2d) = (d / sinh d)^2
    diag /= h ** 2
    d /= -h ** 2
    scale_left = scale_right = 1.0
    corner = None
    if ends is None:
        diag[0] += diag[-1]
        corner = float(d[-1])
    else:
        if ends[0] is not None:          # half cell at a kept end
            diag[0] = 2.0 * diag[0] + 2.0 * ends[0] / h
            d[0] *= _SQRT2
            scale_left = _SQRT2
        if ends[1] is not None:
            diag[-1] = 2.0 * diag[-1] + 2.0 * ends[1] / h
            d[-1] *= _SQRT2
            scale_right = _SQRT2
    diag = diag[kept]
    x = nodes[kept]
    for lo, hi in _blocks(n):
        diag[lo:hi] += c(x[lo:hi])
    return DiscreteOperator(
        matrix=SymTridiag(diag, d[kept.start:kept.start + n - 1], corner=corner),
        grid={"a": float(a), "b": float(b), "n": n, "h": h},
        nodes=nodes,
        kept=kept,
        scales=(scale_left, scale_right),
    )


def assemble_transformed(profile: AdvectionProfile, c: Potential,
                         bc: RobinBC | PeriodicBC, s: float,
                         n: int) -> DiscreteOperator:
    """Discrete operator for the full problem at parameter s.

    Under a RobinBC the closure -hbar1 phi'(0) + ell1 phi(0) = 0 (and its
    mirror at 1) keeps the boundary node; hbar = 0 ends drop it.  Under a
    PeriodicBC the operator is cyclic on the circle, n nodes x_i = i/n.
    """
    if s < 0:
        raise ValidationError("s must be >= 0")
    if n < 16:
        raise ValidationError("transformed assembly needs n >= 16")
    if isinstance(bc, PeriodicBC):
        bc.validate(profile, c)
        ends = None
    else:
        ends = (SubBC.R(bc.hbar1, bc.ell1).beta(), SubBC.R(bc.hbar2, bc.ell2).beta())
    return _build(0.0, 1.0, n, c, ends, s, profile)


def assemble_subinterval(c: Potential, a: float, b: float,
                         left: SubBC, right: SubBC, n: int) -> DiscreteOperator:
    """Discretization of -phi'' + c phi on (a, b) with N/D/R closures;
    the s = 0 case of the transformed assembly."""
    if not (0.0 <= a < b <= 1.0):
        raise ValidationError("need 0 <= a < b <= 1")
    if left.kind == "R" and a != 0.0:
        raise ValidationError("R closure inherits the global condition at 0")
    if right.kind == "R" and b != 1.0:
        raise ValidationError("R closure inherits the global condition at 1")
    return _build(a, b, n, c, (left.beta(), right.beta()))


def assemble_periodic(profile: AdvectionProfile, c: Potential,
                      s: float, n: int) -> DiscreteOperator:
    """assemble_transformed under PeriodicBC."""
    return assemble_transformed(profile, c, PeriodicBC(), s, n)


def principal_eigen(op: DiscreteOperator) -> EigenPair:
    """Principal eigenpair of an assembled operator.

    The returned vector holds the eigenfunction values at the kept grid
    nodes (boundary sqrt(2) symmetrization undone), normalized so the
    trapezoid-rule integral of w^2 over the full grid equals 1.
    """
    pair = smallest_eig(op.matrix)
    w = pair.vector.copy()
    w[0] *= op.scales[0]
    w[-1] *= op.scales[1]
    x, full = _full_grid_function(op, w)
    w /= math.sqrt(_trapz_sq(op, x, full))
    return EigenPair(pair.lam, w, pair.residual)


def _trapz_sq(op, x, w):
    if op.matrix.corner is not None:
        return float(np.sum(w**2) * op.grid["h"])  # uniform weights on the circle
    return float(np.trapezoid(w**2, x))


def _full_grid_function(op, w_kept):
    full = np.zeros(op.nodes.size)
    full[op.kept] = w_kept
    return op.nodes, full


def eigenfunction_on_grid(op: DiscreteOperator, pair: EigenPair):
    """(x, w) on the full node set, zeros at removed Dirichlet nodes."""
    return _full_grid_function(op, pair.vector)
