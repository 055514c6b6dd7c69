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
every s.

The one resolution guard asks for what the layers need.  A 1/s layer
forms only at an end where m' != 0, so each end cell's |d| must be at
most 0.5.  Every other layer is at least s^(-1/2) wide, so h sqrt(s
max|m'|) must be at most 1.  Interior cells may carry drifts in the
hundreds: there w is exponentially small and the fitted flux is exact
for the exponential.  B is evaluated so that such drifts neither
overflow nor warn.

Grids are vertex-centered.  Each end's closure is beta or None, read
from RobinBC.betas for the full problem and from SubBC (N or D) for a
sub-interval.  A plateau [a, b] of m inherits N where m falls away from
it and D where m rises away from it (the predictor's flank rule).  A
kept end (beta = ell/hbar, 0 for Neumann) keeps its node with a half
cell, the closure phi' = +-beta phi adding 2 beta/h to its diagonal,
and is symmetrized by scaling that unknown by sqrt(2)
(eigenvalues unchanged, eigenvector entries scale back).  A Dirichlet
end (None) drops its node.  With n the matrix dimension this gives
h = (b-a)/(n-1) when both ends are kept and h = (b-a)/(n+1) when both
are dropped.  On the circle (PeriodicBC) the unknowns are x_i = i/n, the
nodes close at x_n = 1 and the matrix carries a cyclic corner: an
operator is periodic exactly when matrix.corner is not None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, ValidationError
from .profile import AdvectionProfile, PeriodicBC, Potential, RobinBC
from .spectral import EigenPair, SymTridiag, smallest_eig

_SQRT2 = math.sqrt(2.0)
_MAX_END_DRIFT = 0.5
_MAX_LAYER_STEP = 1.0   # h sqrt(s max|m'|)
_EXP_FLAT = 40.0        # e^x - 1 rounds to e^x past this
_BLOCK = 1 << 15        # cells per vectorized block: keeps temporaries small
MAX_NODES = 1 << 24     # largest grid assembled: 128 MB per float array


@dataclass(frozen=True)
class SubBC:
    """Closure at one end of a sub-interval problem: N or D.  Boundary
    data become closures only through RobinBC.betas."""
    kind: str

    def __post_init__(self):
        if self.kind not in ("N", "D"):
            raise ValidationError(f"unknown sub-boundary kind {self.kind!r}")

    def beta(self):
        """0 for a Neumann end, None for a dropped Dirichlet end."""
        return 0.0 if self.kind == "N" else None


@dataclass(frozen=True)
class DiscreteOperator:
    matrix: SymTridiag
    grid: dict                      # {a, b, n, h}; n is the matrix dimension
    nodes: np.ndarray = field(repr=False)   # every node: dropped ones, circle's x = 1
    kept: slice = field(repr=False)
    scales: tuple = (1.0, 1.0)      # sqrt(2) desymmetrization at kept ends


def below_cap(n):
    """n if it is at most MAX_NODES, else ValidationError."""
    if n > MAX_NODES:
        raise ValidationError(f"grid too large (n = {n} > {MAX_NODES})")
    return n


def transformed_size(n):
    """n if assemble_transformed takes it (16 <= n <= MAX_NODES), else
    ValidationError."""
    if n < 16:
        raise ValidationError("transformed assembly needs n >= 16")
    return below_cap(n)


def _blocks(n):
    return ((lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


def _cell_drift(d, profile, s, a, h):
    """Fill d[i] = s * integral of m' over [a + i h, a + (i+1) h]
    (Simpson's rule)."""
    for lo, hi in _blocks(d.size):
        f = profile(a + 0.5 * h * np.arange(2 * lo, 2 * hi + 1), 1)  # ends, midpoints
        d[lo:hi] = (s * h / 6.0) * (f[:-1:2] + 4.0 * f[1::2] + f[2::2])


def _bernoulli_pair(x):
    """(B(x), B(-x)) for B(x) = x/(e^x - 1), with no overflow.  Past
    |x| = _EXP_FLAT, B(|x|) = |x| e^-|x| and B(-|x|) = |x| to rounding."""
    bp = np.divide(x, np.expm1(np.minimum(x, _EXP_FLAT)), out=np.ones_like(x),
                   where=x != 0.0)
    bm = bp + x                         # B(-x) = B(x) + x
    flat = np.abs(x) > _EXP_FLAT
    if flat.any():
        xf = x[flat]
        tail = np.abs(xf) * np.exp(-np.abs(xf))
        bp[flat] = np.where(xf > 0.0, tail, -xf)
        bm[flat] = np.where(xf > 0.0, xf, tail)
    return bp, bm


def _build(a, b, n, c, ends, s=0.0, profile=None):
    """Fitted operator on [a, b] with matrix dimension n.

    ends is (beta_left, beta_right), each the Robin coefficient of a
    kept end or None for a dropped Dirichlet end, or None for the circle
    of length b - a.  c is evaluated at the kept nodes; the cell drifts
    come from s and the profile's m' (none needed at s = 0).
    """
    if n < 4:
        raise ValidationError("grid too small (need n >= 4)")
    below_cap(n)
    if ends is None:
        n_cells = n
        kept = slice(0, n)
    else:
        n_cells = n + (ends[0] is None) + (ends[1] is None) - 1
        kept = slice(int(ends[0] is None), n_cells + 1 - (ends[1] is None))
    h = (b - a) / n_cells
    # the operator's long-lived arrays first; d becomes the offdiagonal
    nodes = a + h * np.arange(n_cells + 1)
    nodes[-1] = b
    diag = np.zeros(n_cells + 1)        # on the circle entry n is node 0
    d = np.zeros(n_cells)
    if s:
        _cell_drift(d, profile, s, a, h)
        end = max(abs(float(d[0])), abs(float(d[-1])))
        layer = h * math.sqrt(s * profile.max_abs_deriv)
        if end > _MAX_END_DRIFT or layer > _MAX_LAYER_STEP:
            raise GridTooCoarse(h, end, layer)
    for lo, hi in _blocks(n_cells):
        bp, bm = _bernoulli_pair(2.0 * d[lo:hi])
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
    PeriodicBC the operator is cyclic on the circle, n unknowns x_i = i/n.
    """
    if not (math.isfinite(s) and s >= 0):
        raise ValidationError("s must be finite and >= 0")
    transformed_size(n)
    if isinstance(bc, PeriodicBC):
        bc.validate(profile, c)
        ends = None
    else:
        ends = bc.betas()
    return _build(0.0, 1.0, n, c, ends, s, profile)


def assemble_subinterval(c: Potential, a: float, b: float,
                         left: SubBC, right: SubBC, n: int) -> DiscreteOperator:
    """Discretization of -phi'' + c phi on (a, b) with N/D closures; the
    s = 0 case of the transformed assembly.  A Robin end exists only at
    0 or 1, where assemble_transformed at s = 0 gives it."""
    if not (0.0 <= a < b <= 1.0):
        raise ValidationError("need 0 <= a < b <= 1")
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
    w = pair.vector                     # the returned pair's own vector
    w[0] *= op.scales[0]
    w[-1] *= op.scales[1]
    x, full = eigenfunction_on_grid(op, pair)
    w /= math.sqrt(float(np.trapezoid(full ** 2, x)))
    return pair


def eigenfunction_on_grid(op: DiscreteOperator, pair: EigenPair):
    """(x, w) on the full node set, zeros at removed Dirichlet nodes; on
    the circle the last node is x = 1 and repeats w at x = 0."""
    full = np.zeros(op.nodes.size)
    full[op.kept] = pair.vector
    if op.matrix.corner is not None:
        full[-1] = pair.vector[0]       # x = 1 is node 0 again
    return op.nodes, full
