import numpy as np
import pytest

from adveig import spectral
from adveig.errors import NoConvergence, NonFinite
from adveig.spectral import SymTridiag, smallest_eig
from conftest import (charpoly_count_below, charpoly_smallest,
                      cyclic_inertia_below, sturm_count)


def test_sturm_count_diagonal():
    T = SymTridiag(np.array([1.0, 2.0, 3.0]), np.zeros(2))
    assert sturm_count(T, 2.5) == 2
    assert sturm_count(T, 0.5) == 0
    assert sturm_count(T, 10.0) == 3


def test_sturm_count_below_gershgorin_is_zero(rng):
    for _ in range(20):
        n = rng.integers(2, 30)
        T = SymTridiag(rng.normal(size=n), rng.normal(size=n - 1))
        lo, _ = T.gershgorin()
        assert sturm_count(T, lo - 1e-9) == 0


def test_sturm_count_discrete_laplacian():
    # eigenvalues 2(1 - cos(k pi / 4)) / h^2 = {9.37, 32, 54.6}
    h = 0.25
    T = SymTridiag(np.full(3, 2 / h**2), np.full(2, -1 / h**2))
    assert sturm_count(T, 20.0) == 1
    assert sturm_count(T, 33.0) == 2
    assert sturm_count(T, 60.0) == 3


def test_smallest_eig_scalar():
    pair = smallest_eig(SymTridiag(np.array([2.0]), np.zeros(0)))
    assert pair.lam == 2.0
    assert pair.vector == pytest.approx([1.0])


def test_smallest_eig_dirichlet_laplacian():
    h = 0.25
    T = SymTridiag(np.full(3, 2 / h**2), np.full(2, -1 / h**2))
    pair = smallest_eig(T)
    assert pair.lam == pytest.approx(2 * (1 - np.cos(np.pi / 4)) / h**2, rel=1e-12)


def test_smallest_eig_cyclic_laplacian_kernel():
    n, h = 64, 1.0 / 64
    T = SymTridiag(np.full(n, 2 / h**2), np.full(n - 1, -1 / h**2),
                   corner=-1 / h**2)
    pair = smallest_eig(T)
    assert abs(pair.lam) <= 1e-8 * T.inf_norm()
    assert pair.vector == pytest.approx(np.full(n, 1 / np.sqrt(n)), abs=1e-10)


def test_shift_invariance(rng):
    for _ in range(10):
        n = int(rng.integers(2, 40))
        T = SymTridiag(rng.normal(size=n) * 3, rng.normal(size=n - 1))
        base = smallest_eig(T)
        sigma = float(rng.normal() * 10)
        shifted = smallest_eig(SymTridiag(T.diag + sigma, T.offdiag))
        assert shifted.lam - sigma == pytest.approx(
            base.lam, rel=1e-12, abs=1e-12 * max(1.0, abs(base.lam)))
        assert shifted.vector == pytest.approx(base.vector, abs=1e-9)


def test_residual_contract(rng):
    for _ in range(15):
        n = int(rng.integers(2, 50))
        corner = float(rng.normal()) if rng.random() < 0.5 else None
        T = SymTridiag(rng.normal(size=n) * 4, rng.normal(size=n - 1) * 2,
                       corner=corner)
        assert smallest_eig(T).residual <= 1e-8


def test_oracle_equivalence_small_matrices(rng):
    """Production solver vs an independent characteristic-polynomial
    bisection oracle at n <= 12."""
    for _ in range(60):
        n = int(rng.integers(1, 13))
        T = SymTridiag(rng.normal(size=n) * 5, rng.normal(size=max(n - 1, 0)) * 3)
        want = charpoly_smallest(T.diag, T.offdiag)
        assert smallest_eig(T).lam == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))


def test_oracle_equivalence_cyclic(rng):
    for n in [1, 2] + [int(rng.integers(3, 13)) for _ in range(40)]:
        T = SymTridiag(rng.normal(size=n) * 5, rng.normal(size=n - 1) * 3,
                       corner=float(rng.normal() * 2))
        want = float(np.linalg.eigvalsh(T.dense())[0])
        assert smallest_eig(T).lam == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))


def test_sturm_count_matches_charpoly_oracle(rng):
    for _ in range(40):
        n = int(rng.integers(2, 12))
        T = SymTridiag(rng.normal(size=n) * 5, rng.normal(size=n - 1) * 3)
        lam = float(rng.normal() * 8)
        assert sturm_count(T, lam) == charpoly_count_below(T.diag, T.offdiag, lam)


def test_cyclic_inertia_matches_dense(rng):
    for _ in range(60):
        n = int(rng.integers(3, 14))
        T = SymTridiag(rng.normal(size=n) * 5, rng.normal(size=n - 1) * 3,
                       corner=float(rng.normal() * 2))
        lam = float(rng.normal() * 8)
        dense = int(np.sum(np.linalg.eigvalsh(T.dense()) < lam))
        assert cyclic_inertia_below(T, lam) == dense


def test_cyclic_definiteness_test_matches_dense_inertia(rng):
    """The rank-one Cholesky test answers None exactly when sigma is at
    or above the smallest eigenvalue of C, for both corner signs."""
    for sign in (1.0, -1.0):
        for _ in range(60):
            n = int(rng.integers(3, 14))
            T = SymTridiag(rng.normal(size=n) * 5, rng.normal(size=n - 1) * 3,
                           corner=sign * float(abs(rng.normal()) * 2))
            lam_min = float(np.linalg.eigvalsh(T.dense())[0])
            sigma = lam_min + float(rng.normal() * 4)
            if abs(sigma - lam_min) < 1e-8:
                continue
            z = spectral._cyclic_definite_below(T, spectral._rank_one_split(T), sigma)
            assert (z is not None) == (sigma < lam_min)


def _random_matrix(rng, kind, cyclic):
    n = int(rng.integers(2, 40))
    if kind == "m_matrix":
        diag, offdiag = rng.uniform(1, 5, size=n), -rng.uniform(0.1, 2.0, size=n - 1)
        corner = -float(rng.uniform(0.1, 2.0))
    else:
        diag, offdiag = rng.normal(size=n) * 5, rng.normal(size=n - 1) * 3
        corner = float(rng.normal() * 2)
    return SymTridiag(diag, offdiag, corner=corner if cyclic else None)


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("kind", ["m_matrix", "random_sign"])
def test_both_certificates_hold_for_the_returned_eigenvalue(rng, kind, cyclic):
    """The Cholesky test succeeds at lam - delta (lower certificate), and
    lam is at most delta above the dense smallest eigenvalue (upper
    certificate), up to the rounding n eps ||T|| of a Rayleigh quotient."""
    for _ in range(40):
        T = _random_matrix(rng, kind, cyclic)
        lam = smallest_eig(T).lam
        delta = spectral._delta(T)
        if cyclic:
            below = spectral._cyclic_definite_below(T, spectral._rank_one_split(T),
                                                    lam - delta)
        else:
            below = spectral._cholesky_solve(T.diag, T.offdiag, lam - delta,
                                             np.ones(T.n))
        assert below is not None
        lam_min = float(np.linalg.eigvalsh(T.dense())[0])
        rounding = T.n * np.finfo(float).eps * T.inf_norm()
        assert lam_min - rounding <= lam <= lam_min + delta


@pytest.mark.parametrize("corner", [None, -33.0**2])
def test_no_convergence_when_cholesky_never_succeeds(monkeypatch, corner):
    """Without a certified shift there is no eigenvalue: the loop stops
    at its step cap with NoConvergence."""
    h = 1.0 / 33
    T = SymTridiag(np.full(32, 2 / h**2), np.full(31, -1 / h**2), corner=corner)
    shifts = []

    def never(diag, offdiag, sigma, rhs):
        shifts.append(sigma)
        return None

    monkeypatch.setattr(spectral, "_cholesky_solve", never)
    with pytest.raises(NoConvergence):
        smallest_eig(T)
    assert len(shifts) == spectral.MAX_STEPS


def test_positivity_for_negative_offdiagonals(rng):
    for _ in range(10):
        n = int(rng.integers(2, 80))
        T = SymTridiag(rng.uniform(1, 5, size=n),
                       -rng.uniform(0.1, 2.0, size=n - 1))
        assert np.all(smallest_eig(T).vector > 0)
    # cyclic variant
    T = SymTridiag(np.full(40, 3.0), np.full(39, -1.0), corner=-1.0)
    assert np.all(smallest_eig(T).vector > 0)
    # deep-underflow regime: far-field entries reach ~1e-90 yet stay
    # strictly positive thanks to the M-matrix inverse-iteration polish
    n = 3000
    T = SymTridiag(np.linspace(1.0, 500.0, n), np.full(n - 1, -1e-3))
    v = smallest_eig(T).vector
    assert np.all(v > 0) and v.min() < 1e-50


def test_nonfinite_rejected():
    with pytest.raises(NonFinite):
        SymTridiag(np.array([1.0, np.nan]), np.array([0.0]))
