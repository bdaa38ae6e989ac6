import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nsca import _kernels
from nsca.errors import NoConvergence, NotPositiveDefinite, ShapeMismatch
from nsca.linalg import (
    SymMatrix,
    _congruence,
    ajd,
    amari_index,
    cholesky,
    gevd,
    off_diag_residual,
    sym_eig,
)


def random_spd(rng, n, spread=1.0):
    """SPD matrix with eigenvalues spread over roughly [0.5, 0.5 + 4*spread]."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = 0.5 + spread * 4.0 * rng.random(n)
    return Q @ np.diag(vals) @ Q.T


class TestSymMatrix:
    def test_symmetrizes_input(self):
        s = SymMatrix([[1.0, 2.0], [0.0, 3.0]])
        assert_allclose(s.entries, [[1.0, 1.0], [1.0, 3.0]])
        assert s.entries[0, 1] == s.entries[1, 0]

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeMismatch):
            SymMatrix(np.zeros((2, 3)))

    def test_entries_read_only(self):
        s = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            s.entries[0, 0] = 5.0


class TestCholesky:
    def test_identity(self):
        assert_allclose(cholesky(np.eye(3)), np.eye(3))

    def test_hand_factor(self):
        # [[4,2],[2,5]] = L L^T with L = [[2,0],[1,2]]
        L = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert_allclose(L, [[2.0, 0.0], [1.0, 2.0]], atol=1e-15)

    def test_indefinite_raises_with_pivot(self):
        with pytest.raises(NotPositiveDefinite) as ei:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert ei.value.pivot == 1

    def test_negative_definite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(-np.eye(3))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            S = random_spd(rng, n)
            L = cholesky(S)
            assert_allclose(L @ L.T, S, atol=1e-10 * np.abs(S).max())
            assert_allclose(np.triu(L, 1), np.zeros((n, n)))

    def test_round_trip_from_random_lower(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            L0 = np.tril(rng.standard_normal((n, n)))
            L0[np.diag_indices(n)] = 0.5 + rng.random(n)
            S = L0 @ L0.T
            assert_allclose(cholesky(S), L0, atol=1e-10 * np.abs(S).max())


class TestSymEig:
    def test_diagonal_sorted_ascending(self):
        pair = sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert_allclose(pair.values, [1.0, 2.0, 3.0])
        # vectors are the matching coordinate axes
        expect = np.zeros((3, 3))
        expect[1, 0] = expect[2, 1] = expect[0, 2] = 1.0
        assert_allclose(np.abs(pair.vectors), expect, atol=1e-14)

    def test_2x2_closed_form(self):
        pair = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(pair.values, [1.0, 3.0], atol=1e-14)
        v0 = pair.vectors[:, 0] * np.sign(pair.vectors[0, 0])
        v1 = pair.vectors[:, 1] * np.sign(pair.vectors[0, 1])
        assert_allclose(v0, [1.0, -1.0] / np.sqrt(2), atol=1e-14)
        assert_allclose(v1, [1.0, 1.0] / np.sqrt(2), atol=1e-14)

    def test_identity_stable_tie_order(self):
        # LAPACK returns an already diagonal input as is, ties in coordinate order
        pair = sym_eig(np.eye(4))
        assert_allclose(pair.values, np.ones(4))
        assert_allclose(pair.vectors, np.eye(4))

    def test_contracts_random(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            S = rng.standard_normal((n, n))
            S = 0.5 * (S + S.T)
            pair = sym_eig(S)
            scale = max(np.abs(S).max(), 1.0)
            # residual: S v = lambda v
            assert_allclose(
                S @ pair.vectors,
                pair.vectors * pair.values,
                atol=1e-9 * scale,
            )
            assert_allclose(pair.vectors.T @ pair.vectors, np.eye(n), atol=1e-10)
            assert np.all(np.diff(pair.values) >= -1e-12 * scale)

    def test_eigenvalues_invariant_under_rotation(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = 6
            S = rng.standard_normal((n, n))
            S = 0.5 * (S + S.T)
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = sym_eig(S).values
            b = sym_eig(Q @ S @ Q.T).values
            assert_allclose(a, b, atol=1e-8 * max(np.abs(S).max(), 1.0))

    def test_lapack_failure_raises(self, monkeypatch):
        def fail(S):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        S = random_spd(np.random.default_rng(23), 6)
        with pytest.raises(NoConvergence):
            sym_eig(S)
        with pytest.raises(NoConvergence):
            gevd(S, np.eye(6))


class TestGevd:
    def test_diagonal_pair_descending(self):
        pair = gevd(np.diag([8.0, 1.0]), np.diag([2.0, 1.0]), order="descending")
        assert_allclose(pair.values, [4.0, 1.0], atol=1e-14)
        assert_allclose(np.abs(pair.vectors), [[1 / np.sqrt(2), 0], [0, 1]], atol=1e-14)

    def test_b_identity_matches_sym_eig(self):
        rng = np.random.default_rng(31)
        S = random_spd(rng, 5)
        pair = gevd(S, np.eye(5))
        ref = sym_eig(S)
        assert_allclose(pair.values, ref.values, atol=1e-10)

    def test_contract_random_pairs(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            A = rng.standard_normal((n, n))
            A = 0.5 * (A + A.T)
            B = random_spd(rng, n)
            pair = gevd(A, B)
            W = pair.vectors
            assert_allclose(W.T @ B @ W, np.eye(n), atol=1e-8)
            D = W.T @ A @ W
            assert_allclose(D, np.diag(pair.values), atol=1e-8 * max(np.abs(A).max(), 1.0))
            # A w = lambda B w
            assert_allclose(A @ W, B @ W * pair.values, atol=1e-7 * max(np.abs(A).max(), 1.0))

    def test_order_reversal(self):
        rng = np.random.default_rng(33)
        A = random_spd(rng, 4)
        B = random_spd(rng, 4)
        up = gevd(A, B, order="ascending")
        dn = gevd(A, B, order="descending")
        assert_allclose(up.values, dn.values[::-1])
        assert_allclose(np.abs(up.vectors), np.abs(dn.vectors[:, ::-1]), atol=1e-12)

    def test_indefinite_b_raises(self):
        with pytest.raises(NotPositiveDefinite):
            gevd(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("reg_eps", [-1e-8, np.nan, np.inf, True, False, np.True_])
    def test_reg_eps_must_be_finite_and_nonnegative(self, reg_eps):
        with pytest.raises(ValueError, match="reg_eps"):
            gevd(np.eye(2), np.eye(2), reg_eps=reg_eps)
        with pytest.raises(ValueError, match="reg_eps"):
            ajd([np.eye(2)], reg_eps=reg_eps)

    def test_reg_eps_rescues_singular_b(self):
        A = np.diag([2.0, 1.0])
        B = np.diag([1.0, 0.0])
        with pytest.raises(NotPositiveDefinite):
            gevd(A, B)
        pair = gevd(A, B, reg_eps=1e-8)
        assert np.isfinite(pair.values).all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            gevd(np.eye(2), np.eye(3))


class TestAjd:
    def test_already_diagonal_set(self):
        mats = [np.diag([1.0, 2.0]), np.diag([3.0, 1.0])]
        W, res = ajd(mats, whitener=np.eye(2))
        assert res <= 1e-16
        assert_allclose(np.abs(W), np.eye(2), atol=1e-12)

    def test_single_matrix_matches_sym_eig(self):
        rng = np.random.default_rng(41)
        S = random_spd(rng, 5)
        W, res = ajd([S], whitener=np.eye(5))
        assert res <= 1e-10
        ref = sym_eig(S)
        # same eigenvalue multiset recovered on the diagonal
        d = np.sort(np.diag(W.T @ S @ W))
        assert_allclose(d, ref.values, atol=1e-9)

    def test_congruence_construction_recovers_mixer(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            K = int(rng.integers(2, 6))
            M = rng.standard_normal((n, n))
            while abs(np.linalg.det(M)) < 1e-3:
                M = rng.standard_normal((n, n))
            diags = [np.diag(0.5 + 4.0 * rng.random(n)) for _ in range(K)]
            mats = [M.T @ d @ M for d in diags]
            weights = rng.random(K) + 0.1
            whitener = sum(w * c for w, c in zip(weights, mats)) / weights.sum()
            W, res = ajd(mats, weights=weights, whitener=whitener)
            scale = max(np.abs(m).max() for m in mats)
            assert res <= 1e-8 * scale**2
            assert amari_index(M @ W) < 1e-6

    def test_whitening_contract(self):
        rng = np.random.default_rng(43)
        mats = [random_spd(rng, 4) for _ in range(3)]
        whitener = random_spd(rng, 4)
        W, _ = ajd(mats, whitener=whitener)
        assert_allclose(W.T @ whitener @ W, np.eye(4), atol=1e-8)

    def test_sweep_cap_raises(self):
        rng = np.random.default_rng(44)
        mats = [random_spd(rng, 5) for _ in range(4)]
        with pytest.raises(NoConvergence):
            ajd(mats, max_sweeps=1)

    def test_gains_that_overflow_raise(self):
        # squares of the whitened entries overflow, so the angles are NaN
        A = np.array([[1e160, 1e159], [1e159, 1.0]])
        B = np.array([[2e160, -1e158], [-1e158, 3.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NoConvergence, match="not finite"):
                ajd([A, B], whitener=np.eye(2))

    def test_sweep_budget_validation(self):
        mats = [np.diag([1.0, 2.0]) + 0.5, np.diag([3.0, 1.0]) + 0.5]
        for bad in (0, -1, 2.5, "3", True):
            with pytest.raises(ValueError, match="max_sweeps"):
                ajd(mats, max_sweeps=bad)
        W, _ = ajd(mats)
        for ok in (3.0, np.int64(3)):
            assert_allclose(ajd(mats, max_sweeps=ok)[0], W, rtol=0, atol=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_common_weight_scale_leaves_w_as_it_is(self, scale):
        # squares of the weighted sums would overflow (all angles 0) or
        # underflow (no convergence) if the weights reached the kernel as given
        rng = np.random.default_rng(5)
        M = rng.standard_normal((4, 4))
        mats = [M.T @ np.diag(d) @ M for d in 0.5 + 4.0 * rng.random((3, 4))]
        W, _ = ajd(mats, weights=np.ones(3))
        W_scaled, _ = ajd(mats, weights=np.full(3, scale))
        assert_allclose(W_scaled, W, rtol=0, atol=1e-14 * np.abs(W).max())
        assert amari_index(M @ W_scaled) < 1e-12

    def test_weight_validation(self):
        with pytest.raises(ShapeMismatch):
            ajd([np.eye(2)], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            ajd([np.eye(2)], weights=[-1.0])
        A, B = np.diag([1.0, 2.0]) + 0.5, np.diag([3.0, 1.0]) + 0.5
        for bad in ([np.nan, 1.0], [np.inf, 1.0], [0.0, 0.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # rejected before numpy warns
                with pytest.raises(ValueError, match="weights"):
                    ajd([A, B], weights=bad)


class TestOffDiagResidual:
    def test_diagonalized_set_is_zero(self):
        mats = [np.diag([1.0, 2.0]), np.diag([5.0, 3.0])]
        assert off_diag_residual(np.eye(2), mats) == 0.0

    def test_counts_off_mass(self):
        C = np.array([[1.0, 1.0], [1.0, 1.0]])
        # both off-diagonal entries squared
        assert off_diag_residual(np.eye(2), [C]) == pytest.approx(2.0)

    def test_weighted(self):
        C = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert off_diag_residual(np.eye(2), [C, C], weights=[2.0, 3.0]) == pytest.approx(10.0)


class TestAmariIndex:
    def test_scaled_permutation_is_zero(self):
        G = np.array([[0.0, 3.0, 0.0], [0.0, 0.0, -2.0], [0.5, 0.0, 0.0]])
        assert amari_index(G) == pytest.approx(0.0, abs=1e-15)

    def test_identity_is_zero(self):
        assert amari_index(np.eye(4)) == 0.0

    def test_mixing_is_positive(self):
        rng = np.random.default_rng(51)
        G = rng.standard_normal((4, 4))
        assert amari_index(G) > 0.05


# ---------------------------------------------------------------------------
# properties over generated inputs
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)


def spd_with_condition(rng, n, cond):
    """SPD matrix with eigenvalues log-spaced from 1 to ``cond``."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ np.diag(np.geomspace(1.0, cond, n)[rng.permutation(n)]) @ Q.T


@PROPERTY
@given(seeds, st.integers(2, 8), st.floats(1.0, 1e4), st.floats(1e-3, 1e3))
def test_gevd_whitens_b_and_diagonalizes_a(seed, n, cond, scale):
    rng = np.random.default_rng(seed)
    A = scale * rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    B = scale * spd_with_condition(rng, n, cond)
    W = gevd(A, B).vectors
    assert_allclose(W.T @ B @ W, np.eye(n), rtol=0, atol=1e-12 * cond)
    D = W.T @ A @ W
    off = D - np.diag(np.diag(D))
    bound = 1e-12 * cond * np.linalg.norm(A, 2) * np.linalg.norm(W, 2) ** 2
    assert np.abs(off).max() <= bound


@PROPERTY
@given(seeds, st.data())
def test_sym_eig_decomposes_with_repeated_and_clustered_values(seed, data):
    # S = Q diag(lam) Q^T, where lam may repeat a value exactly or cluster
    # values within a relative 1e-9, at scales from 1e-3 to 1e3
    n = data.draw(st.integers(1, 8), label="n")
    scale = data.draw(st.floats(1e-3, 1e3), label="scale")
    shape = data.draw(st.sampled_from(["distinct", "repeated", "clustered"]), label="shape")
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-1.0, 1.0, n)
    if shape != "distinct":
        groups = rng.integers(0, max(n // 2, 1), n)
        lam = lam[groups]
        if shape == "clustered":
            lam = lam * (1.0 + 1e-9 * rng.standard_normal(n))
    lam = scale * lam
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = Q @ np.diag(lam) @ Q.T
    S = 0.5 * (S + S.T)
    pair = sym_eig(S)
    V, vals = pair.vectors, pair.values
    tol = 1e-10 * np.abs(S).max()
    assert np.abs(S @ V - V * vals).max() <= tol
    assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-12
    assert np.all(np.diff(vals) >= 0)
    assert np.abs(vals - np.sort(lam)).max() <= tol
    # sign rule: each column's largest-magnitude entry, the first on ties, is positive
    assert np.all(V[np.argmax(np.abs(V), axis=0), np.arange(n)] > 0)


@PROPERTY
@given(seeds, st.data())
def test_cholesky_reports_the_first_bad_pivot(seed, data):
    # the leading k x k block is SPD; the (k+1)-th pivot is set to c <= 0,
    # so the (k+1)-th leading minor is det(block) * c and not positive
    n = data.draw(st.integers(1, 8), label="n")
    k = data.draw(st.integers(0, n - 1), label="k")
    c = data.draw(st.floats(-10.0, 0.0), label="c")
    rng = np.random.default_rng(seed)
    L = np.tril(rng.uniform(-1.0, 1.0, size=(n, n)), -1) + np.diag(rng.uniform(0.5, 2.0, n))
    S = L @ L.T
    S = 0.5 * (S + S.T)
    S[k, k] = L[k, :k] @ L[k, :k] + c
    assert np.linalg.eigvalsh(S[:k, :k]).min(initial=np.inf) > 0
    with pytest.raises(NotPositiveDefinite) as ei:
        cholesky(S)
    assert ei.value.pivot == k


@PROPERTY
@given(seeds, st.integers(1, 10), st.integers(1, 8))
def test_stacked_congruence_matches_per_matrix_solves(seed, K, n):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((K, n, n))
    C = G + G.transpose(0, 2, 1)
    L = np.linalg.cholesky(random_spd(rng, n))
    refs = []
    for Ck in C:
        X = _kernels.solve_lower(L, Ck)
        Mk = _kernels.solve_lower(L, np.ascontiguousarray(X.T)).T
        refs.append(0.5 * (Mk + Mk.T))
    refs = np.stack(refs)
    M = _congruence(L, C)
    assert (M == M.transpose(0, 2, 1)).all()
    assert_allclose(M, refs, rtol=0, atol=1e-14 * np.abs(refs).max())


@PROPERTY
@given(seeds, st.integers(2, 6), st.integers(2, 5))
def test_ajd_recovers_a_congruence_constructed_set(seed, n, K):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    assume(np.linalg.cond(M) < 1e3)
    diags = 0.5 + 4.0 * rng.random((K, n))
    # components whose diagonal profiles over the set nearly coincide are
    # not identifiable; require every pair to differ
    unit = diags / np.linalg.norm(diags, axis=0)
    gaps = [np.linalg.norm(unit[:, p] - unit[:, q]) for p in range(n) for q in range(p)]
    assume(min(gaps) > 0.05)
    mats = [M.T @ np.diag(d) @ M for d in diags]
    weights = rng.random(K) + 0.1
    W, res = ajd(mats, weights=weights)
    scale = max(np.abs(m).max() for m in mats)
    assert res <= 1e-8 * scale**2
    assert amari_index(M @ W) < 1e-6
