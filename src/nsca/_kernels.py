"""Hot numeric kernels, one numpy implementation each.

Kernels never raise on numeric failure. They return status codes (a failing
pivot column, a divergence step, a converged flag) and the public wrappers in
``linalg``/``detectors`` translate those into the package's exception
taxonomy. ``benchmarks/bench_kernels.py`` times each kernel and checks its
status.
"""

import math

import numpy as np
from scipy.special import ndtr

# Kept for run metadata: the kernels have no numba path.
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# Cholesky and triangular solves
# ---------------------------------------------------------------------------

def cholesky(S, tol):
    # Returns (L, fail): fail is -1 on success, else the column whose pivot
    # dropped to or below tol.
    n = S.shape[0]
    L = np.zeros((n, n))
    for j in range(n):
        d = S[j, j] - L[j, :j] @ L[j, :j]
        if d <= tol:
            return L, j
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1:, j] = (S[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L, -1


def solve_lower(L, B):
    # Solves L X = B for lower-triangular L.
    n = L.shape[0]
    X = np.zeros_like(B)
    for i in range(n):
        X[i] = (B[i] - L[i, :i] @ X[:i]) / L[i, i]
    return X


def solve_lower_t(L, B):
    # Solves L^T X = B by back substitution on the same lower factor.
    n = L.shape[0]
    X = np.zeros_like(B)
    for i in range(n - 1, -1, -1):
        X[i] = (B[i] - L[i + 1:, i] @ X[i + 1:]) / L[i, i]
    return X


# ---------------------------------------------------------------------------
# Symmetric eigendecomposition (LAPACK through numpy.linalg.eigh)
# ---------------------------------------------------------------------------

def jacobi_eig(S):
    # Returns (values ascending, V, sweeps, converged); converged is 0 when
    # LAPACK fails. The Jacobi name and the always-zero sweep count remain only
    # because perfbench/spans.py wraps this kernel by name and reads out[2] and
    # out[3].
    try:
        vals, V = np.linalg.eigh(S)
    except np.linalg.LinAlgError:
        n = S.shape[0]
        return np.full(n, np.nan), np.full((n, n), np.nan), 0, 0
    return vals, V, 0, 1


# ---------------------------------------------------------------------------
# Weighted orthogonal approximate joint diagonalization (Jacobi rotations)
# ---------------------------------------------------------------------------

def ajd_rotate(M, w, max_sweeps, angle_tol):
    # M is a (K, n, n) stack modified in place; returns (Q, sweeps, converged).
    # Per pair (p, q) the rotation angle maximizes the weighted sum of squared
    # diagonal gains over the stack (2x2 subproblem in closed form).
    n = M.shape[1]
    Q = np.eye(n)
    for sweep in range(max_sweeps):
        max_angle = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                g1 = M[:, p, p] - M[:, q, q]
                g2 = M[:, p, q] + M[:, q, p]
                g00 = float(w @ (g1 * g1))
                g01 = float(w @ (g1 * g2))
                g11 = float(w @ (g2 * g2))
                ton = g00 - g11
                toff = 2.0 * g01
                theta = 0.5 * math.atan2(toff, ton + math.sqrt(ton * ton + toff * toff))
                a = abs(theta)
                if a > max_angle:
                    max_angle = a
                if a > 1e-18:
                    c = math.cos(theta)
                    s = math.sin(theta)
                    colp = M[:, :, p].copy()
                    colq = M[:, :, q].copy()
                    M[:, :, p] = c * colp + s * colq
                    M[:, :, q] = c * colq - s * colp
                    rowp = M[:, p, :].copy()
                    rowq = M[:, q, :].copy()
                    M[:, p, :] = c * rowp + s * rowq
                    M[:, q, :] = c * rowq - s * rowp
                    qp = Q[:, p].copy()
                    qq = Q[:, q].copy()
                    Q[:, p] = c * qp + s * qq
                    Q[:, q] = c * qq - s * qp
        if max_angle < angle_tol:
            return Q, sweep + 1, 1
    return Q, max_sweeps, 0


# ---------------------------------------------------------------------------
# Sliding-window Anderson-Darling statistic against a fitted Gaussian
# ---------------------------------------------------------------------------
#
# The windows run in blocks of max(1, _AD_BLOCK_ELEMS // p) windows, so
# working memory is O(_AD_BLOCK_ELEMS + p), not O(T * p). At the default p
# of 64 a block is 4096 windows. The weighted sums use einsum, which does not
# call BLAS, so the output does not depend on the BLAS thread count.

_AD_BLOCK_ELEMS = 4096 * 64


def ad_sliding(x, p, mu, sigma, fmin):
    out = np.zeros(x.shape[0])
    win = np.lib.stride_tricks.sliding_window_view(x, p)
    i = np.arange(1, p + 1, dtype=np.float64)
    w_fwd = 2.0 * i - 1.0
    # sum_i (2i-1) log(1 - F(z_{p+1-i})) re-indexed onto ascending order
    w_rev = 2.0 * (p - i + 1.0) - 1.0
    block = max(1, _AD_BLOCK_ELEMS // p)
    for a in range(0, win.shape[0], block):
        z = np.sort(win[a:a + block], axis=1)
        F = ndtr((z - mu) / sigma)
        np.clip(F, fmin, 1.0 - fmin, out=F)
        acc = np.einsum("ij,j->i", np.log(F), w_fwd) + np.einsum("ij,j->i", np.log1p(-F), w_rev)
        out[p - 1:][a:a + block] = -p - acc / p
    return out


# ---------------------------------------------------------------------------
# EASI adaptive separation: per-sample relative-gradient update
# ---------------------------------------------------------------------------
#
# Each step is W <- W - lam H W with y = W x_k and
# H = y y^T - I + g(y) y^T - y g(y)^T. With M = [y; g] (2 x n) and
# E = [[1, -1], [1, 0]], H = M^T E M - I, so the step is the rank-2 update
# W <- ((1 + lam) I - lam M^T E M) W: one n x n product. Its matrix is formed
# by one product too, [M^T | I] @ [-lam E M; (1 + lam) I], from a per-step
# buffer whose rows are y, g and then the identity. Neither the index
# ||H||_F nor the cap check feeds back into the recursion, so both run
# vectorized once per block of _EASI_BLOCK steps, over the stored y, g and W.
# The index forms H entry by entry, as a per-step loop would: the closed form
# (|y|^2 - 1)^2 + n - 1 + 2(|g|^2 |y|^2 - (g.y)^2) cancels badly when one
# channel of y dominates (1e-6 relative at y = (1e3, 1e-3, 2e-3)).

_EASI_BLOCK = 256


def easi_scan(xt, lam, nonlin, cap):
    # xt is (T, n) so each step reads a contiguous row. nonlin: 0 cubic, 1 tanh.
    # Returns (index, W, status, where); status 1 means the recursion left
    # [-cap, cap] (or went non-finite) at step `where`; the index is zero
    # after it and W is the weights that step produced.
    T, n = xt.shape
    eye = np.eye(n)
    W = eye
    idx = np.zeros(T)
    minus_lam_E = np.array([[-lam, lam], [-lam, 0.0]])
    L = np.empty((_EASI_BLOCK, n + 2, n))  # per step: y, g, then I
    L[:, 2:] = eye
    R = np.empty((n + 2, n))  # -lam E M, then (1 + lam) I
    R[2:] = (1.0 + lam) * eye
    EM = R[:2]
    A = np.empty((n, n))
    Ws = np.empty((_EASI_BLOCK, n, n))
    steps = [(Lj[0], Lj[1], Lj[:2], Lj.T, Wj) for Lj, Wj in zip(L, Ws)]
    for a in range(0, T, _EASI_BLOCK):
        nb = min(_EASI_BLOCK, T - a)
        # the steps after a divergence in this block may overflow; they are
        # discarded below
        with np.errstate(over="ignore", invalid="ignore"):
            for (y, g, M, LT, Wj), x in zip(steps, xt[a:a + nb]):
                np.matmul(W, x, out=y)
                if nonlin == 0:
                    np.power(y, 3, out=g)
                else:
                    np.tanh(y, out=g)
                np.matmul(minus_lam_E, M, out=EM)
                np.matmul(LT, R, out=A)
                W = np.matmul(A, W, out=Wj)
        bad = np.flatnonzero(~(np.abs(Ws[:nb]).max(axis=(1, 2)) <= cap))
        stop = bad[0] + 1 if bad.size else nb
        Y, G = L[:stop, 0, :, None], L[:stop, 1, :, None]
        Yt, Gt = Y.transpose(0, 2, 1), G.transpose(0, 2, 1)
        H = Y * Yt - eye + G * Yt - Y * Gt
        idx[a:a + stop] = np.sqrt(np.sum(H * H, axis=(1, 2)))
        if bad.size:
            return idx, Ws[stop - 1].copy(), 1, a + stop - 1
    return idx, W.copy(), 0, -1


# ---------------------------------------------------------------------------
# Kalman filter scan: normalized squared innovations for an LTI model
# ---------------------------------------------------------------------------
#
# The model is time-invariant, so the Riccati recursion for the predicted
# covariance P converges (the steady-state filter; Anderson & Moore, Optimal
# Filtering, 1979, ch. 4). kalman_scan runs the Joseph-form update until
# the change of P per step is at most _STEADY_TOL of max|P| and has set no
# new low over the latter half of the steps so far (only rounding noise is
# left), then switches to the fixed gain if the closed loop F(I - KH) is
# stable.

_STEADY_TOL = 1e-12
_BLOCK = 2048


def _steady_gain(F, H, P, S):
    # closed-loop matrix F(I - KH) and input matrix FK of the fixed-gain filter
    FK = F @ np.linalg.solve(S, H @ P).T
    return F - FK @ H, FK


def _fixed_gain_innovations(zt, A, B, H, S, x, out):
    # e over zt, into out, for x_{j+1} = A x_j + B z_j from predicted state x,
    # in blocks of _BLOCK rows to keep temporaries small. Prefix scan: with
    # v_0 = x and v_j = B z_{j-1}, after the pass at offset d row j holds the
    # sum of A^(j-i) v_i over the 2d rows i <= j.
    for a in range(0, zt.shape[0], _BLOCK):
        z = zt[a:a + _BLOCK]
        X = np.empty((z.shape[0], x.size))
        X[0] = x
        X[1:] = z[:-1] @ B.T
        Ad, d = A, 1
        while d < z.shape[0]:
            X[d:] += X[:-d] @ Ad.T
            Ad, d = Ad @ Ad, 2 * d
        x = A @ X[-1] + B @ z[-1]
        innov = z - X @ H.T
        out[a:a + _BLOCK] = np.einsum("ij,ji->i", innov, np.linalg.solve(S, innov.T))


def kalman_scan(zt, F, H, Q, R, x0, P0):
    # zt is (T, m). Returns (e, status, where); status 1 means the innovation
    # covariance lost positive definiteness at step `where`.
    T, m = zt.shape
    sdim = F.shape[0]
    x = x0.copy()
    P = P0.copy()
    eye_s = np.eye(sdim)
    e = np.zeros(T)
    P_prev = np.full_like(P, np.nan)
    best, k_best, steady = np.inf, 0, True
    for k in range(T):
        x = F @ x
        P = F @ P @ F.T + Q
        innov = zt[k] - H @ x
        S = H @ P @ H.T + R
        try:
            np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            return e, 1, k
        d = np.max(np.abs(P - P_prev))
        if d < best:
            best, k_best = d, k
        elif steady and k >= 2 * k_best and best <= _STEADY_TOL * np.max(np.abs(P)):
            A, B = _steady_gain(F, H, P, S)
            if np.max(np.abs(np.linalg.eigvals(A))) < 1.0:
                _fixed_gain_innovations(zt[k:], A, B, H, S, x, e[k:])
                return e, 0, -1
            steady = False
        P_prev = P
        a = np.linalg.solve(S, innov)
        e[k] = innov @ a
        K = np.linalg.solve(S, H @ P).T
        x = x + K @ innov
        IKH = eye_s - K @ H
        P = IKH @ P @ IKH.T + K @ R @ K.T
        P = 0.5 * (P + P.T)
    return e, 0, -1


# ---------------------------------------------------------------------------
# Sliding-window autoregressive coefficients (Yule-Walker / Levinson-Durbin)
# ---------------------------------------------------------------------------

def ar_sliding(x, w, q, r0_tol):
    # Per trailing window: demean, biased autocovariances to lag q, then the
    # Levinson-Durbin recursion. Windows where r0 <= r0_tol or the prediction
    # error hits zero are flagged ok=0 and left as zero rows.
    T = x.shape[0]
    coef = np.zeros((T, q))
    ok_full = np.zeros(T, dtype=np.uint8)
    nwin = T - w + 1
    if nwin <= 0:
        return coef, ok_full
    S1 = np.concatenate(([0.0], np.cumsum(x)))
    c = np.empty((q + 1, nwin))
    starts = np.arange(nwin)
    mu = (S1[starts + w] - S1[starts]) / w
    for j in range(q + 1):
        pj = np.concatenate((np.zeros(j + 1), np.cumsum(x[j:] * x[:T - j])))
        term1 = pj[starts + w] - pj[starts + j]
        sum_t = S1[starts + w] - S1[starts + j]
        sum_tm = S1[starts + w - j] - S1[starts]
        c[j] = (term1 - mu * (sum_t + sum_tm) + (w - j) * mu * mu) / w
    ok = c[0] > r0_tol
    A = np.zeros((q, nwin))
    Anew = np.zeros((q, nwin))
    E = np.where(ok, c[0], 1.0)
    for i in range(1, q + 1):
        acc = c[i].copy()
        for j in range(1, i):
            acc -= A[j - 1] * c[i - j]
        kr = np.where(ok, acc / np.where(E > 0.0, E, 1.0), 0.0)
        for j in range(1, i):
            Anew[j - 1] = A[j - 1] - kr * A[i - j - 1]
        Anew[i - 1] = kr
        A[:i] = Anew[:i]
        E = E * (1.0 - kr * kr)
        ok &= E > 0.0
    A[:, ~ok] = 0.0
    coef[w - 1:] = A.T
    ok_full[w - 1:] = ok.astype(np.uint8)
    return coef, ok_full
