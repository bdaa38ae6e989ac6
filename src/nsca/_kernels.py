"""Hot numeric kernels: numba-jitted loops with pure-numpy fallbacks.

Every kernel here exists in two functionally equivalent implementations:

* ``*_nb`` -- a plain-loop source function compiled with ``numba.njit``;
* ``*_np`` -- a vectorized (or interpreted) numpy fallback.

The module-level unsuffixed name is an alias for whichever path is active.
The jitted path is used whenever numba imports cleanly; setting the
environment variable ``NSCA_NO_NUMBA=1`` before import forces the fallbacks.
``benchmarks/bench_kernels.py`` times both paths side by side.

Kernels never raise on numeric failure. They return status codes (a failing
pivot column, a divergence step, a converged flag) and the public wrappers in
``linalg``/``detectors`` translate those into the package's exception
taxonomy. All array arguments are expected as C-contiguous float64.
"""

import math
import os

import numpy as np
from scipy.special import ndtr


def _numba_disabled_by_env():
    return os.environ.get("NSCA_NO_NUMBA", "").strip().lower() in {"1", "true", "yes", "on"}


NUMBA_DISABLED = _numba_disabled_by_env()

try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled via NSCA_NO_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # passthrough decorator so sources stay importable
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


# ---------------------------------------------------------------------------
# Cholesky and triangular solves
# ---------------------------------------------------------------------------

def _cholesky_loop(S, tol):
    # Returns (L, fail): fail is -1 on success, else the column whose pivot
    # dropped to or below tol.
    n = S.shape[0]
    L = np.zeros((n, n))
    for j in range(n):
        d = S[j, j]
        for k in range(j):
            d -= L[j, k] * L[j, k]
        if d <= tol:
            return L, j
        L[j, j] = math.sqrt(d)
        for i in range(j + 1, n):
            acc = S[i, j]
            for k in range(j):
                acc -= L[i, k] * L[j, k]
            L[i, j] = acc / L[j, j]
    return L, -1


def cholesky_np(S, tol):
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


def _solve_lower_loop(L, B):
    # Solves L X = B for lower-triangular L.
    n = L.shape[0]
    m = B.shape[1]
    X = np.zeros((n, m))
    for c in range(m):
        for i in range(n):
            acc = B[i, c]
            for k in range(i):
                acc -= L[i, k] * X[k, c]
            X[i, c] = acc / L[i, i]
    return X


def solve_lower_np(L, B):
    n = L.shape[0]
    X = np.zeros_like(B)
    for i in range(n):
        X[i] = (B[i] - L[i, :i] @ X[:i]) / L[i, i]
    return X


def _solve_lower_t_loop(L, B):
    # Solves L^T X = B by back substitution on the same lower factor.
    n = L.shape[0]
    m = B.shape[1]
    X = np.zeros((n, m))
    for c in range(m):
        for i in range(n - 1, -1, -1):
            acc = B[i, c]
            for k in range(i + 1, n):
                acc -= L[k, i] * X[k, c]
            X[i, c] = acc / L[i, i]
    return X


def solve_lower_t_np(L, B):
    n = L.shape[0]
    X = np.zeros_like(B)
    for i in range(n - 1, -1, -1):
        X[i] = (B[i] - L[i + 1:, i] @ X[i + 1:]) / L[i, i]
    return X


# ---------------------------------------------------------------------------
# Cyclic Jacobi eigendecomposition of a symmetric matrix
# ---------------------------------------------------------------------------

def _jacobi_eig_loop(S, max_sweeps, eps):
    # Returns (diag, V, sweeps_used, converged). eps is the absolute bound on
    # off-diagonal magnitude at which a sweep declares convergence.
    n = S.shape[0]
    A = S.copy()
    V = np.eye(n)
    sweeps = 0
    for sweep in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                a = abs(A[p, q])
                if a > off:
                    off = a
        if off <= eps:
            d = np.empty(n)
            for i in range(n):
                d[i] = A[i, i]
            return d, V, sweeps, 1
        sweeps = sweep + 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for i in range(n):
                    aip = A[i, p]
                    aiq = A[i, q]
                    A[i, p] = c * aip - s * aiq
                    A[i, q] = s * aip + c * aiq
                for i in range(n):
                    api = A[p, i]
                    aqi = A[q, i]
                    A[p, i] = c * api - s * aqi
                    A[q, i] = s * api + c * aqi
                A[p, q] = 0.0
                A[q, p] = 0.0
                for i in range(n):
                    vip = V[i, p]
                    viq = V[i, q]
                    V[i, p] = c * vip - s * viq
                    V[i, q] = s * vip + c * viq
    d = np.empty(n)
    for i in range(n):
        d[i] = A[i, i]
    return d, V, max_sweeps, 0


def jacobi_eig_np(S, max_sweeps, eps):
    n = S.shape[0]
    A = S.copy()
    V = np.eye(n)
    sweeps = 0
    for sweep in range(max_sweeps):
        offmat = np.abs(A - np.diag(np.diag(A)))
        if offmat.max(initial=0.0) <= eps:
            return np.diag(A).copy(), V, sweeps, 1
        sweeps = sweep + 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) if theta != 0 else 1.0
                t = t / (abs(theta) + np.sqrt(1.0 + theta * theta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                colp = A[:, p].copy()
                colq = A[:, q].copy()
                A[:, p] = c * colp - s * colq
                A[:, q] = s * colp + c * colq
                rowp = A[p, :].copy()
                rowq = A[q, :].copy()
                A[p, :] = c * rowp - s * rowq
                A[q, :] = s * rowp + c * rowq
                A[p, q] = A[q, p] = 0.0
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    return np.diag(A).copy(), V, max_sweeps, 0


# ---------------------------------------------------------------------------
# Weighted orthogonal approximate joint diagonalization (Jacobi rotations)
# ---------------------------------------------------------------------------

def _ajd_rotate_loop(M, w, max_sweeps, angle_tol):
    # M is a (K, n, n) stack modified in place; returns (Q, sweeps, converged).
    # Per pair (p, q) the rotation angle maximizes the weighted sum of squared
    # diagonal gains over the stack (2x2 subproblem in closed form).
    K = M.shape[0]
    n = M.shape[1]
    Q = np.eye(n)
    for sweep in range(max_sweeps):
        max_angle = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                g00 = 0.0
                g01 = 0.0
                g11 = 0.0
                for i in range(K):
                    g1 = M[i, p, p] - M[i, q, q]
                    g2 = M[i, p, q] + M[i, q, p]
                    g00 += w[i] * g1 * g1
                    g01 += w[i] * g1 * g2
                    g11 += w[i] * g2 * g2
                ton = g00 - g11
                toff = 2.0 * g01
                theta = 0.5 * math.atan2(toff, ton + math.sqrt(ton * ton + toff * toff))
                a = abs(theta)
                if a > max_angle:
                    max_angle = a
                if a > 1e-18:
                    c = math.cos(theta)
                    s = math.sin(theta)
                    for i in range(K):
                        for r in range(n):
                            mp = M[i, r, p]
                            mq = M[i, r, q]
                            M[i, r, p] = c * mp + s * mq
                            M[i, r, q] = c * mq - s * mp
                        for r in range(n):
                            mp = M[i, p, r]
                            mq = M[i, q, r]
                            M[i, p, r] = c * mp + s * mq
                            M[i, q, r] = c * mq - s * mp
                    for r in range(n):
                        qp = Q[r, p]
                        qq = Q[r, q]
                        Q[r, p] = c * qp + s * qq
                        Q[r, q] = c * qq - s * qp
        if max_angle < angle_tol:
            return Q, sweep + 1, 1
    return Q, max_sweeps, 0


def ajd_rotate_np(M, w, max_sweeps, angle_tol):
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

def _ad_sliding_loop(x, p, mu, sigma, fmin):
    T = x.shape[0]
    out = np.zeros(T)
    inv = 1.0 / (sigma * math.sqrt(2.0))
    fmax = 1.0 - fmin
    for k in range(p - 1, T):
        z = np.sort(x[k - p + 1:k + 1])
        acc = 0.0
        for i in range(p):
            f1 = 0.5 * (1.0 + math.erf((z[i] - mu) * inv))
            f2 = 0.5 * (1.0 + math.erf((z[p - 1 - i] - mu) * inv))
            if f1 < fmin:
                f1 = fmin
            elif f1 > fmax:
                f1 = fmax
            if f2 < fmin:
                f2 = fmin
            elif f2 > fmax:
                f2 = fmax
            acc += (2.0 * (i + 1) - 1.0) * (math.log(f1) + math.log1p(-f2))
        out[k] = -p - acc / p
    return out


def ad_sliding_np(x, p, mu, sigma, fmin):
    T = x.shape[0]
    out = np.zeros(T)
    win = np.lib.stride_tricks.sliding_window_view(x, p)
    z = np.sort(win, axis=1)
    F = ndtr((z - mu) / sigma)
    np.clip(F, fmin, 1.0 - fmin, out=F)
    i = np.arange(1, p + 1, dtype=np.float64)
    w_fwd = 2.0 * i - 1.0
    # sum_i (2i-1) log(1 - F(z_{p+1-i})) re-indexed onto ascending order
    w_rev = 2.0 * (p - i + 1.0) - 1.0
    acc = np.log(F) @ w_fwd + np.log1p(-F) @ w_rev
    out[p - 1:] = -p - acc / p
    return out


# ---------------------------------------------------------------------------
# EASI adaptive separation: per-sample relative-gradient update
# ---------------------------------------------------------------------------

def _easi_scan_loop(xt, lam, nonlin, cap):
    # xt is (T, n) so each step reads a contiguous row. nonlin: 0 cubic, 1 tanh.
    # Returns (index, W, status, where); status 1 means the recursion left
    # [-cap, cap] (or went non-finite) at step `where`.
    T = xt.shape[0]
    n = xt.shape[1]
    W = np.eye(n)
    H = np.empty((n, n))
    idx = np.zeros(T)
    for k in range(T):
        y = W @ xt[k]
        if nonlin == 0:
            g = y * y * y
        else:
            g = np.tanh(y)
        fro = 0.0
        for a in range(n):
            for b in range(n):
                h = y[a] * y[b] + g[a] * y[b] - y[a] * g[b]
                if a == b:
                    h -= 1.0
                H[a, b] = h
                fro += h * h
        idx[k] = math.sqrt(fro)
        W = W - lam * (H @ W)
        bad = 0.0
        for a in range(n):
            for b in range(n):
                v = abs(W[a, b])
                if v > bad or v != v:
                    bad = v
        if not (bad <= cap):
            return idx, W, 1, k
    return idx, W, 0, -1


def easi_scan_np(xt, lam, nonlin, cap):
    T, n = xt.shape
    W = np.eye(n)
    eye = np.eye(n)
    idx = np.zeros(T)
    for k in range(T):
        y = W @ xt[k]
        g = y ** 3 if nonlin == 0 else np.tanh(y)
        H = np.outer(y, y) - eye + np.outer(g, y) - np.outer(y, g)
        idx[k] = np.sqrt(np.sum(H * H))
        W = W - lam * (H @ W)
        bad = np.max(np.abs(W))
        if not (bad <= cap):
            return idx, W, 1, k
    return idx, W, 0, -1


# ---------------------------------------------------------------------------
# Kalman filter scan: normalized squared innovations for an LTI model
# ---------------------------------------------------------------------------
#
# The model is time-invariant, so the Riccati recursion for the predicted
# covariance P converges (the steady-state filter; Anderson & Moore, Optimal
# Filtering, 1979, ch. 4). kalman_scan_np runs the Joseph-form update until
# the change of P per step is at most _STEADY_TOL of max|P| and has set no
# new low over the latter half of the steps so far (only rounding noise is
# left), then switches to the fixed gain if the closed loop F(I - KH) is
# stable. _kalman_scan_loop (the jitted path) never switches.

_STEADY_TOL = 1e-12
_BLOCK = 2048


def _kalman_scan_loop(zt, F, H, Q, R, x0, P0):
    # zt is (T, m). Returns (e, status, where); status 1 means the innovation
    # covariance lost positive definiteness at step `where`. The covariance
    # update uses the Joseph form to keep P symmetric PSD under rounding.
    T = zt.shape[0]
    m = zt.shape[1]
    sdim = F.shape[0]
    x = x0.copy()
    P = P0.copy()
    eye_s = np.eye(sdim)
    e = np.zeros(T)
    Ls = np.zeros((m, m))
    a = np.zeros(m)
    for k in range(T):
        x = F @ x
        P = F @ P @ F.T + Q
        innov = zt[k] - H @ x
        S = H @ P @ H.T + R
        fail = -1
        for j in range(m):
            d = S[j, j]
            for t in range(j):
                d -= Ls[j, t] * Ls[j, t]
            if d <= 0.0:
                fail = j
                break
            Ls[j, j] = math.sqrt(d)
            for i in range(j + 1, m):
                acc = S[i, j]
                for t in range(j):
                    acc -= Ls[i, t] * Ls[j, t]
                Ls[i, j] = acc / Ls[j, j]
        if fail >= 0:
            return e, 1, k
        for i in range(m):
            acc = innov[i]
            for t in range(i):
                acc -= Ls[i, t] * a[t]
            a[i] = acc / Ls[i, i]
        for i in range(m - 1, -1, -1):
            acc = a[i]
            for t in range(i + 1, m):
                acc -= Ls[t, i] * a[t]
            a[i] = acc / Ls[i, i]
        e[k] = innov @ a
        B = H @ P  # (m, sdim); gain K solves S K^T = B
        Kt = np.zeros((m, sdim))
        for c in range(sdim):
            for i in range(m):
                acc = B[i, c]
                for t in range(i):
                    acc -= Ls[i, t] * Kt[t, c]
                Kt[i, c] = acc / Ls[i, i]
            for i in range(m - 1, -1, -1):
                acc = Kt[i, c]
                for t in range(i + 1, m):
                    acc -= Ls[t, i] * Kt[t, c]
                Kt[i, c] = acc / Ls[i, i]
        K = Kt.T.copy()
        x = x + K @ innov
        IKH = eye_s - K @ H
        P = IKH @ P @ IKH.T + K @ R @ K.T
        P = 0.5 * (P + P.T)
    return e, 0, -1


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


def kalman_scan_np(zt, F, H, Q, R, x0, P0):
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

def _ar_sliding_loop(x, w, q, r0_tol):
    # Per trailing window: demean, biased autocovariances to lag q, then the
    # Levinson-Durbin recursion. Windows where r0 <= r0_tol or the prediction
    # error hits zero are flagged ok=0 and left as zero rows.
    T = x.shape[0]
    coef = np.zeros((T, q))
    ok = np.zeros(T, dtype=np.uint8)
    r = np.zeros(q + 1)
    a = np.zeros(q)
    anew = np.zeros(q)
    for k in range(w - 1, T):
        base = k - w + 1
        mu = 0.0
        for t in range(w):
            mu += x[base + t]
        mu /= w
        for j in range(q + 1):
            acc = 0.0
            for t in range(j, w):
                acc += (x[base + t] - mu) * (x[base + t - j] - mu)
            r[j] = acc / w
        if r[0] <= r0_tol:
            continue
        for i in range(q):
            a[i] = 0.0
        E = r[0]
        good = True
        for i in range(1, q + 1):
            acc = r[i]
            for j in range(1, i):
                acc -= a[j - 1] * r[i - j]
            kr = acc / E
            for j in range(1, i):
                anew[j - 1] = a[j - 1] - kr * a[i - j - 1]
            anew[i - 1] = kr
            for j in range(i):
                a[j] = anew[j]
            E *= 1.0 - kr * kr
            if E <= 0.0:
                good = False
                break
        if good:
            for j in range(q):
                coef[k, j] = a[j]
            ok[k] = 1
    return coef, ok


def ar_sliding_np(x, w, q, r0_tol):
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


# ---------------------------------------------------------------------------
# Path selection
# ---------------------------------------------------------------------------

if HAVE_NUMBA:
    cholesky_nb = njit(cache=True)(_cholesky_loop)
    solve_lower_nb = njit(cache=True)(_solve_lower_loop)
    solve_lower_t_nb = njit(cache=True)(_solve_lower_t_loop)
    jacobi_eig_nb = njit(cache=True)(_jacobi_eig_loop)
    ajd_rotate_nb = njit(cache=True)(_ajd_rotate_loop)
    ad_sliding_nb = njit(cache=True)(_ad_sliding_loop)
    easi_scan_nb = njit(cache=True)(_easi_scan_loop)
    kalman_scan_nb = njit(cache=True)(_kalman_scan_loop)
    ar_sliding_nb = njit(cache=True)(_ar_sliding_loop)

    cholesky = cholesky_nb
    solve_lower = solve_lower_nb
    solve_lower_t = solve_lower_t_nb
    jacobi_eig = jacobi_eig_nb
    ajd_rotate = ajd_rotate_nb
    ad_sliding = ad_sliding_nb
    easi_scan = easi_scan_nb
    kalman_scan = kalman_scan_nb
    ar_sliding = ar_sliding_nb
else:
    cholesky = cholesky_np
    solve_lower = solve_lower_np
    solve_lower_t = solve_lower_t_np
    jacobi_eig = jacobi_eig_np
    ajd_rotate = ajd_rotate_np
    ad_sliding = ad_sliding_np
    easi_scan = easi_scan_np
    kalman_scan = kalman_scan_np
    ar_sliding = ar_sliding_np
