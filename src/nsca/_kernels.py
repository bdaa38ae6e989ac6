"""Hot numeric kernels, one numpy implementation each.

Kernels never raise on numeric failure. They return status codes (a failing
pivot column, a divergence step, a converged flag) and the public wrappers in
``linalg``/``detectors`` translate those into the package's exception
taxonomy. ``perfbench/run.py --trace 1`` times each kernel on the benchmark
workloads; ``tests/test_kernels.py`` checks each against a reference.
"""

import functools
import math

import numpy as np

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
#
# A sweep visits every pair (p, q), p < q, once in row-cyclic order. Pairs
# with the same p + q are disjoint, and of two pairs that share an index the
# one with the smaller sum comes first in row-cyclic order. Rotations in
# disjoint planes commute and leave each other's angles as they are, so the
# waves p + q = 1 .. 2n - 3 give the row-cyclic sweep up to rounding. They run
# in n stages per sweep, each one orthogonal G: stage j rotates head wave
# p + q = j of a sweep beside tail wave p + q = j + n of the sweep before.
# Their indices are at most j and at least j + 1, and every pair of the sweep
# before that shares an index with the head wave sits in a wave no later than
# j + n - 1, so rotations that share an index still run in row-cyclic order.
# Heads join the tail before only when that sweep cannot be the last: a head
# angle (waves 1 .. n) is at or above the tolerance and the budget has a
# sweep left. Otherwise the tail runs alone and the sweep is tested on all
# its angles, as the row-cyclic loop would. Per pair the angle maximizes the
# weighted sum of squared diagonal gains over the set (Cardoso & Souloumiac,
# SIAM J. Matrix Anal. Appl. 17(1), 1996); an angle of at most 1e-18 is set
# to 0, so that its rotation is the identity.

# maps a stage's (p,p), (p,q), (q,q), (q,p) entries to [g - f | 2g | g + f | f]
# with g = M_pp - M_qq and f = M_pq + M_qp
_GAIN_MAP = np.array([[1.0, 2, 1, 0], [-1, 0, 1, 1], [-1, -2, -1, 0], [-1, 0, 1, 1]])


def row_cyclic_waves(n):
    # The pairs of one sweep as index arrays (p, q), grouped by p + q.
    return [(p, s - p) for s in range(1, 2 * n - 2)
            for p in [np.arange(max(0, s - n + 1), (s + 1) // 2)]]


def pipeline_stages(n, heads, tails):
    # The nonempty stages j = 1 .. n as index arrays (p, q): head wave
    # p + q = j if `heads`, then tail wave p + q = j + n if `tails`.
    waves = row_cyclic_waves(n)
    stages = [[waves[s - 1] for s, on in ((j, heads), (j + n, tails)) if on and s <= 2 * n - 3]
              for j in range(1, n + 1)]
    return [tuple(map(np.concatenate, zip(*st))) for st in stages if st]


@functools.lru_cache(maxsize=64)
def _stage_plan(K, n, heads, tails):
    # Per stage: the flat indices of its entries in A and in G, the gain map,
    # and its slice of the angles; then the positions of the head angles and
    # of the tail angles, each followed by the last position, which stays 0.
    plan, sums = [], []
    for p, q in pipeline_stages(n, heads, tails):
        rows, cols = np.concatenate((p, p, q, q)), np.concatenate((p, q, q, p))
        plan.append((rows * K * n + cols + n * np.arange(K)[:, None], rows * n + cols,
                     np.kron(_GAIN_MAP, np.eye(p.size)), slice(len(sums), len(sums) + p.size)))
        sums += (p + q).tolist()
    pos, sums, last = np.arange(len(sums)), np.array(sums, int), n * (n - 1) // 2
    return plan, np.append(pos[sums <= n], last), np.append(pos[sums > n], last)


def ajd_rotate(M, w, max_sweeps, angle_tol):
    # M is a (K, n, n) stack modified in place and max_sweeps >= 1; returns
    # (Q, sweeps, converged), converged 0 also after a NaN angle. A holds
    # M[k, i, j] at [i, k, j]. Each pass runs the heads of sweep `sweep`
    # alone, or its tail with or without the next sweep's heads.
    K, n = M.shape[:2]
    A = np.ascontiguousarray(M.transpose(1, 0, 2))
    Q = eye = np.eye(n)
    angles = np.zeros(n * (n - 1) // 2 + 1)  # one pass's; the last stays 0
    sweep, head_max = 1, None  # the largest |angle| of the sweep's heads, once run
    while True:
        heads = head_max is None or (head_max >= angle_tol and sweep < max_sweeps)
        stages, head, tail = _stage_plan(K, n, heads, head_max is not None)
        for idx, gidx, B, sl in stages:
            t = angles[sl]
            D = (A.take(idx) @ B).reshape(K, 2, -1)
            ton, toff = (w @ (D[:, 0] * D[:, 1])).reshape(2, -1)
            np.arctan2(toff, ton + np.sqrt(ton * ton + toff * toff), out=t)
            t *= 0.5
            t[np.abs(t) <= 1e-18] = 0.0
            c, s = np.cos(t), np.sin(t)
            G = eye.copy()
            G.flat[gidx] = np.concatenate((c, -s, c, s))
            A = G.T @ (A.reshape(-1, n) @ G).reshape(n, -1)
            Q = Q @ G
        a = np.abs(angles)
        if head_max is None:
            head_max = a[head].max()
            continue
        max_angle = np.maximum(head_max, a[tail].max())  # NaN if either is
        if not max_angle >= angle_tol or sweep == max_sweeps:
            break
        sweep, head_max = sweep + 1, a[head].max() if heads else None
    M[:] = A.reshape(n, K, n).transpose(1, 0, 2)
    return Q, sweep, int(max_angle < angle_tol)


# ---------------------------------------------------------------------------
# Standard normal CDF
# ---------------------------------------------------------------------------
#
# 0.5 erfc(-z / sqrt 2) through math.erfc, one Python call per value: about
# 11 ms per 1e5 values against 2 ms for scipy.special.ndtr, which would load
# scipy and its own OpenBLAS into every process. Over |z| <= 8.5 the two
# differ by at most 1.5e-14 relative (in the lower tail) and 2.2e-16
# absolute (one ulp near 1).

_SQRT2 = math.sqrt(2.0)


def normal_cdf(z):
    z = np.asarray(z, dtype=np.float64)
    w = (z / -_SQRT2).ravel().tolist()
    return 0.5 * np.fromiter(map(math.erfc, w), np.float64, count=len(w)).reshape(z.shape)


# ---------------------------------------------------------------------------
# Sliding-window Anderson-Darling statistic against a fitted Gaussian
# ---------------------------------------------------------------------------
#
# The Gaussian is fitted once, so F = clip(normal_cdf((x - mu) / sigma)) and its
# two logs belong to a sample, not to a window: they are computed once per
# sample, in the order of the sorted series. A window's samples in ascending
# order are then its sorted ranks in that order, and gathering both logs at
# those ranks gives, value for value, the arrays a per-window sort of x
# followed by normal_cdf, clip, log and log1p would give (tied samples have equal
# logs), so the sums are the same to the last bit. The windows run in blocks
# of max(1, _AD_BLOCK_ELEMS // p) windows, so working memory is
# O(T + _AD_BLOCK_ELEMS), not O(T * p). At the default p of 64 a block is
# 4096 windows. The weighted sums use einsum, which does not call BLAS, so
# the output does not depend on the BLAS thread count. Value j is the window
# [j, j + p), for the T - p + 1 full windows.

_AD_BLOCK_ELEMS = 4096 * 64


def ad_sliding(x, p, mu, sigma, fmin):
    T = x.shape[0]
    out = np.empty(T - p + 1)
    order = np.argsort(x)
    rank = np.empty(T, np.int32 if T <= np.iinfo(np.int32).max else np.intp)
    rank[order] = np.arange(T)
    F = np.clip(normal_cdf((x[order] - mu) / sigma), fmin, 1.0 - fmin)
    log_f, log_sf = np.log(F), np.log1p(-F)
    win = np.lib.stride_tricks.sliding_window_view(rank, p)
    i = np.arange(1, p + 1, dtype=np.float64)
    w_fwd = 2.0 * i - 1.0
    # sum_i (2i-1) log(1 - F(z_{p+1-i})) re-indexed onto ascending order
    w_rev = 2.0 * (p - i + 1.0) - 1.0
    block = max(1, _AD_BLOCK_ELEMS // p)
    for a in range(0, win.shape[0], block):
        r = np.sort(win[a:a + block], axis=1).astype(np.intp)
        acc = np.einsum("ij,j->i", log_f[r], w_fwd) + np.einsum("ij,j->i", log_sf[r], w_rev)
        out[a:a + block] = -p - acc / p
    return out


# ---------------------------------------------------------------------------
# EASI adaptive separation: per-sample relative-gradient update
# ---------------------------------------------------------------------------
#
# Each step is W <- A W with y = W x_k, g = g(y) and
# A = (1 + lam) I - lam (y y^T + g y^T - y g^T), that is W - lam H W with
# H = y y^T - I + g y^T - y g^T (Cardoso & Laheld, IEEE TSP 44(12), 1996).
# The scan runs on W^T. Step j owns a buffer of rows, in order:
#   W^T, at row 4r for the step's offset r in its refill window of
#        _EASI_REFILL steps;
#   for each sample left in the window, latest first, (W u)^T for
#        u = x, -lam x, -x, lam x, so the step's own four rows come last;
#   a fixed tail (0, e_i, (1 + lam) e_i) for each i.
# A step makes three calls. g is odd, so g on the third of its four rows
# (-y) leaves -g there. Over those four rows and the tail, C[1:]^T C[:-1]
# sums the outer products of neighbouring rows, which is
# A^T = (1 + lam) I - lam (y y^T + y g^T - g y^T). One product with A^T then
# moves W^T and every later sample's rows of the window to the next step's
# buffer, four rows lower, so they are again W u for the next W. Once per
# window one product refills the sample rows from W^T; a window that the
# series ends inside is padded with zero samples that never run. The index
# ||H||_F and the cap check do not feed back into the recursion, so both run
# vectorized once per block of _EASI_BLOCK steps over the y, -g and W^T the
# buffers keep. The index forms H entry by entry, as a per-step loop would:
# the closed form (|y|^2 - 1)^2 + n - 1 + 2(|g|^2 |y|^2 - (g.y)^2) cancels
# badly when one channel of y dominates (1e-6 relative at
# y = (1e3, 1e-3, 2e-3)). A step is mostly call overhead, so each product is
# the bound ndarray.dot of its left operand with out: the method skips
# np.dot's Python-level __array_function__ dispatcher and reaches the same C
# dot. At n=5 (2-core Xeon, numpy 2.4) that is 0.34-0.43 us per small product
# against 0.53-0.62 us for np.dot and 0.88 us for matmul. g is a
# functools.partial over its in-place arguments, so a step calls it with none
# and no Python frame; np.power takes 0.39 us with a 0-d exponent against
# 0.70 us with the int 3.

_EASI_BLOCK = 256
_EASI_REFILL = 16  # divides _EASI_BLOCK
_THREE = np.array(3.0)


def easi_scan(xt, lam, nonlin, cap):
    # xt is (T, n). nonlin: 0 cubic, 1 tanh. Returns (index, W, status,
    # where); status 1 means the recursion left [-cap, cap] (or went
    # non-finite) at step `where`; the index is zero after it and W is the
    # weights that step produced.
    T, n = xt.shape
    b = _EASI_REFILL
    tail = n + 4 * b  # first row of the tail; the step's four rows end here
    B = np.zeros((_EASI_BLOCK, tail + 3 * n, n))
    B[:, tail + 1::3] = np.eye(n)
    B[:, tail + 2::3] = (1.0 + lam) * np.eye(n)
    B[0, :n] = np.eye(n)
    At = np.empty((n, n))
    steps = []
    for j, Bj in enumerate(B):
        r = j % b
        C = Bj[tail - 4:]
        Bn = B[(j + 1) % _EASI_BLOCK]
        dst = Bn[:n] if r == b - 1 else Bn[4 * r + 4:tail]
        y = C[2]  # g runs on it in place
        g = (functools.partial(np.power, y, _THREE, y) if nonlin == 0
             else functools.partial(np.tanh, y, y))
        steps.append((g, C[1:].T.dot, C[:-1], Bj[4 * r:tail - 4].dot, dst))
    # where step j leaves W^T: in the next buffer, at row 4 (j + 1) mod b
    nxt = (np.arange(_EASI_BLOCK) + 1) % _EASI_BLOCK
    w_after = (nxt[:, None], 4 * (nxt % b)[:, None] + np.arange(n))
    scale = np.array([1.0, -lam, -1.0, lam])[:, None]
    idx = np.zeros(T)
    eye = np.eye(n)
    for a in range(0, T, _EASI_BLOCK):
        nb = min(_EASI_BLOCK, T - a)
        X = np.zeros((-(-nb // b) * b, n))
        X[:nb] = xt[a:a + nb]
        U = (X.reshape(-1, b, 1, n)[:, ::-1] * scale).reshape(-1, 4 * b, n)
        # the steps after a divergence in this block may overflow; they are
        # discarded below
        with np.errstate(over="ignore", invalid="ignore"):
            for w, Uw in enumerate(U):
                Bw = B[w * b]
                Uw.dot(Bw[:n], Bw[n:tail])
                for g, form, C0, move, dst in steps[w * b:min(w * b + b, nb)]:
                    g()
                    form(C0, At)
                    move(At, dst)
        after = B[w_after][:nb]
        bad = np.flatnonzero(~(np.abs(after).max(axis=(1, 2)) <= cap))
        stop = bad[0] + 1 if bad.size else nb
        Y, G = B[:stop, tail - 4, :, None], -B[:stop, tail - 2, :, None]
        Yt, Gt = Y.transpose(0, 2, 1), G.transpose(0, 2, 1)
        H = Y * Yt - eye + G * Yt - Y * Gt
        idx[a:a + stop] = np.sqrt(np.sum(H * H, axis=(1, 2)))
        if bad.size:
            return idx, after[stop - 1].T.copy(), 1, a + stop - 1
    r = T % b
    return idx, B[T % _EASI_BLOCK, 4 * r:4 * r + n].T.copy(), 0, -1


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

_AR_R0_TOL = 1e-300


def ar_sliding(x, w, q):
    # Per window [j, j + w), for the T - w + 1 full windows: demean, biased
    # autocovariances to lag q, then the Levinson-Durbin recursion. Windows
    # where r0 <= _AR_R0_TOL or the prediction error hits zero are flagged
    # ok=0 and left as zero rows.
    T = x.shape[0]
    nwin = T - w + 1
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
    ok = c[0] > _AR_R0_TOL
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
    return A.T, ok.astype(np.uint8)
