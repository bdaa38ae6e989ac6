"""The vectorized sliding kernels against per-window references.

``ar_sliding`` and ``ad_sliding`` compute every window at once from running
sums and a strided view. Here a few windows are recomputed one at a time, by
a Toeplitz solve of the window's autocovariances and by the direct
Anderson-Darling sum over the sorted window.
"""

import math

import numpy as np
import pytest
from scipy.linalg import solve_toeplitz

from nsca import _kernels


def ar2_series(T, seed):
    rng = np.random.default_rng(seed)
    x = np.zeros(T)
    for k in range(2, T):
        x[k] = 1.2 * x[k - 1] - 0.5 * x[k - 2] + rng.normal()
    return x + 3.0  # a nonzero mean, which every window must remove


def window_yule_walker(win, q):
    c = win - win.mean()
    r = np.array([c[j:] @ c[: c.size - j] for j in range(q + 1)]) / c.size
    return solve_toeplitz(r[:q], r[1:])


def window_ad(win, mu, sigma, fmin):
    z = np.sort(win)
    p = z.size
    F = [min(max(0.5 * math.erfc(-(v - mu) / (sigma * math.sqrt(2.0))), fmin), 1.0 - fmin) for v in z]
    acc = sum((2 * i - 1) * (math.log(F[i - 1]) + math.log(1.0 - F[p - i])) for i in range(1, p + 1))
    return -p - acc / p


class TestArSliding:
    @pytest.mark.parametrize("w,q", [(64, 2), (200, 5)])
    def test_windows_match_toeplitz_solve(self, w, q):
        x = ar2_series(1500, seed=w)
        coef, ok = _kernels.ar_sliding(x, w, q, 1e-300)
        assert not ok[: w - 1].any() and not coef[: w - 1].any()
        for k in (w - 1, 700, x.size - 1):
            assert ok[k]
            ref = window_yule_walker(x[k - w + 1 : k + 1], q)
            np.testing.assert_allclose(coef[k], ref, rtol=1e-8, atol=1e-10)


class TestAdSliding:
    @pytest.mark.parametrize("p", [8, 64])
    def test_windows_match_direct_sum(self, p):
        x = np.random.default_rng(p).normal(size=600)
        x[300] = 40.0  # far tail: its CDF value clamps to 1 - fmin
        mu, sigma, fmin = 0.1, 1.1, 1e-12
        out = _kernels.ad_sliding(x, p, mu, sigma, fmin)
        assert not out[: p - 1].any()
        for k in (p - 1, 300, 300 + p - 1, x.size - 1):
            ref = window_ad(x[k - p + 1 : k + 1], mu, sigma, fmin)
            assert out[k] == pytest.approx(ref, rel=1e-10, abs=1e-12)
