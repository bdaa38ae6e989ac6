"""The vectorized kernels against step-by-step references.

``ar_sliding`` computes every window at once from running sums. Here its
windows are recomputed one at a time by a Toeplitz solve of the window's
autocovariances. ``ad_sliding`` computes the CDF and its two logs once per
sample and gathers them, in blocks of about ``_AD_BLOCK_ELEMS`` samples, at
each window's sorted ranks. It is checked against the direct
Anderson-Darling sum over each sorted window, and bit for bit against
``ad_sorted_windows``, which sorts each window and takes the CDF and the logs
there. ``easi_scan`` runs each step on W^T as three numpy calls: the
nonlinearity, one product that forms the update matrix, and one that applies
it to W^T and to the rows of the samples left in its refill window of
``_EASI_REFILL`` steps. It checks its index and cap once per block;
``easi_reference`` is the per-step loop with the index and the cap check at
every step. ``ajd_rotate`` rotates the disjoint pairs of each row-cyclic wave
(p + q fixed) with one product, and runs the first waves of a sweep beside the
last waves of the sweep before; ``ajd_reference`` is the row-cyclic loop with
one scalar rotation per pair.
"""

import functools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_toeplitz
from scipy.special import ndtr

from nsca import _kernels
from nsca.cli import CLI_EASI_STEP
from nsca.detectors import EASI_DIVERGENCE_CAP, prewhiten
from nsca.synthetic import DEFAULT_BURST, default_source_specs, gen_mixture


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
        coef, ok = _kernels.ar_sliding(x, w, q)
        assert not ok[: w - 1].any() and not coef[: w - 1].any()
        for k in (w - 1, 700, x.size - 1):
            assert ok[k]
            ref = window_yule_walker(x[k - w + 1 : k + 1], q)
            np.testing.assert_allclose(coef[k], ref, rtol=1e-8, atol=1e-10)


class TestNormalCdf:
    def test_matches_scipy_ndtr(self):
        # a grid over |z| <= 8.5, where ndtr stays above 9e-18; on a
        # random 2e7 points the largest gaps were 1.5e-14 relative (in the
        # lower tail) and 2.2e-16 absolute (one ulp near 1)
        z = np.concatenate((np.linspace(-8.5, 8.5, 340_001),
                            np.random.default_rng(0).uniform(-8.5, 8.5, 100_000)))
        got, want = _kernels.normal_cdf(z), ndtr(z)
        assert np.all(np.abs(got - want) <= 2.6e-14 * want)
        assert np.abs(got - want).max() <= 2.3e-16

    def test_keeps_shape_and_limits(self):
        z = np.array([[-np.inf, -40.0, 0.0], [40.0, np.inf, np.nan]])
        got = _kernels.normal_cdf(z)
        assert got.shape == (2, 3)
        np.testing.assert_array_equal(got, [[0.0, 0.0, 0.5], [1.0, 1.0, np.nan]])
        assert _kernels.normal_cdf(0.0) == 0.5


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


def window_ad_fsum(win, mu, sigma, fmin):
    # the kernel's terms for one window, summed with a single rounding
    p = win.size
    F = np.clip(_kernels.normal_cdf((np.sort(win) - mu) / sigma), fmin, 1.0 - fmin)
    w = 2.0 * np.arange(1, p + 1) - 1.0
    return -p - math.fsum(np.concatenate([w * np.log(F), w[::-1] * np.log1p(-F)])) / p


# windows per block at the default p=64; at p=200 a block is 1310 windows
AD_BLOCK = _kernels._AD_BLOCK_ELEMS // 64


class TestAdBlocks:
    @pytest.mark.parametrize("p", [1, 2, 64, 200])
    @pytest.mark.parametrize("windows", [AD_BLOCK - 1, AD_BLOCK, AD_BLOCK + 1, 2 * AD_BLOCK + 7])
    def test_every_window_matches_direct_sum(self, windows, p):
        x = np.random.default_rng(windows + p).normal(size=windows + p - 1)
        mu, sigma, fmin = 0.1, 1.1, 1e-12
        out = _kernels.ad_sliding(x, p, mu, sigma, fmin)
        assert not out[: p - 1].any()
        ref = [window_ad_fsum(x[k : k + p], mu, sigma, fmin) for k in range(windows)]
        # A^2 is -p minus a sum of size about p, so its rounding scales with p
        np.testing.assert_allclose(out[p - 1 :], ref, rtol=1e-13, atol=1e-13 * p)

    def test_same_bytes_under_one_and_two_blas_threads(self):
        # One product over all windows differed in one row between thread
        # counts for about one series in six, so eight series are hashed at
        # the default window. Blocks of a fixed 4096 windows went over
        # OpenBLAS's threading threshold at p=128 and p=200 on these lengths,
        # and one-window products above 10000 samples went over it too. The
        # EASI scan's index and final W are hashed too, on prewhitened
        # generator records, for both nonlinearities.
        code = ("import hashlib, numpy as np; from nsca import _kernels\n"
                "from nsca.detectors import EASI_DIVERGENCE_CAP, prewhiten\n"
                "from nsca.synthetic import DEFAULT_BURST, default_source_specs, gen_mixture\n"
                "cases = [(seed, 100_000, 64) for seed in range(8)]\n"
                "cases += [(seed, T, p) for seed in range(3)\n"
                "          for T, p in ((12_020, 128), (12_092, 200), (10_027, 10_001),\n"
                "                       (10_053, 10_001), (12_042, 12_000))]\n"
                "for seed, T, p in cases:\n"
                "    x = np.random.default_rng(seed).normal(size=T)\n"
                "    out = _kernels.ad_sliding(x, p, 0.0, 1.0, 1e-12)\n"
                "    print(p, hashlib.sha256(out.tobytes()).hexdigest())\n"
                "for n in (2, 5, 8):\n"
                "    rec, _ = gen_mixture(n, 20_000, DEFAULT_BURST, default_source_specs(n), seed=n)\n"
                "    xt = np.ascontiguousarray(prewhiten(rec).samples.T)\n"
                "    for nonlin in (0, 1):\n"
                "        idx, W, status, where = _kernels.easi_scan(xt, 1e-4, nonlin, EASI_DIVERGENCE_CAP)\n"
                "        print(n, nonlin, status, where,\n"
                "              hashlib.sha256(idx.tobytes() + W.tobytes()).hexdigest())")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        procs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  env=dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                                           OPENBLAS_NUM_THREADS=threads))
                 for threads in ("1", "2")]
        outs = [proc.communicate(timeout=120) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], outs
        assert outs[0][0] == outs[1][0]

    def test_working_memory_is_bounded_by_the_block(self):
        x = np.random.default_rng(3).normal(size=100_000)
        tracemalloc.start()
        try:
            _kernels.ad_sliding(x, 64, 0.0, 1.0, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6  # all windows at once traced about 200 MB


def ad_sorted_windows(x, p, mu, sigma, fmin):
    # Reference for _kernels.ad_sliding: each block of windows sorted, then
    # normal_cdf, clip, log and log1p on the sorted values and the kernel's two
    # einsum sums, as the kernel ran before it gathered per-sample logs.
    out = np.zeros(x.shape[0])
    win = np.lib.stride_tricks.sliding_window_view(x, p)
    i = np.arange(1, p + 1, dtype=np.float64)
    w_fwd = 2.0 * i - 1.0
    w_rev = 2.0 * (p - i + 1.0) - 1.0
    block = max(1, _kernels._AD_BLOCK_ELEMS // p)
    for a in range(0, win.shape[0], block):
        z = np.sort(win[a:a + block], axis=1)
        F = _kernels.normal_cdf((z - mu) / sigma)
        np.clip(F, fmin, 1.0 - fmin, out=F)
        acc = np.einsum("ij,j->i", np.log(F), w_fwd) + np.einsum("ij,j->i", np.log1p(-F), w_rev)
        out[p - 1:][a:a + block] = -p - acc / p
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 300), st.sampled_from([None, 0, 1]),
       st.floats(-5.0, 5.0), st.floats(0.2, 5.0), st.integers(0, 2**32 - 1))
def test_ad_sliding_is_bit_identical_to_sorted_windows(data, p, decimals, mu, sigma, seed):
    # Window counts at and around a block edge, rounded samples for ties, and far-tail samples whose CDF clamps at fmin or
    # 1 - fmin. Every gathered log is the double the per-window formula
    # computes and the same contiguous rows are summed, so no bit may move.
    block = max(1, _kernels._AD_BLOCK_ELEMS // p)
    windows = data.draw(st.sampled_from([block - 1, block, block + 1, 2 * block + 3])
                        | st.integers(1, 2 * p))
    rng = np.random.default_rng(seed)
    x = mu + sigma * rng.standard_normal(windows + p - 1)
    if decimals is not None:
        x = np.round(x, decimals)
    x[rng.integers(0, x.size, size=3)] = mu + sigma * np.array([45.0, -45.0, 40.0])
    out = _kernels.ad_sliding(x, p, mu, sigma, 1e-12)
    assert out.tobytes() == ad_sorted_windows(x, p, mu, sigma, 1e-12).tobytes()


def easi_reference(xt, lam, nonlin, cap):
    # Reference for _kernels.easi_scan: H formed from three outer products,
    # and the index and the cap check taken at every step.
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


BLOCK = _kernels._EASI_BLOCK
REFILL = _kernels._EASI_REFILL


@functools.lru_cache(maxsize=None)
def generator_input(n, T=3000):
    # a prewhitened generator record, as the CLI feeds the scan
    rec, _ = gen_mixture(n, T, DEFAULT_BURST, default_source_specs(n), seed=100 + n)
    return np.ascontiguousarray(prewhiten(rec).samples.T)


def broken_at(xt, k, kind, nonlin):
    # A copy whose sample k sends W out of the cap at step k: a NaN, or a
    # spike. The spike's channels differ in magnitude, so H has no entry that
    # cancels to near zero. The cubic spike is only about ten times what the
    # cap needs, because there the kernel's update matrix rounds its
    # diagonal to about eps * |y|^2 relative against the loop's (the g_i y_i
    # terms no longer cancel); with tanh, g stays below 1.
    x = xt.copy()
    if kind == "nan":
        x[k, -1] = np.nan
    else:
        n = x.shape[1]
        size = 400.0 if nonlin == 0 else 1e6
        x[k] = size * np.linspace(0.5, 1.5, n) * (-1.0) ** np.arange(n)
    return x


def assert_easi_matches_reference(xt, nonlin, cap=EASI_DIVERGENCE_CAP):
    out = _kernels.easi_scan(xt, CLI_EASI_STEP, nonlin, cap)
    ref = easi_reference(xt, CLI_EASI_STEP, nonlin, cap)
    assert out[2:] == ref[2:]
    np.testing.assert_allclose(out[0], ref[0], rtol=1e-9, atol=0)
    np.testing.assert_allclose(out[1], ref[1], rtol=1e-9, atol=0)
    return out[2:]


class TestEasiScan:
    @pytest.mark.parametrize("nonlin", [0, 1], ids=["cubic", "tanh"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_generator_record_matches_reference(self, n, nonlin):
        assert assert_easi_matches_reference(generator_input(n), nonlin) == (0, -1)

    @pytest.mark.parametrize("kind", ["spike", "nan"])
    @pytest.mark.parametrize("nonlin", [0, 1], ids=["cubic", "tanh"])
    @pytest.mark.parametrize("k", [0, BLOCK - 1, BLOCK, 2 * BLOCK + 99],
                             ids=["first", "block_end", "next_block", "last"])
    def test_divergence_step_matches_reference(self, k, nonlin, kind):
        xt = broken_at(generator_input(5)[: 2 * BLOCK + 100], k, kind, nonlin)
        assert assert_easi_matches_reference(xt, nonlin) == (1, k)

    @pytest.mark.parametrize("nonlin", [0, 1], ids=["cubic", "tanh"])
    @pytest.mark.parametrize("T", [1, REFILL - 1, REFILL, REFILL + 1, BLOCK - 1, BLOCK + 1])
    def test_lengths_around_a_refill_window(self, T, nonlin):
        # a last window shorter than REFILL runs only its real steps
        assert assert_easi_matches_reference(generator_input(5)[:T], nonlin) == (0, -1)

    @pytest.mark.parametrize("kind", ["spike", "nan"])
    @pytest.mark.parametrize("nonlin", [0, 1], ids=["cubic", "tanh"])
    @pytest.mark.parametrize("k", [REFILL - 1, REFILL, REFILL + 1, BLOCK - REFILL,
                                   BLOCK + REFILL - 1, BLOCK + REFILL])
    def test_divergence_at_a_refill_edge(self, k, nonlin, kind):
        # the broken sample's rows are filled a window ahead and then carried
        # from step to step; the steps before it must not see them
        xt = broken_at(generator_input(5)[: BLOCK + 2 * REFILL + 1], k, kind, nonlin)
        assert assert_easi_matches_reference(xt, nonlin) == (1, k)

    @pytest.mark.parametrize("nonlin", [0, 1], ids=["cubic", "tanh"])
    def test_input_is_left_unchanged(self, nonlin):
        xt = broken_at(generator_input(4)[: BLOCK + REFILL + 3], BLOCK + 1, "nan", nonlin)
        before = xt.tobytes()
        _kernels.easi_scan(xt, CLI_EASI_STEP, nonlin, EASI_DIVERGENCE_CAP)
        assert xt.tobytes() == before

    @pytest.mark.parametrize("cap", [1.0005, 1.002, 1.004])
    def test_first_step_over_a_tight_cap(self, cap):
        # on this record max|W| climbs from 1 past 1.0044 by step 121, a few
        # 1e-5 per step, so the caps are first left at steps 9, 50 and 111
        status, where = assert_easi_matches_reference(generator_input(4)[: 2 * BLOCK + 100], 0, cap)
        assert status == 1 and where > 0

    def test_steps_after_divergence_raise_no_warning(self):
        # W overflows to inf a few steps after the spike, and the block runs on
        xt = broken_at(generator_input(3)[:BLOCK], 0, "spike", 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, W, status, where = _kernels.easi_scan(xt, CLI_EASI_STEP, 0, EASI_DIVERGENCE_CAP)
        assert (status, where) == (1, 0) and np.isfinite(W).all()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data(), st.integers(2, 8), st.sampled_from([0, 1]), st.integers(1, 2 * BLOCK + 50))
def test_easi_scan_matches_reference(data, n, nonlin, T):
    xt = generator_input(n)[:T]
    k = data.draw(st.sampled_from([None, 0, REFILL - 1, REFILL, BLOCK - 1, BLOCK, T - 1])
                  | st.integers(0, T - 1))
    if k is not None and k < T:
        xt = broken_at(xt, k, data.draw(st.sampled_from(["spike", "nan"])), nonlin)
    assert_easi_matches_reference(xt, nonlin)


def row_cyclic_pairs(n):
    return [(p, q) for p in range(n - 1) for q in range(p + 1, n)]


def ajd_reference(M, w, max_sweeps, angle_tol):
    # Reference for _kernels.ajd_rotate: one scalar rotation per pair in
    # row-cyclic order, with Q held apart from the set and each rotated column
    # and row pair copied out before it is written back.
    n = M.shape[1]
    Q = np.eye(n)
    for sweep in range(max_sweeps):
        max_angle = 0.0
        for p, q in row_cyclic_pairs(n):
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


@pytest.mark.parametrize("n", range(1, 13))
def test_row_cyclic_waves(n):
    waves = [list(zip(p.tolist(), q.tolist())) for p, q in _kernels.row_cyclic_waves(n)]
    order = [pair for wave in waves for pair in wave]
    assert sorted(order) == row_cyclic_pairs(n)  # every pair once per sweep
    for wave in waves:
        assert len({i for pair in wave for i in pair}) == 2 * len(wave)  # disjoint pairs
    # two pairs that share an index run in row-cyclic order, so the waves
    # give the row-cyclic sweep up to commuting rotations in disjoint planes
    rank = {pair: i for i, pair in enumerate(row_cyclic_pairs(n))}
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            if set(a) & set(b):
                assert rank[a] < rank[b]


@pytest.mark.parametrize("n", range(1, 13))
def test_pipeline_stages(n):
    # a run of three sweeps: sweep 0's heads alone, two pipelined passes,
    # then sweep 2's tail alone; a pair belongs to the newer sweep of its
    # stage if p + q <= n (a head wave), else to the older
    passes = [(True, False), (True, True), (True, True), (False, True)]
    stages = [[(i - (p + q > n), (p, q)) for p, q in zip(p.tolist(), q.tolist())]
              for i, plan in enumerate(passes) for p, q in _kernels.pipeline_stages(n, *plan)]
    for sweep in range(3):  # every pair once per sweep
        assert sorted(pair for st_ in stages for s, pair in st_ if s == sweep) \
            == row_cyclic_pairs(n)
    for st_ in stages:  # disjoint pairs
        assert len({i for _, pair in st_ for i in pair}) == 2 * len(st_)
    assert all(len(st_) for st_ in stages) and len(stages) <= 4 * n
    # two pairs that share an index run in row-cyclic order, across the
    # sweep boundary too
    rank = {pair: i for i, pair in enumerate(row_cyclic_pairs(n))}
    order = [(s, rank[pair], pair) for st_ in stages for s, pair in st_]
    for i, (s_a, r_a, a) in enumerate(order):
        for s_b, r_b, b in order[i + 1:]:
            if set(a) & set(b):
                assert (s_a, r_a) < (s_b, r_b)


@pytest.mark.parametrize("n", range(4, 9))
def test_ajd_rotate_runs_a_tail_alone_like_the_reference(n, monkeypatch):
    # the only off-diagonal mass is in pair (n - 2, n - 1), a tail pair, so
    # every head angle of a sweep is 0 and its tail must run alone
    rng = np.random.default_rng(n)
    M = np.stack([np.diag(rng.random(n) + 1.0) for _ in range(2)])
    M[:, n - 2, n - 1] = M[:, n - 1, n - 2] = rng.standard_normal(2)
    w = np.ones(2)
    plans = []
    stage_plan = _kernels._stage_plan
    monkeypatch.setattr(_kernels, "_stage_plan",
                        lambda *a: plans.append(a[2:]) or stage_plan(*a))
    M_ref = M.copy()
    Q, sweeps, converged = _kernels.ajd_rotate(M, w, 200, 1e-10)
    Q_ref, sweeps_ref, converged_ref = ajd_reference(M_ref, w, 200, 1e-10)
    assert (True, True) not in plans and (False, True) in plans
    assert (sweeps, converged) == (sweeps_ref, converged_ref) and converged
    np.testing.assert_allclose(Q, Q_ref, rtol=0, atol=1e-15)
    np.testing.assert_allclose(M, M_ref, rtol=0, atol=1e-15 * np.abs(M_ref).max())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 12), st.integers(1, 11), st.integers(1, 5),
       st.sampled_from([1e-10, 0.1, 1.0]))
def test_ajd_rotate_matches_reference(data, K, n, max_sweeps, angle_tol):
    # Budgets of 1-5 sweeps stop most sets unconverged, some on a pipelined
    # sweep; a tolerance of 1 rad is met after one sweep (every angle is at
    # most pi/4), so both returns run. The kernel applies each stage's
    # rotations as one product, so it rounds differently from the reference.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((K, n, n))
    M = G + G.transpose(0, 2, 1)
    w = np.array(data.draw(st.lists(st.just(0.0) | st.floats(0.0, 10.0), min_size=K,
                                    max_size=K)))
    M_ref = M.copy()
    tol = 1e-12 * np.abs(M).max()
    Q, sweeps, converged = _kernels.ajd_rotate(M, w, max_sweeps, angle_tol)
    Q_ref, sweeps_ref, converged_ref = ajd_reference(M_ref, w, max_sweeps, angle_tol)
    np.testing.assert_allclose(Q, Q_ref, rtol=0, atol=tol)
    np.testing.assert_allclose(M, M_ref, rtol=0, atol=tol)
    assert (sweeps, converged) == (sweeps_ref, converged_ref)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(2, 10))
def test_ajd_rotate_matches_reference_to_convergence(seed, n, K):
    # On an identifiable set (the recipe of the linalg recovery property) the
    # rounding of the batched waves does not build up over the sweeps: the
    # kernel stops after the same sweep as the reference, on the same Q.
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    assume(np.linalg.cond(A) < 1e3)
    diags = 0.5 + 4.0 * rng.random((K, n))
    unit = diags / np.linalg.norm(diags, axis=0)
    assume(min(np.linalg.norm(unit[:, p] - unit[:, q]) for p, q in row_cyclic_pairs(n)) > 0.05)
    C = np.stack([A.T @ np.diag(d) @ A for d in diags])
    L_inv = np.linalg.inv(np.linalg.cholesky(C.mean(axis=0)))
    M = L_inv @ C @ L_inv.T
    M = 0.5 * (M + M.transpose(0, 2, 1))
    w = rng.random(K) + 0.1
    Q, sweeps, converged = _kernels.ajd_rotate(M.copy(), w, 200, 1e-10)
    Q_ref, sweeps_ref, converged_ref = ajd_reference(M.copy(), w, 200, 1e-10)
    assert converged and converged_ref and sweeps == sweeps_ref
    np.testing.assert_allclose(Q, Q_ref, rtol=0, atol=1e-10)


def test_ajd_rotate_skips_angles_of_at_most_1e_18():
    # the angle of this pair is about 1e-19; a rotation by it would move the
    # off-diagonal entries and Q by about 1e-19, so the skip is seen exactly
    M = np.array([[[2.0, 1e-19], [1e-19, 1.0]]])
    Q, sweeps, converged = _kernels.ajd_rotate(M.copy(), np.ones(1), 200, 1e-10)
    assert (sweeps, converged) == (1, 1)
    assert (Q == np.eye(2)).all()
    M_out = M.copy()
    _kernels.ajd_rotate(M_out, np.ones(1), 200, 1e-10)
    assert (M_out == M).all()


def test_ajd_rotate_reports_a_nan_angle():
    # a NaN angle ends the sweeps unconverged, so linalg.ajd raises
    # NoConvergence instead of returning a NaN demixer
    M = np.array([[[1.0, np.nan], [np.nan, 2.0]]])
    _, sweeps, converged = _kernels.ajd_rotate(M, np.ones(1), 200, 1e-10)
    assert (sweeps, converged) == (1, 0)


def test_ajd_rotate_stops_on_a_nan_tail_angle_beside_the_next_heads():
    # the head pair (0, 1) has a large angle, so sweep 2's heads run beside
    # sweep 1's tail pair (2, 3), whose gain -(2e160)^2 overflows to a NaN
    # angle; the run still ends after sweep 1
    M = np.diag([2.0, 1.0, 1e160, 1e160])
    M[0, 1] = M[1, 0] = 0.5
    M[2, 3] = M[3, 2] = 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        Q, sweeps, converged = _kernels.ajd_rotate(M[None], np.ones(1), 200, 1e-10)
    assert (sweeps, converged) == (1, 0) and not np.isfinite(Q).all()
