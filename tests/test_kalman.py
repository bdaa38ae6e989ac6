"""State-space innovation detector tests against a matched generator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are

from nsca import _kernels
from nsca.detectors import (
    StateSpaceModel,
    fit_ar1_state_space,
    kalman_innovation_index,
    normalized_innovations,
)
from nsca.errors import InvalidWindow, ModelMismatch, NotPositiveDefinite
from nsca.linalg import SymMatrix
from nsca.records import Record
from nsca.synthetic import DEFAULT_BURST, default_source_specs, gen_mixture

Q, R, T = 0.01, 1.0, 20_000


def random_walk_model():
    return StateSpaceModel(
        transition=[[1.0]],
        observation=[[1.0]],
        process_noise_cov=SymMatrix([[Q]]),
        obs_noise_cov=SymMatrix([[R]]),
        init_state=[0.0],
        init_cov=SymMatrix([[1.0]]),
    )


def random_walk(seed, pulses=False):
    rng = np.random.default_rng(seed)
    s = np.cumsum(rng.normal(scale=np.sqrt(Q), size=T))
    z = s + rng.normal(scale=np.sqrt(R), size=T)
    if pulses:
        pos = rng.integers(T // 3, 2 * T // 3, size=80)
        z[pos] += 12.0 * rng.choice([-1.0, 1.0], size=80)
    return Record(z)


def windowed(e, w):
    for a in range(0, e.size - w + 1, w // 4):
        yield e[a : a + w]


class TestMatchedModel:
    def test_innovations_are_white(self):
        # matched model: windowed mean of e near obs_dim, no lag-1 structure
        e = normalized_innovations(random_walk(0), random_walk_model())
        w = 1024
        ok_mean = ok_rho = n = 0
        for win in windowed(e, w):
            mu = win.mean()
            c = win - mu
            rho = (c[1:] * c[:-1]).sum() / (c * c).sum()
            n += 1
            ok_mean += abs(mu - 1.0) <= 0.3
            ok_rho += abs(rho) <= 0.1
        assert ok_mean / n >= 0.95
        assert ok_rho / n >= 0.95

    def test_lag_profile_within_sampling_band(self):
        e = normalized_innovations(random_walk(1), random_walk_model())
        w = 256
        bound = 3.0 / np.sqrt(w)
        for lag in range(1, 6):
            ok = n = 0
            for win in windowed(e, w):
                c = win - win.mean()
                rho = (c[lag:] * c[:-lag]).sum() / (c * c).sum()
                n += 1
                ok += abs(rho) <= bound
            assert ok / n >= 0.95, f"lag {lag}"


class TestBurstResponse:
    def test_out_of_model_pulses_raise_index(self):
        for seed in (0, 1):
            idx = kalman_innovation_index(random_walk(seed, pulses=True), random_walk_model(), 256)
            v = idx.values
            inside = v[T // 3 : 2 * T // 3].max()
            outside = np.concatenate([v[idx.valid_from : T // 3], v[2 * T // 3 + 256 :]])
            assert inside >= 3.0 * np.median(outside)

    def test_index_background_is_innovation_mean(self):
        idx = kalman_innovation_index(random_walk(2), random_walk_model(), 128)
        assert idx.valid_from == 0
        # matched model: the index is a local mean of e, so its background
        # level is the innovation mean, about obs_dim
        med = np.median(idx.valid_values())
        assert 0.8 <= med <= 1.2


class TestModelValidation:
    def test_zero_obs_noise_runs_while_innovation_cov_is_definite(self):
        # a singular R is used as given: with Q > 0 every S = P + R is definite
        model = StateSpaceModel(
            transition=[[1.0]],
            observation=[[1.0]],
            process_noise_cov=SymMatrix([[Q]]),
            obs_noise_cov=SymMatrix([[0.0]]),
            init_state=[0.0],
            init_cov=SymMatrix([[1.0]]),
        )
        e = normalized_innovations(random_walk(3), model)
        assert np.isfinite(e).all()

    def test_singular_innovation_cov_raises_at_its_step(self):
        # with Q = R = 0 the first S is P0 itself, which is singular
        model = StateSpaceModel(
            transition=np.eye(2),
            observation=np.eye(2),
            process_noise_cov=SymMatrix(np.zeros((2, 2))),
            obs_noise_cov=SymMatrix(np.zeros((2, 2))),
            init_state=[0.0, 0.0],
            init_cov=SymMatrix(np.diag([1.0, 0.0])),
        )
        record = Record(np.random.default_rng(5).normal(size=(2, 100)))
        with pytest.raises(NotPositiveDefinite, match="at step 0$"):
            normalized_innovations(record, model)

    def test_channel_mismatch(self):
        with pytest.raises(ModelMismatch):
            normalized_innovations(Record(np.zeros((2, 100))), random_walk_model())

    def test_dimension_checks_at_construction(self):
        with pytest.raises(ModelMismatch):
            StateSpaceModel(
                transition=[[1.0, 0.0]],
                observation=[[1.0]],
                process_noise_cov=SymMatrix([[1.0]]),
                obs_noise_cov=SymMatrix([[1.0]]),
                init_state=[0.0],
                init_cov=SymMatrix([[1.0]]),
            )

    def test_indefinite_noise_rejected(self):
        with pytest.raises(ModelMismatch):
            StateSpaceModel(
                transition=[[1.0]],
                observation=[[1.0]],
                process_noise_cov=SymMatrix([[-1.0]]),
                obs_noise_cov=SymMatrix([[1.0]]),
                init_state=[0.0],
                init_cov=SymMatrix([[1.0]]),
            )

    def test_window_bounds(self):
        rec, model = random_walk(4), random_walk_model()
        for window in (0, T + 1):
            with pytest.raises(InvalidWindow):
                kalman_innovation_index(rec, model, window=window)
        # a window of one sample is the normalized innovations themselves, up
        # to the rounding of the running sum the moving mean takes differences of
        e = normalized_innovations(rec, model)
        one = kalman_innovation_index(rec, model, window=1)
        assert np.abs(one.values - e).max() <= 4 * np.finfo(float).eps * e.sum()


class TestFittedBackgroundModel:
    def test_recovers_ar1_transition(self):
        rng = np.random.default_rng(21)
        x = np.zeros(10_000)
        for k in range(1, x.size):
            x[k] = 0.8 * x[k - 1] + rng.normal()
        model = fit_ar1_state_space(Record(x))
        assert model.transition[0, 0] == pytest.approx(0.8, abs=0.05)

    def test_matched_fit_keeps_index_flat(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(2, 8000))
        rec = Record(X)
        idx = kalman_innovation_index(rec, fit_ar1_state_space(rec), 256)
        v = idx.valid_values()
        assert v.max() <= 2.0 * np.median(v) + 1.0

    def test_too_short_record_rejected(self):
        from nsca.errors import ShapeMismatch

        with pytest.raises(ShapeMismatch):
            fit_ar1_state_space(Record(np.ones((3, 4))))

    @pytest.mark.parametrize("frac", [-1.0, math.nan, math.inf, True, np.True_])
    def test_obs_noise_frac_must_be_finite_and_nonnegative(self, frac):
        with pytest.raises(ValueError, match="obs_noise_frac"):
            fit_ar1_state_space(Record(np.ones((2, 50))), frac)

    def test_duplicated_channel_gets_the_minimum_norm_fit(self):
        rec, _ = gen_mixture(3, 4000, dict(count=2, min_len=300, max_len=500, amplitude=4.0),
                             seed=5)
        Z = np.vstack([rec.samples, rec.samples[:1]])
        model = fit_ar1_state_space(Record(Z))
        X = Z - Z.mean(axis=1, keepdims=True)
        F_ref = np.linalg.lstsq(X[:, :-1].T, X[:, 1:].T, rcond=None)[0].T
        np.testing.assert_allclose(model.transition, F_ref, rtol=0,
                                   atol=1e-12 * np.abs(F_ref).max())
        # the minimum-norm fit splits the weight evenly over the two copies
        np.testing.assert_allclose(model.transition[:, 0], model.transition[:, 3], atol=1e-9)
        idx = kalman_innovation_index(Record(Z), model, 128)
        assert np.isfinite(idx.values).all()


def scan_args(record, model):
    return (
        np.ascontiguousarray(record.samples.T),
        model.transition,
        model.observation,
        np.ascontiguousarray(model.process_noise_cov.entries),
        np.ascontiguousarray(model.obs_noise_cov.entries),
        model.init_state,
        np.ascontiguousarray(model.init_cov.entries),
    )


def joseph_scan(zt, F, H, Q, R, x0, P0):
    # Reference for _kernels.kalman_scan: the full Joseph-form filter at every
    # step, never switching to the steady-state gain, with its own Cholesky
    # and triangular solves written out as loops.
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


def fitted_mixture(T):
    rec, _ = gen_mixture(4, T, dict(count=6, min_len=100, max_len=300, amplitude=4.0), seed=3)
    return scan_args(rec, fit_ar1_state_space(rec))


def fitted_cli_record():
    # CLI synth settings; here the predicted covariance ends in rounding
    # noise rather than an exact fixed point, and a switch at the first step
    # where its change stops shrinking would miss the tolerance below
    rec, _ = gen_mixture(5, 10_000, DEFAULT_BURST, default_source_specs(5), seed=7)
    return scan_args(rec, fit_ar1_state_space(rec))


FITTED = pytest.mark.parametrize(
    "make_args", [lambda: fitted_mixture(6000), fitted_cli_record], ids=["mixture", "cli_synth"]
)


@pytest.fixture
def switches(monkeypatch):
    """Predicted covariances the numpy scan forms its fixed gain from."""
    seen = []
    real = _kernels._steady_gain

    def spy(F, H, P, S):
        seen.append(P.copy())
        return real(F, H, P, S)

    monkeypatch.setattr(_kernels, "_steady_gain", spy)
    return seen


class TestSteadyStateSwitch:
    @FITTED
    def test_switch_covariance_solves_the_dare(self, switches, make_args):
        args = make_args()
        _, F, H, Q, R, _, _ = args
        e, status, where = _kernels.kalman_scan(*args)
        assert (status, where) == (0, -1)
        assert len(switches) == 1
        np.testing.assert_allclose(switches[0], solve_discrete_are(F.T, H.T, Q, R), rtol=1e-8)

    @FITTED
    def test_matches_full_joseph_scan(self, switches, make_args):
        args = make_args()
        e, status, _ = _kernels.kalman_scan(*args)
        assert status == 0 and len(switches) == 1
        e_ref, status_ref, _ = joseph_scan(*args)
        assert status_ref == 0
        np.testing.assert_allclose(e, e_ref, rtol=1e-9, atol=0)

    def test_short_record_is_the_full_scan_bit_for_bit(self, switches, monkeypatch):
        zt, *model = fitted_mixture(6000)
        short = np.ascontiguousarray(zt[:40])
        e, status, _ = _kernels.kalman_scan(short, *model)
        assert status == 0 and not switches
        monkeypatch.setattr(_kernels, "_STEADY_TOL", -1.0)  # no switch: the Joseph loop throughout
        e_full, _, _ = _kernels.kalman_scan(zt, *model)
        assert not switches
        assert np.array_equal(e, e_full[:40])

    def test_unstable_closed_loop_keeps_the_full_scan(self, switches, monkeypatch):
        # the first state is unobserved and unstable: P converges, but the
        # steady-state closed loop keeps its pole at 1.5, so the scan must not
        # switch, and must not try again at every later step either
        zt = np.random.default_rng(5).normal(size=(400, 1))
        args = (zt, np.diag([1.5, 0.5]), np.array([[0.0, 1.0]]), np.diag([0.0, 1.0]),
                np.eye(1), np.zeros(2), np.diag([0.0, 1.0]))
        e, status, _ = _kernels.kalman_scan(*args)
        assert status == 0 and len(switches) == 1
        monkeypatch.setattr(_kernels, "_STEADY_TOL", -1.0)
        assert np.array_equal(e, _kernels.kalman_scan(*args)[0])

    def test_indefinite_innovation_covariance_still_reported(self):
        zt = np.ones((50, 1))
        F, H = np.eye(1), np.eye(1)
        e, status, where = _kernels.kalman_scan(
            zt, F, H, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1))
        )
        assert (status, where) == (1, 0)


def _stable_model(draw, s, m):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F = rng.normal(size=(s, s))
    F *= draw(st.floats(0.0, 0.99)) / max(np.abs(np.linalg.eigvals(F)).max(), 1e-12)
    G = rng.normal(size=(s, s))
    Q = G @ G.T + draw(st.floats(1e-3, 1.0)) * np.eye(s)
    G = rng.normal(size=(m, m))
    R = G @ G.T + draw(st.floats(1e-3, 1.0)) * np.eye(m)
    zt = 3.0 * rng.normal(size=(1500, m))
    H = rng.normal(size=(m, s))
    return [np.ascontiguousarray(a) for a in (zt, F, H, Q, R, np.zeros(s), np.eye(s))]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 4), st.integers(1, 3))
def test_fixed_gain_matches_full_scan_on_stable_models(data, s, m):
    args = _stable_model(data.draw, s, m)
    e, status, _ = _kernels.kalman_scan(*args)
    e_ref, status_ref, _ = joseph_scan(*args)
    assert status == status_ref == 0
    np.testing.assert_allclose(e, e_ref, rtol=1e-9, atol=0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(600, 2000), st.data())
def test_index_is_centred_window_mean_of_innovations(seed, n, length, data):
    # on generator records value k is the mean of e over the window
    # [k - w // 2, k - w // 2 + w) clipped to the record. The index reads it
    # from a running sum of e >= 0, whose rounding is at most eps/2 times the
    # sum of e per step, and a window mean carries at most one such error
    # per sample divided by the sample count.
    burst = dict(count=2, min_len=100, max_len=200, amplitude=4.0)
    rec, _ = gen_mixture(n, length, burst, default_source_specs(n), seed=seed)
    w = data.draw(st.integers(2, 256), label="window")
    model = fit_ar1_state_space(rec)
    idx = kalman_innovation_index(rec, model, w)
    e = normalized_innovations(rec, model)
    ref = np.array([e[max(k - w // 2, 0) : k - w // 2 + w].mean() for k in range(e.size)])
    assert idx.valid_from == 0
    eps = np.finfo(float).eps
    assert np.all(np.abs(idx.values - ref) <= 2 * eps * e.sum() + 4 * eps * ref)
