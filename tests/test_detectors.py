"""Detector bank unit tests: hand values, invariances, error paths."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nsca.detectors import (
    FittedCdf,
    _centred_mean,
    anderson_darling_index,
    ar_tracking,
    cumulant_tracking,
    easi_index,
    energy_envelope,
    fit_ar1_state_space,
    fit_gaussian_cdf,
    kalman_innovation_index,
    normalize_index,
    prewhiten,
)
from nsca.cli import CLI_EASI_G, CLI_EASI_STEP, main
from nsca.errors import DegenerateSeries, Diverged, InvalidWindow
from nsca.io import read_index, write_record
from nsca.metrics import eval_index_auc
from nsca.records import IndexSeries, Record
from nsca.synthetic import DEFAULT_BURST, default_source_specs, gen_mixture

STD_NORMAL = FittedCdf(mean=0.0, std=1.0)
Q75 = 0.6744897501960817  # standard normal 75% quantile


class TestFitGaussianCdf:
    def test_two_point_closed_form(self):
        cdf = fit_gaussian_cdf([-1.0, 1.0])
        assert cdf.mean == pytest.approx(0.0, abs=1e-15)
        assert cdf.std == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeries):
            fit_gaussian_cdf(np.zeros(100))

    def test_single_sample_rejected(self):
        with pytest.raises(DegenerateSeries):
            fit_gaussian_cdf([3.0])

    def test_large_sample_recovers_parameters(self):
        x = np.random.default_rng(0).normal(size=100_000)
        cdf = fit_gaussian_cdf(x)
        assert abs(cdf.mean) <= 0.02
        assert abs(cdf.std - 1.0) <= 0.02

    def test_cdf_evaluates_gaussian(self):
        cdf = FittedCdf(mean=1.0, std=2.0)
        assert cdf.cdf(1.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mean,std", [(0.0, -1.0), (0.0, 0.0), (0.0, math.inf),
                                          (0.0, math.nan), (math.nan, 1.0), (-math.inf, 1.0),
                                          (0.0, True), (0.0, np.True_), (True, 1.0)])
    def test_reference_needs_finite_mean_and_positive_finite_std(self, mean, std):
        # a negative std turns the AD index into nonsense, 0 divides by zero, inf flattens it;
        # True would run as a std of 1
        with pytest.raises(ValueError, match="0 < std < inf"):
            FittedCdf(mean=mean, std=std)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_variance_rejected(self):
        # the fit would be std=inf, which makes the AD index a constant
        x = 1e200 * np.random.default_rng(0).normal(size=300)
        with pytest.raises(DegenerateSeries, match="variance overflows"):
            fit_gaussian_cdf(x)


class TestAndersonDarling:
    def test_single_sample_at_median(self):
        # p=1, F(z)=0.5: A^2 = -1 - ln(0.25)
        idx = anderson_darling_index([0.0], window=1, cdf=STD_NORMAL)
        assert idx.values[0] == pytest.approx(-1.0 - math.log(0.25), abs=1e-9)

    def test_two_sample_quartile_window(self):
        # F(z1)=0.25, F(z2)=0.75: A^2 = -2 - (1/2)[ln(0.0625) + 3 ln(0.5625)]
        idx = anderson_darling_index([-Q75, Q75], window=2, cdf=STD_NORMAL)
        expect = -2.0 - 0.5 * (math.log(0.0625) + 3.0 * math.log(0.5625))
        assert idx.values[1] == pytest.approx(expect, abs=1e-7)

    def test_far_tail_window_is_clamped_finite(self):
        idx = anderson_darling_index(np.full(8, 50.0), window=8, cdf=STD_NORMAL)
        v = idx.valid_values()
        assert np.isfinite(v).all()
        assert v.max() > 100.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(size=256) * rng.uniform(0.5, 3.0)
            a = rng.uniform(0.1, 9.0)
            b = rng.uniform(-5.0, 5.0)
            base = anderson_darling_index(x, window=32)
            moved = anderson_darling_index(a * x + b, window=32)
            assert np.abs(moved.valid_values() - base.valid_values()).max() <= 1e-9

    def test_valid_from_and_warmup_zeros(self):
        # no warm-up: value k is the statistic of the full window nearest to
        # [k - p // 2, k - p // 2 + p), edges included, fitted to the whole series
        x = np.random.default_rng(1).normal(size=64)
        cdf = fit_gaussian_cdf(x)
        for p in (1, 2, 15, 16, 63, 64):
            idx = anderson_darling_index(x, window=p)
            starts = [min(max(k - p // 2, 0), x.size - p) for k in range(x.size)]
            ref = [anderson_darling_index(x[s : s + p], window=p, cdf=cdf).values[0]
                   for s in starts]
            assert idx.valid_from == 0
            assert np.array_equal(idx.values, ref), p

    def test_window_bounds(self):
        with pytest.raises(InvalidWindow):
            anderson_darling_index(np.ones(4), window=5, cdf=STD_NORMAL)
        with pytest.raises(InvalidWindow):
            anderson_darling_index(np.ones(4), window=0, cdf=STD_NORMAL)

    def test_cdf_must_be_a_fitted_cdf(self):
        with pytest.raises(TypeError, match="expects a FittedCdf"):
            anderson_darling_index(np.ones(4), window=2, cdf=(0.0, 1.0))

    def test_default_fit_matches_explicit(self):
        x = np.random.default_rng(2).normal(2.0, 3.0, size=200)
        auto = anderson_darling_index(x, window=25)
        manual = anderson_darling_index(x, window=25, cdf=fit_gaussian_cdf(x))
        assert np.array_equal(auto.values, manual.values)


class TestEnergyEnvelope:
    def test_constant_series(self):
        idx = energy_envelope(np.full(50, 3.0), window=7)
        assert np.allclose(idx.values, 9.0)

    def test_unit_impulse_w3(self):
        x = np.zeros(21)
        x[10] = 1.0
        idx = energy_envelope(x, window=3)
        expect = np.zeros(21)
        expect[9:12] = 1.0 / 3.0
        assert np.allclose(idx.values, expect)

    def test_white_noise_tracks_variance(self):
        # window means of chi-square samples: most interior values sit within
        # +-20% of the variance, all of them close on time average
        x = np.random.default_rng(3).normal(size=10_000)
        var = float(np.var(x))
        idx = energy_envelope(x, window=101)
        interior = idx.values[50:-50]
        assert np.mean(np.abs(interior - var) <= 0.2 * var) >= 0.75
        assert abs(interior.mean() - var) <= 0.05 * var

    def test_nonnegative_and_quadratic_scaling(self):
        x = np.random.default_rng(4).normal(size=300)
        base = energy_envelope(x, window=11)
        scaled = energy_envelope(2.5 * x, window=11)
        assert (base.values >= 0.0).all()
        assert np.allclose(scaled.values, 2.5 ** 2 * base.values)

    def test_even_window_matches_clipped_loop(self):
        # an even window reaches one sample further back than forward
        x = np.random.default_rng(6).normal(size=10)
        for w in (2, 4, 10):
            ref = [np.mean(x[max(k - w // 2, 0) : k - w // 2 + w] ** 2) for k in range(x.size)]
            assert np.allclose(energy_envelope(x, window=w).values, ref, rtol=1e-14, atol=0.0)

    def test_window_longer_than_series_rejected(self):
        with pytest.raises(InvalidWindow):
            energy_envelope(np.ones(10), window=11)


class TestCumulantTracking:
    def test_order1_constant(self):
        idx = cumulant_tracking(np.full(30, -2.0), window=8, order=1)
        assert np.allclose(idx.valid_values(), 2.0)

    def test_order2_constant_is_zero(self):
        idx = cumulant_tracking(np.full(30, 5.0), window=8, order=2)
        assert np.allclose(idx.valid_values(), 0.0)

    def test_order2_matches_biased_variance(self):
        # the window is centred: [k - 8, k + 8) for window 16
        x = np.random.default_rng(5).normal(size=64)
        idx = cumulant_tracking(x, window=16, order=2)
        k = 40
        assert idx.valid_from == 0
        assert idx.values[k] == pytest.approx(np.var(x[k - 8 : k + 8]), rel=1e-10)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            cumulant_tracking(np.ones(100), window=16, order=3)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 300))
def test_centred_mean_matches_clipped_window_loop(data, T):
    # value k is the mean over [k - w // 2, k - w // 2 + w) clipped to [0, T).
    # Each step of the running sum rounds by at most eps/2 times the partial
    # sum, at most T * max|x|, and a window mean carries at most one such
    # error per sample divided by the sample count; hence the absolute bound.
    x = data.draw(arrays(np.float64, T, elements=st.floats(-1e6, 1e6)), label="x")
    w = data.draw(st.integers(1, T), label="window")
    ref = np.array([x[max(k - w // 2, 0) : k - w // 2 + w].mean() for k in range(T)])
    got = _centred_mean(x, w)
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - ref) <= 4 * eps * T * np.abs(x).max() + 4 * eps * np.abs(ref))


class TestEasi:
    def test_zero_input_index_is_sqrt_n(self):
        # y = 0 means H = -I at every step, whatever W has become
        rec = Record(np.zeros((3, 500)))
        idx = easi_index(rec, step=0.01, nonlinearity="cubic")
        assert np.allclose(idx.values, math.sqrt(3.0))

    def test_settles_on_stationary_subgaussian_input(self):
        rng = np.random.default_rng(5)
        rec = Record(rng.uniform(-math.sqrt(3), math.sqrt(3), size=(3, 8000)))
        idx = easi_index(rec, step=0.01, nonlinearity="cubic")
        v = idx.values
        midpoint = 0.5 * (np.quantile(v, 0.1) + v.max())
        assert v[4000:].mean() < midpoint

    def test_huge_step_diverges(self):
        rng = np.random.default_rng(8)
        rec = Record(rng.uniform(-1.0, 1.0, size=(2, 2000)))
        with pytest.raises(Diverged):
            easi_index(rec, step=10.0, nonlinearity="cubic")

    def test_equivariance_at_start_under_signed_permutation(self):
        # at k=0 the separator is the identity, so a signed channel shuffle
        # leaves the update norm exactly unchanged
        rng = np.random.default_rng(9)
        X = rng.normal(size=(4, 50))
        Q = np.zeros((4, 4))
        for i, j in enumerate([2, 0, 3, 1]):
            Q[i, j] = (-1.0) ** i
        a = easi_index(Record(X), step=0.001, nonlinearity="cubic")
        b = easi_index(Record(Q @ X), step=0.001, nonlinearity="cubic")
        assert abs(a.values[0] - b.values[0]) <= 1e-12

    def test_tanh_variant_runs(self):
        rng = np.random.default_rng(10)
        idx = easi_index(Record(rng.normal(size=(2, 3000))), step=0.01, nonlinearity="tanh")
        assert np.isfinite(idx.values).all()

    def test_single_channel_rejected(self):
        from nsca.errors import ShapeMismatch

        with pytest.raises(ShapeMismatch):
            easi_index(Record(np.ones((1, 100))), step=0.01)

    def test_bad_nonlinearity(self):
        with pytest.raises(ValueError):
            easi_index(Record(np.ones((2, 10))), step=0.01, nonlinearity="relu")

    @pytest.mark.parametrize("step", [0.0, -1.0, math.inf, math.nan, True, np.True_])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError, match="step"):
            easi_index(Record(np.ones((2, 10))), step=step)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_cli_easi_runs_every_step_of_a_generated_record(seed):
    # what `synth` then `detect --detectors easi` run, at a realistic length
    rec, _ = gen_mixture(5, 50_000, DEFAULT_BURST, default_source_specs(5), seed=seed)
    idx = easi_index(prewhiten(rec), CLI_EASI_STEP, CLI_EASI_G)  # Diverged names a failed step
    assert idx.length == 50_000 and np.isfinite(idx.values).all()


class TestPrewhiten:
    def test_output_has_identity_covariance(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 3))
        rec = Record(A @ rng.normal(size=(3, 5000)))
        white = prewhiten(rec)
        cov = np.cov(white.samples, ddof=1)
        assert np.abs(cov - np.eye(3)).max() <= 1e-10

    def test_ridge_handles_rank_deficiency(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=2000)
        rec = Record(np.vstack([x, x]))  # rank 1 covariance
        white = prewhiten(rec, reg_eps=1e-6)
        assert np.isfinite(white.samples).all()

    def test_negative_ridge_rejected(self):
        rng = np.random.default_rng(13)
        rec = Record(rng.normal(size=(3, 3)) @ rng.normal(size=(3, 2000)))
        with pytest.raises(ValueError):
            prewhiten(rec, reg_eps=-0.01)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), extra=st.integers(2, 400))
def test_prewhiten_output_has_identity_covariance(seed, n, extra):
    rng = np.random.default_rng(seed)
    A = np.eye(n) + 0.5 * rng.normal(size=(n, n))
    assume(np.linalg.cond(A) < 1e3)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    rec = Record(scale * (A @ rng.normal(size=(n, n + extra))) + rng.normal(size=(n, 1)))
    cov = np.atleast_2d(np.cov(prewhiten(rec).samples, ddof=1))
    assert np.abs(cov - np.eye(n)).max() <= 1e-9


class TestArTracking:
    def test_stationary_ar1_stays_low(self):
        rng = np.random.default_rng(200)
        x = np.zeros(30_000)
        for k in range(1, x.size):
            x[k] = 0.9 * x[k - 1] + rng.normal()
        idx = ar_tracking(x, window=2048, ar_order=4)
        assert np.median(idx.valid_values()) <= 0.05

    def test_pole_flip_spikes_the_index(self):
        rng = np.random.default_rng(100)
        T = 20_000
        x = np.zeros(T)
        a = 0.9
        for k in range(1, T):
            if k == T // 2:
                a = -0.9
            x[k] = a * x[k - 1] + rng.normal()
        idx = ar_tracking(x, window=512, ar_order=4)
        pre_median = np.median(idx.values[idx.valid_from : T // 2 - 512])
        assert idx.values[T // 2 : T // 2 + 1024].max() > 5.0 * pre_median

    def test_constant_series_emits_zero_and_counts_singular(self):
        idx = ar_tracking(np.full(800, 2.0), window=64, ar_order=2)
        assert np.allclose(idx.values, 0.0)
        assert idx.meta["singular_windows"] > 0

    def test_window_must_cover_order(self):
        with pytest.raises(InvalidWindow):
            ar_tracking(np.ones(100), window=15, ar_order=4)


class TestReferenceTrigger:
    # the reference-channel trigger is the envelope of one channel, as
    # `detect --detectors envelope --ref-channel ch` writes it
    def test_constant_reference(self):
        rec = Record(np.vstack([np.full(40, 2.0), np.zeros(40)]))
        idx = energy_envelope(rec.channel(0), window=5)
        assert np.allclose(idx.values, 4.0)

    def test_matches_envelope_of_channel(self, tmp_path):
        rng = np.random.default_rng(13)
        rec = Record(rng.normal(size=(3, 400)))
        write_record(tmp_path / "rec.csv", rec)
        assert main(["detect", "--record", str(tmp_path / "rec.csv"), "--detectors", "envelope",
                     "--ref-channel", "2", "--window", "31",
                     "--out-dir", str(tmp_path)]) == 0
        env = energy_envelope(rec.channel(2), window=31)
        assert np.array_equal(read_index(tmp_path / "envelope.csv").values, env.values)

    def test_channel_out_of_range(self, tmp_path, capsys):
        write_record(tmp_path / "rec.csv", Record(np.ones((2, 50))))
        out = tmp_path / "out"
        assert main(["detect", "--record", str(tmp_path / "rec.csv"), "--detectors", "envelope",
                     "--ref-channel", "2", "--out-dir", str(out)]) == 2
        assert "reference channel 2 out of range" in capsys.readouterr().err
        assert not out.exists()


class TestNormalizeIndex:
    def test_simple_scaling(self):
        idx = IndexSeries([0.0, 2.0, 4.0], valid_from=0, name="t")
        out = normalize_index(idx)
        assert np.allclose(out.values, [0.0, 0.5, 1.0])

    def test_zero_series_passes_through(self):
        idx = IndexSeries(np.zeros(5), valid_from=0, name="t")
        out = normalize_index(idx)
        assert np.array_equal(out.values, np.zeros(5))

    def test_negative_values_keep_sign(self):
        idx = IndexSeries([-3.0, 1.0], valid_from=0, name="t")
        out = normalize_index(idx)
        assert np.allclose(out.values, [-1.0, 1.0 / 3.0])

    def test_scale_ignores_warmup(self):
        # warm-up samples are zeroed, so only the valid range sets the scale
        idx = IndexSeries([99.0, 1.0, 2.0], valid_from=1, name="t")
        out = normalize_index(idx)
        assert np.allclose(out.values, [0.0, 0.5, 1.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan, True, np.True_])
def test_record_needs_positive_finite_sample_rate(rate):
    # True would run as a rate of 1.0
    with pytest.raises(ValueError, match="sample_rate_hz must be positive and finite"):
        Record(np.zeros((1, 4)), rate)


REAL_INPUTS = {
    "record": lambda a: Record(a.reshape(2, -1)),
    "index": lambda a: IndexSeries(a, valid_from=0, name="t"),
    "series": lambda a: energy_envelope(a, window=1),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make", sorted(REAL_INPUTS))
def test_complex_and_non_finite_samples_rejected(make):
    # a cast to float64 would keep only the real part, warning at most
    good = np.array([1.0, 2.0, 3.0, 4.0])
    for bad, match in ((good + 1j, "complex"), (good.astype(complex), "complex"),
                       (np.array([1.0, np.nan, 3.0, 4.0]), "non-finite")):
        with pytest.raises(ValueError, match=match):
            REAL_INPUTS[make](bad)
    REAL_INPUTS[make](good)


@pytest.mark.parametrize("seed", range(5))
def test_every_index_is_finite_past_warmup(seed):
    """Fuzz: random records through the whole bank, finite valid values."""
    rng = np.random.default_rng(seed)
    T = int(rng.integers(600, 1200))
    x = rng.normal(size=T) * rng.uniform(0.1, 10.0) + rng.uniform(-5, 5)
    rec = Record(rng.normal(size=(2, T)))
    series = [
        anderson_darling_index(x, window=32),
        energy_envelope(x, window=31),
        cumulant_tracking(x, window=64, order=2),
        ar_tracking(x, window=64, ar_order=3),
        easi_index(prewhiten(rec), step=0.001),
        energy_envelope(rec.channel(0), window=15),
    ]
    for idx in series:
        assert np.isfinite(idx.valid_values()).all(), idx.name
        assert np.all(idx.values[: idx.valid_from] == 0.0), idx.name


# Each library detector at the settings `nsca detect` runs it with: the scalar
# ones on channel 0 at their defaults, EASI on the prewhitened record; the
# library-only cumulant and AR trackers at their defaults.
SCORECARD = {
    "ad": lambda rec: anderson_darling_index(rec.channel(0)),
    "envelope": lambda rec: energy_envelope(rec.channel(0)),
    "cumulant": lambda rec: cumulant_tracking(rec.channel(0)),
    "ar": lambda rec: ar_tracking(rec.channel(0)),
    "easi": lambda rec: easi_index(prewhiten(rec), CLI_EASI_STEP, CLI_EASI_G),
    "innovation": lambda rec: kalman_innovation_index(rec, fit_ar1_state_space(rec)),
}


def test_detector_scorecard():
    """Burst-mask AUC of every detector on the generator's records.

    These floors are what `nsca detect`'s default bank (ad, envelope,
    innovation) rests on; `ar_tracking` scores at chance, and it and
    `cumulant_tracking` are library-only.
    """
    auc = {name: [] for name in SCORECARD}
    for seed in range(8):
        rec, truth = gen_mixture(5, 10_000, DEFAULT_BURST, default_source_specs(5), seed=seed)
        for name, detector in SCORECARD.items():
            auc[name].append(eval_index_auc(detector(rec), truth.burst_mask))
    median = {name: float(np.median(v)) for name, v in auc.items()}
    table = {name: (round(median[name], 3), round(min(v), 3)) for name, v in auc.items()}
    assert min(auc["innovation"]) >= 0.95, table
    assert all(median["innovation"] > m for name, m in median.items() if name != "innovation"), table
    assert median["envelope"] >= 0.95 and median["cumulant"] >= 0.8, table
    assert median["ad"] >= 0.65 and median["easi"] >= 0.65, table
    assert median["ar"] <= 0.6, table


def _detector_calls():
    x = np.random.default_rng(21).normal(size=600)
    rec = Record(np.vstack([x, np.random.default_rng(22).normal(size=600)]))
    model = fit_ar1_state_space(rec)
    return {
        "ad window": lambda v: anderson_darling_index(x, window=v),
        "envelope window": lambda v: energy_envelope(x, window=v),
        "cumulant window": lambda v: cumulant_tracking(x, window=v),
        "cumulant order": lambda v: cumulant_tracking(x, window=64, order=v),
        "ar window": lambda v: ar_tracking(x, window=v),
        "ar order": lambda v: ar_tracking(x, window=64, ar_order=v),
        "innovation window": lambda v: kalman_innovation_index(rec, model, window=v),
        "index valid_from": lambda v: IndexSeries(x, valid_from=v, name="t"),
    }


DETECTOR_INTS = {"ad window": 64, "envelope window": 5, "cumulant window": 64,
                 "cumulant order": 2, "ar window": 64, "ar order": 2, "innovation window": 64,
                 "index valid_from": 3}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("arg", sorted(DETECTOR_INTS))
def test_integer_arguments_are_not_truncated(arg):
    # int() would run energy_envelope(x, window=5.9) at window 5
    call, good = _detector_calls()[arg], DETECTOR_INTS[arg]
    name = arg.split()[-1]
    for bad in (good + 0.9, good - 0.5, math.nan, math.inf, "5", True, np.True_):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call(bad)
    # an integral float runs as its int, with the same values and meta
    want = call(good)
    for got in (call(float(good)), call(np.float64(good))):
        assert np.array_equal(got.values, want.values) and got.meta == want.meta
