"""Ground-truth generator tests."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsca.detectors import energy_envelope
from nsca.errors import BadSpec
from nsca.metrics import eval_index_auc
from nsca.synthetic import (
    DEFAULT_BURST,
    _synth_source,
    default_source_specs,
    gen_ecg_like,
    gen_mixture,
)

BURST = dict(count=2, min_len=400, max_len=700, amplitude=4.0)


def ar1_draws(a, T, rng):
    """The AR(1) source's innovations, in the generator's draw order."""
    e = rng.standard_normal(T) * np.sqrt(1.0 - a * a)
    e[0] = rng.standard_normal()
    return e


def ar1_relative_error(got, a, e):
    """Largest |got_t - x_t| / S_t over t, in exact arithmetic.

    x_t = a x_{t-1} + e_t and S_t = |a| S_{t-1} + |e_t| are run in fixed point
    with 1100 fraction bits, so every double is exact there; each product
    with ``a`` truncates by at most 2**-1100, far below any float rounding.
    """
    one = 2 ** 1100

    def fixed(v):
        num, den = v.as_integer_ratio()
        return num * (one // den)

    num, den = a.as_integer_ratio()
    x = s = 0
    worst = 0.0
    for g, v in zip(got.tolist(), e.tolist()):
        x = num * x // den + fixed(v)
        s = abs(num) * s // den + abs(fixed(v))
        worst = max(worst, abs(fixed(g) - x) / s)
    return worst


def ar1_bound(T):
    # the scan's stated forward error: ceil(log2 T) passes, each rounding a
    # power, a product and a sum, at most 2 ceil(log2 T) eps relative to S_t
    return 2 * math.ceil(math.log2(T)) * np.finfo(np.float64).eps


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    a=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    T=st.integers(2, 3000),
    seed=st.integers(0, 2**32 - 1),
)
@example(a=1.0 - 1e-12, T=3000, seed=1)
@example(a=-(1.0 - 1e-12), T=3000, seed=2)
@example(a=0.7, T=2, seed=3)
def test_ar1_source_matches_the_loop(a, T, seed):
    # the recursion x_t = a x_{t-1} + e_t, carried out exactly
    got = _synth_source(("ar1", a), T, 500.0, np.random.default_rng(seed))
    assert ar1_relative_error(got, a, ar1_draws(a, T, np.random.default_rng(seed))) <= ar1_bound(T)


def test_ar1_source_matches_the_loop_at_cli_long_length():
    got = _synth_source(("ar1", 0.7), 100_000, 500.0, np.random.default_rng(11))
    e = ar1_draws(0.7, 100_000, np.random.default_rng(11))
    assert ar1_relative_error(got, 0.7, e) <= ar1_bound(100_000)


@pytest.mark.parametrize("a", [0.5, 0.7])
def test_ar1_scan_skips_only_passes_that_change_nothing(a):
    # passes whose weight a^d is below the smallest normal float are skipped;
    # running all ceil(log2 T) of them gives the same bits
    T = 100_000
    got = _synth_source(("ar1", a), T, 500.0, np.random.default_rng(5))
    x = ar1_draws(a, T, np.random.default_rng(5))
    d = 1
    while d < T:
        x[d:] += a ** d * x[:-d]
        d *= 2
    assert np.array_equal(got, x)


class TestGenMixture:
    def test_same_seed_is_bit_identical(self):
        a_rec, a_truth = gen_mixture(4, 6000, BURST, seed=11)
        b_rec, b_truth = gen_mixture(4, 6000, BURST, seed=11)
        assert np.array_equal(a_rec.samples, b_rec.samples)
        assert np.array_equal(a_truth.sources.samples, b_truth.sources.samples)
        assert np.array_equal(a_truth.mixing, b_truth.mixing)
        assert np.array_equal(a_truth.burst_mask.labels, b_truth.burst_mask.labels)

    def test_different_seeds_differ(self):
        a, _ = gen_mixture(3, 3000, BURST, seed=0)
        b, _ = gen_mixture(3, 3000, BURST, seed=1)
        assert not np.array_equal(a.samples, b.samples)

    def test_burst_source_confined_to_mask(self):
        _, truth = gen_mixture(5, 10_000, BURST, seed=3)
        labels = truth.burst_mask.labels
        burst = truth.sources.samples[-1]  # default layout: pulse train last
        assert np.all(burst[labels == 0] == 0.0)
        assert np.abs(burst[labels == 1]).max() > 0.0

    def test_mask_event_count(self):
        _, truth = gen_mixture(4, 10_000, BURST, seed=4)
        lab = truth.burst_mask.labels
        edges = np.diff(np.concatenate(([0], lab, [0])))
        assert (edges == 1).sum() == BURST["count"]

    def test_record_is_exact_mix(self):
        rec, truth = gen_mixture(4, 4000, BURST, seed=5)
        assert np.array_equal(rec.samples, truth.mixing @ truth.sources.samples)

    def test_mixing_rows_unit_norm_and_invertible(self):
        _, truth = gen_mixture(6, 5000, BURST, seed=6)
        norms = np.linalg.norm(truth.mixing, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12
        assert abs(np.linalg.det(truth.mixing)) >= 1e-6

    def test_zero_amplitude_gives_null_detection(self):
        # no burst energy: the source is silent and any index is chance-level
        rec, truth = gen_mixture(4, 10_000, dict(BURST, amplitude=0.0), seed=7)
        assert np.all(truth.sources.samples[-1] == 0.0)
        auc = eval_index_auc(energy_envelope(rec.channel(0), 101), truth.burst_mask)
        assert abs(auc - 0.5) <= 0.1

    def test_identity_mixing_hook(self):
        rec, truth = gen_mixture(2, 3000, BURST, seed=8, mixing=np.eye(2))
        assert np.array_equal(rec.samples, truth.sources.samples)

    def test_burst_source_override(self):
        _, truth = gen_mixture(4, 8000, dict(BURST, source=1), seed=9)
        lab = truth.burst_mask.labels
        assert np.all(truth.sources.samples[1][lab == 0] == 0.0)
        assert np.abs(truth.sources.samples[3][lab == 0]).max() > 0.0

    def test_amplitude_scales_burst_edges_smoothly(self):
        # raised-cosine edges: the first samples of a window stay well below
        # the window's interior scale
        _, truth = gen_mixture(4, 10_000, dict(count=1, min_len=800, max_len=800, amplitude=4.0), seed=10)
        lab = truth.burst_mask.labels
        start = int(np.flatnonzero(lab)[0])
        burst = truth.sources.samples[-1]
        head = np.abs(burst[start : start + 4]).max()
        interior = np.abs(burst[start + 100 : start + 700]).max()
        assert head < 0.1 * interior

    def test_spec_validation(self):
        with pytest.raises(BadSpec):
            gen_mixture(3, 2000, BURST, source_specs=["gaussian", "ar1:0.5"], seed=0)
        with pytest.raises(BadSpec):
            gen_mixture(3, 2000, BURST, source_specs=["gaussian", "ar1:0.5", "sawtooth"], seed=0)
        with pytest.raises(BadSpec):
            gen_mixture(3, 500, dict(count=2, min_len=400, max_len=400, amplitude=1.0), seed=0)
        with pytest.raises(BadSpec):
            gen_mixture(3, 2000, dict(BURST, source=7), seed=0)
        with pytest.raises(BadSpec):
            gen_mixture(2, 2000, BURST, seed=0, mixing=np.zeros((2, 2)))
        for amplitude in (-1.0, math.nan, math.inf, True, np.True_):  # True is not 1.0
            with pytest.raises(BadSpec, match="burst parameters out of range"):
                gen_mixture(3, 2000, dict(BURST, amplitude=amplitude), seed=0)
        for spec in ("ar1:x", "ecg:fast:0.05", "ecg:3.5:0.05:some"):  # non-numeric
            with pytest.raises(BadSpec):
                gen_mixture(3, 2000, BURST, source_specs=["gaussian", spec, "gaussian"], seed=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [3.7, 2.5, math.nan, math.inf, "3"])
    @pytest.mark.parametrize("arg", ["n", "T", "count", "min_len", "max_len", "source"])
    def test_integer_arguments_are_not_truncated(self, arg, bad):
        # int() made gen_mixture(3.7, 5000.9, ...) a 3 x 5000 record
        burst = dict(BURST, n=3, T=5000, source=2)
        burst[arg] = bad
        n, T = burst.pop("n"), burst.pop("T")
        name = arg if arg in ("n", "T") else f"burst {arg}"
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            gen_mixture(n, T, burst, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_integral_floats_accepted(self):
        want, _ = gen_mixture(3, 2000, dict(BURST, source=2), seed=4)
        got, _ = gen_mixture(3.0, np.float64(2000.0),
                             dict(BURST, count=2.0, min_len=400.0, max_len=700.0, source=2.0), seed=4)
        assert np.array_equal(got.samples, want.samples)

    def test_default_specs_cover_n(self):
        for n in (2, 5, 9):
            specs = default_source_specs(n)
            assert len(specs) == n
        assert any(s.startswith("ecg") for s in default_source_specs(5))

    def test_default_burst_fits_default_record(self):
        rec, _ = gen_mixture(5, 10_000, DEFAULT_BURST, seed=0)
        assert rec.length == 10_000


class TestGenEcgLike:
    def test_periodic_case(self):
        # jitter 0 at 2 Hz / 500 Hz: one beat every 250 samples, unit peaks
        x = gen_ecg_like(2.0, 500.0, 5000, width_s=0.02, amplitude=1.0, jitter_pct=0.0, seed=0)
        peaks = np.arange(0, 5000, 250)
        assert np.abs(x[peaks] - 1.0).max() <= 1e-9
        interior = peaks[(peaks > 0) & (peaks < 4999)]
        assert np.all(x[interior] >= x[interior - 3])
        assert np.all(x[interior] >= x[interior + 3])

    def test_wide_kernels_superpose(self):
        x = gen_ecg_like(2.0, 500.0, 5000, width_s=0.5, amplitude=1.0, jitter_pct=0.0, seed=0)
        assert x.max() > 1.0

    def test_jitter_spreads_intervals(self):
        x = gen_ecg_like(2.0, 500.0, 50_000, width_s=0.02, amplitude=1.0, jitter_pct=10.0, seed=1)
        up = (x[1:-1] >= x[:-2]) & (x[1:-1] >= x[2:]) & (x[1:-1] > 0.5)
        pos = np.flatnonzero(up) + 1
        intervals = np.diff(pos).astype(float)
        cv = intervals.std() / intervals.mean()
        assert 0.05 < cv < 0.15

    def test_too_few_beats_rejected(self):
        with pytest.raises(BadSpec):
            gen_ecg_like(2.0, 500.0, 400, width_s=0.02)

    def test_parameter_validation(self):
        with pytest.raises(BadSpec):
            gen_ecg_like(-1.0, 500.0, 5000, width_s=0.02)
        with pytest.raises(BadSpec):
            gen_ecg_like(2.0, 500.0, 5000, width_s=0.02, jitter_pct=150.0)
        for bad in (math.inf, math.nan, True, np.True_):
            with pytest.raises(BadSpec):
                gen_ecg_like(2.0, 500.0, 5000, width_s=bad)
            with pytest.raises(BadSpec):
                gen_ecg_like(2.0, bad, 5000, width_s=0.02)
            with pytest.raises(BadSpec):  # True would run as a rate of 1.0
                gen_ecg_like(bad, 500.0, 2000, width_s=0.02)
            with pytest.raises(BadSpec):  # nan and inf would reach the samples
                gen_ecg_like(2.0, 500.0, 5000, width_s=0.02, amplitude=bad)
            with pytest.raises(BadSpec):
                gen_ecg_like(2.0, 500.0, 5000, width_s=0.02, jitter_pct=bad)
        # the shortest jittered beat interval must be at least one sample
        gen_ecg_like(250.0, 500.0, 1000, width_s=0.001, jitter_pct=50.0)
        with pytest.raises(BadSpec):
            gen_ecg_like(250.0, 500.0, 1000, width_s=0.001, jitter_pct=60.0)

    @pytest.mark.filterwarnings("error")
    def test_fractional_length_rejected(self):
        for bad in (5000.9, math.nan, "5000"):
            with pytest.raises(ValueError, match="T must be an integer"):
                gen_ecg_like(2.0, 500.0, bad, width_s=0.02)
        assert gen_ecg_like(2.0, 500.0, 5000.0, width_s=0.02).size == 5000

    @pytest.mark.parametrize("rate", [math.inf, 1e300, math.nan, 600.0])
    def test_rate_without_a_sample_per_beat_rejected(self, rate):
        # inf and 1e300 made the beat loop step by 0 or 5e-298 samples forever
        start = time.monotonic()
        with pytest.raises(BadSpec):
            gen_ecg_like(rate, 500.0, 1000, width_s=0.05)
        assert time.monotonic() - start < 1.0
