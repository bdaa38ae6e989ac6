"""Ground-truth generator tests."""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nsca
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


def ar1_reference(a, T, rng):
    """The AR(1) source as a per-sample loop, with the generator's draw order."""
    e = rng.standard_normal(T) * np.sqrt(1.0 - a * a)
    x = np.empty(T)
    x[0] = rng.standard_normal()
    for t in range(1, T):
        x[t] = a * x[t - 1] + e[t]
    return x


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
    got = _synth_source(("ar1", a), T, 500.0, np.random.default_rng(seed))
    assert np.array_equal(got, ar1_reference(a, T, np.random.default_rng(seed)))


def test_ar1_source_matches_the_loop_at_cli_long_length():
    got = _synth_source(("ar1", 0.7), 100_000, 500.0, np.random.default_rng(11))
    assert np.array_equal(got, ar1_reference(0.7, 100_000, np.random.default_rng(11)))


def test_cli_import_leaves_scipy_signal_unloaded(tmp_path):
    # `synth` with the default specs generates AR(1) sources
    src = os.path.dirname(os.path.dirname(nsca.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, nsca.cli\n"
            "loaded = lambda: [m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules]\n"
            "print(loaded())\n"
            "assert nsca.cli.main(['synth', '--n', '3', '--t', '3000', '--out-dir', sys.argv[1]]) == 0\n"
            "print(loaded())")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "wrote record/sources/mixing/mask to " + str(tmp_path), "[]"]


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
        for spec in ("ar1:x", "ecg:fast:0.05", "ecg:3.5:0.05:some"):  # non-numeric
            with pytest.raises(BadSpec):
                gen_mixture(3, 2000, BURST, source_specs=["gaussian", spec, "gaussian"], seed=0)

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
        for bad in (math.inf, math.nan):
            with pytest.raises(BadSpec):
                gen_ecg_like(2.0, 500.0, 5000, width_s=bad)
            with pytest.raises(BadSpec):
                gen_ecg_like(2.0, bad, 5000, width_s=0.02)
        # the shortest jittered beat interval must be at least one sample
        gen_ecg_like(250.0, 500.0, 1000, width_s=0.001, jitter_pct=50.0)
        with pytest.raises(BadSpec):
            gen_ecg_like(250.0, 500.0, 1000, width_s=0.001, jitter_pct=60.0)

    @pytest.mark.parametrize("rate", [math.inf, 1e300, math.nan, 600.0])
    def test_rate_without_a_sample_per_beat_rejected(self, rate):
        # inf and 1e300 made the beat loop step by 0 or 5e-298 samples forever
        start = time.monotonic()
        with pytest.raises(BadSpec):
            gen_ecg_like(rate, 500.0, 1000, width_s=0.05)
        assert time.monotonic() - start < 1.0
