"""CSV and command-line interface tests."""

import numpy as np
import pytest

from nsca.cli import main
from nsca.errors import MalformedInput
from nsca.io import (
    read_index,
    read_mask,
    read_matrix,
    read_record,
    read_spectra,
    write_index,
    write_mask,
    write_matrix,
    write_record,
    write_spectra,
)
from nsca.partition import Partition
from nsca.records import IndexSeries, Record


def awkward_floats(rng, shape):
    """Values that expose any formatting shortcut: tiny, huge, negative, subnormal-ish."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-200, 200, size=shape)
    return x


class TestRoundTrips:
    def test_record(self, tmp_path):
        rng = np.random.default_rng(0)
        rec = Record(awkward_floats(rng, (3, 40)), 250.0, ["a", "b", "c"])
        path = tmp_path / "rec.csv"
        write_record(path, rec)
        back = read_record(path, sample_rate_hz=250.0)
        assert np.array_equal(back.samples, rec.samples)
        assert back.channel_names == rec.channel_names

    def test_index(self, tmp_path):
        idx = IndexSeries(awkward_floats(np.random.default_rng(1), 64), valid_from=0, name="t")
        path = tmp_path / "idx.csv"
        write_index(path, idx)
        back = read_index(path)
        assert np.array_equal(back.values, idx.values)

    def test_index_drops_warmup_flag(self, tmp_path):
        # the CSV stores only (k, value); a reread series restarts at 0
        idx = IndexSeries(np.arange(10.0), valid_from=4, name="t")
        path = tmp_path / "idx.csv"
        write_index(path, idx)
        back = read_index(path)
        assert back.valid_from == 0
        assert np.array_equal(back.values, idx.values)  # warm-up already zeroed

    def test_mask(self, tmp_path):
        part = Partition(np.random.default_rng(2).integers(0, 3, size=50), K=3)
        path = tmp_path / "mask.csv"
        write_mask(path, part)
        back = read_mask(path)
        assert np.array_equal(back.labels, part.labels)
        assert back.K == part.K

    def test_matrix(self, tmp_path):
        M = awkward_floats(np.random.default_rng(3), (4, 4))
        path = tmp_path / "mat.csv"
        write_matrix(path, M)
        assert np.array_equal(read_matrix(path), M)

    def test_spectra(self, tmp_path):
        S = np.abs(awkward_floats(np.random.default_rng(4), (3, 5)))
        path = tmp_path / "spec.csv"
        write_spectra(path, S)
        assert np.array_equal(read_spectra(path), S)


class TestMalformedInput:
    def test_nan_cell_names_line(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("a,b\n1.0,2.0\nnan,3.0\n")
        with pytest.raises(MalformedInput) as err:
            read_record(path)
        assert "line 3" in str(err.value)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("a,b\n1.0\n")
        with pytest.raises(MalformedInput):
            read_record(path)

    def test_index_requires_contiguous_k(self, tmp_path):
        path = tmp_path / "idx.csv"
        path.write_text("k,value\n0,1.0\n2,2.0\n")
        with pytest.raises(MalformedInput):
            read_index(path)

    def test_mask_rejects_fractional_label(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_text("k,label\n0,0\n1,1.5\n")
        with pytest.raises(MalformedInput):
            read_mask(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("")
        with pytest.raises(MalformedInput):
            read_record(path)


def run(args):
    return main([str(a) for a in args])


class TestCliSynth:
    def test_writes_all_artifacts(self, tmp_path):
        code = run(["synth", "--n", 3, "--t", 2000, "--seed", 5, "--count", 1,
                    "--min-len", 300, "--max-len", 400, "--out-dir", tmp_path])
        assert code == 0
        for name in ("record.csv", "sources.csv", "mixing.csv", "mask.csv"):
            assert (tmp_path / name).exists()

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            d.mkdir()
            assert run(["synth", "--n", 3, "--t", 1500, "--seed", 7, "--count", 1,
                        "--min-len", 200, "--max-len", 300, "--out-dir", d]) == 0
        for name in ("record.csv", "sources.csv", "mixing.csv", "mask.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        assert run(["synth", "--n", 2, "--t", 1000, "--seed", 9, "--count", 1,
                    "--min-len", 100, "--max-len", 150, "--out-dir", a]) == 0
        monkeypatch.setenv("NSCA_SEED", "9")
        assert run(["synth", "--n", 2, "--t", 1000, "--seed", 0, "--count", 1,
                    "--min-len", 100, "--max-len", 150, "--out-dir", b]) == 0
        assert (a / "record.csv").read_bytes() == (b / "record.csv").read_bytes()

    def test_bad_env_seed_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NSCA_SEED", "twelve")
        assert run(["synth", "--n", 2, "--t", 1000, "--out-dir", tmp_path]) == 2

    def test_missing_required_flag(self, tmp_path, capsys):
        assert run(["synth", "--t", 1000, "--out-dir", tmp_path]) == 2
        assert "usage" in capsys.readouterr().err

    def test_zero_amplitude_still_lists_windows(self, tmp_path):
        assert run(["synth", "--n", 2, "--t", 1000, "--burst-amplitude", 0, "--count", 1,
                    "--min-len", 100, "--max-len", 150, "--out-dir", tmp_path]) == 0
        mask = read_mask(tmp_path / "mask.csv")
        assert mask.class_counts[1] > 0


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    code = main(["synth", "--n", "4", "--t", "6000", "--seed", "7", "--count", "2",
                 "--min-len", "400", "--max-len", "600", "--out-dir", str(d)])
    assert code == 0
    return d


class TestCliDetect:
    def test_writes_indexes_and_summary(self, synth_dir, tmp_path, capsys):
        code = run(["detect", "--record", synth_dir / "record.csv",
                    "--detectors", "envelope,innovation",
                    "--envelope-window", 151, "--whiteness-window", 128,
                    "--out-dir", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("envelope", "innovation"):
            assert (tmp_path / f"{name}.csv").exists()
            assert (tmp_path / f"{name}_norm.csv").exists()
            assert f"{name} max=" in out
        norm = read_index(tmp_path / "envelope_norm.csv")
        assert norm.values.max() <= 1.0 + 1e-12

    def test_unknown_detector_is_usage_error(self, synth_dir, tmp_path):
        assert run(["detect", "--record", synth_dir / "record.csv",
                    "--detectors", "wavelet", "--out-dir", tmp_path]) == 2

    def test_missing_record_file(self, tmp_path):
        assert run(["detect", "--record", tmp_path / "nope.csv", "--out-dir", tmp_path]) == 3

    def test_failing_detector_writes_nothing(self, synth_dir, tmp_path, capsys):
        # ad and envelope succeed, then EASI diverges at this step size; the
        # run must not leave the first two detectors' files behind
        code = run(["detect", "--record", synth_dir / "record.csv",
                    "--detectors", "ad,envelope,easi", "--easi-step", 10,
                    "--out-dir", tmp_path])
        assert code == 4
        assert not list(tmp_path.iterdir())
        assert capsys.readouterr().out == ""

    def test_plot_data_emitted(self, synth_dir, tmp_path):
        code = run(["detect", "--record", synth_dir / "record.csv",
                    "--detectors", "envelope", "--envelope-window", 151,
                    "--emit-plot-data", "--out-dir", tmp_path])
        assert code == 0
        assert (tmp_path / "plot_indexes.csv").exists()


class TestCliSeparate:
    def test_oracle_mask_two_class(self, synth_dir, tmp_path, capsys):
        code = run(["separate", "--record", synth_dir / "record.csv",
                    "--mask", synth_dir / "mask.csv", "--out-dir", tmp_path])
        assert code == 0
        for name in ("demixer.csv", "est_sources.csv", "spectra.csv", "diagnostics.txt"):
            assert (tmp_path / name).exists()
        est = read_record(tmp_path / "est_sources.csv")
        truth = read_record(synth_dir / "sources.csv")
        mask = read_mask(synth_dir / "mask.csv")
        sel = mask.labels == 1
        burst = truth.samples[-1][sel]
        best = max(
            abs(np.corrcoef(est.samples[i][sel], burst)[0, 1]) for i in range(est.channels)
        )
        assert best >= 0.95

    def test_quantile_partition_path(self, synth_dir, tmp_path):
        d = tmp_path / "det"
        d.mkdir()
        assert run(["detect", "--record", synth_dir / "record.csv", "--detectors", "envelope",
                    "--envelope-window", 151, "--out-dir", d]) == 0
        code = run(["separate", "--record", synth_dir / "record.csv",
                    "--index", d / "envelope.csv", "--quantiles", 3, "--out-dir", tmp_path])
        assert code == 0
        spectra = read_spectra(tmp_path / "spectra.csv")
        assert spectra.shape[0] == 3
        text = (tmp_path / "diagnostics.txt").read_text()
        assert "ajd_residual" in text

    def test_saturating_threshold_is_model_error(self, synth_dir, tmp_path):
        d = tmp_path / "det"
        d.mkdir()
        assert run(["detect", "--record", synth_dir / "record.csv", "--detectors", "envelope",
                    "--envelope-window", 151, "--out-dir", d]) == 0
        # a constant index cannot split: every sample reaches 100% of peak
        idx = read_index(d / "envelope.csv")
        write_index(d / "flat.csv", IndexSeries(np.ones(idx.length), 0, "flat"))
        assert run(["separate", "--record", synth_dir / "record.csv",
                    "--index", d / "flat.csv", "--theta", 1.0, "--out-dir", tmp_path]) == 4

    def test_two_round_requires_target(self, synth_dir, tmp_path):
        assert run(["separate", "--record", synth_dir / "record.csv",
                    "--two-round", "--out-dir", tmp_path]) == 2

    def test_two_round_runs(self, synth_dir, tmp_path):
        code = run(["separate", "--record", synth_dir / "record.csv",
                    "--two-round", "--target", 0, "--out-dir", tmp_path])
        assert code == 0
        text = (tmp_path / "diagnostics.txt").read_text()
        assert "round1_residual" in text

    def test_mask_length_mismatch_is_shape_error(self, synth_dir, tmp_path):
        short = tmp_path / "short.csv"
        write_mask(short, Partition(np.array([0] * 50 + [1] * 50)))
        assert run(["separate", "--record", synth_dir / "record.csv",
                    "--mask", short, "--out-dir", tmp_path]) == 5


class TestCliEval:
    def test_source_table_and_metrics(self, synth_dir, tmp_path, capsys):
        sep = tmp_path / "sep"
        sep.mkdir()
        assert run(["separate", "--record", synth_dir / "record.csv",
                    "--mask", synth_dir / "mask.csv", "--out-dir", sep]) == 0
        code = run(["eval", "--est", sep / "est_sources.csv",
                    "--truth", synth_dir / "sources.csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "matched_corr_min" in out

    def test_mask_scores(self, synth_dir, tmp_path, capsys):
        code = run(["eval", "--est", synth_dir / "sources.csv",
                    "--truth", synth_dir / "sources.csv",
                    "--est-mask", synth_dir / "mask.csv",
                    "--truth-mask", synth_dir / "mask.csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mask_f1,1" in out

    def test_index_auc_reported(self, synth_dir, tmp_path, capsys):
        d = tmp_path / "det"
        d.mkdir()
        assert run(["detect", "--record", synth_dir / "record.csv", "--detectors", "envelope",
                    "--envelope-window", 151, "--out-dir", d]) == 0
        code = run(["eval", "--est", synth_dir / "sources.csv",
                    "--truth", synth_dir / "sources.csv",
                    "--index", d / "envelope.csv",
                    "--truth-mask", synth_dir / "mask.csv"])
        assert code == 0
        assert "index_auc," in capsys.readouterr().out
