"""Evaluation metric tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsca.errors import DegenerateTruth, ShapeMismatch
from nsca.metrics import eval_index_auc, eval_mask, eval_separation
from nsca.partition import Partition
from nsca.records import IndexSeries, Record
from nsca.synthetic import gen_mixture


class TestEvalSeparation:
    def test_identity_estimate(self):
        S = np.random.default_rng(0).normal(size=(3, 500))
        report = eval_separation(Record(S), Record(S))
        assert np.allclose(report.matched, 1.0)
        assert sorted((i, j) for i, j, _ in report.pairs) == [(0, 0), (1, 1), (2, 2)]

    def test_permutation_and_sign_invariance(self):
        S = np.random.default_rng(1).normal(size=(3, 500))
        est = np.vstack([-S[2], S[0], -S[1]])
        report = eval_separation(Record(est), Record(S))
        assert np.allclose(report.matched, 1.0)
        assignment = {i: j for i, j, _ in report.pairs}
        assert assignment == {0: 2, 1: 0, 2: 1}

    def test_noise_estimate_scores_near_zero(self):
        rng = np.random.default_rng(2)
        S = rng.normal(size=(3, 10_000))
        est = rng.normal(size=(3, 10_000))
        report = eval_separation(Record(est), Record(S))
        assert report.matched.max() <= 0.1

    def test_accepts_ground_truth_wrapper(self):
        rec, truth = gen_mixture(3, 3000, dict(count=1, min_len=300, max_len=400, amplitude=3.0), seed=3)
        report = eval_separation(truth.sources, truth)
        assert np.allclose(report.matched, 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_scales_still_correlate(self, scale):
        # the squares of 1e300 overflow float64 (and of 1e-300 underflow),
        # which once scored every matched pair 0
        S = np.random.default_rng(5).normal(size=(3, 1000))
        report = eval_separation(Record(scale * S[::-1]), Record(S))
        assert report.matched.min() >= 1.0 - 1e-12
        assert sorted((i, j) for i, j, _ in report.pairs) == [(0, 2), (1, 1), (2, 0)]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            eval_separation(Record(np.ones((2, 50))), Record(np.ones((3, 50))))
        with pytest.raises(ShapeMismatch):
            eval_separation(Record(np.ones((2, 50))), Record(np.ones((2, 60))))

    def test_greedy_takes_largest_first(self):
        # est 0 correlates with both true sources; the greedy pass must give
        # it to the stronger partner and leave the weaker to est 1
        rng = np.random.default_rng(4)
        t0 = rng.normal(size=2000)
        t1 = rng.normal(size=2000)
        est = np.vstack([t0 + 0.1 * t1, t0 + 0.8 * t1])
        report = eval_separation(Record(est), Record(np.vstack([t0, t1])))
        assignment = {i: j for i, j, _ in report.pairs}
        assert assignment == {0: 0, 1: 1}


class TestEvalMask:
    def test_perfect_match(self):
        p = Partition([0, 1, 1, 0, 1])
        assert eval_mask(p, p) == (1.0, 1.0, 1.0)

    def test_empty_estimate_convention(self):
        est = Partition(np.zeros(6, dtype=int))
        truth = Partition([0, 1, 1, 0, 0, 0])
        precision, recall, f1 = eval_mask(est, truth)
        assert (precision, recall, f1) == (0.0, 0.0, 0.0)

    def test_complement_mask(self):
        truth = Partition([0, 0, 1, 1])
        est = Partition([1, 1, 0, 0])
        precision, recall, f1 = eval_mask(est, truth)
        assert precision == 0.0 and recall == 0.0 and f1 == 0.0

    def test_partial_overlap(self):
        truth = Partition([0, 1, 1, 1, 0, 0])
        est = Partition([0, 1, 1, 0, 1, 0])
        precision, recall, f1 = eval_mask(est, truth)
        assert precision == pytest.approx(2.0 / 3.0)
        assert recall == pytest.approx(2.0 / 3.0)
        assert f1 == pytest.approx(2.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            eval_mask(Partition([0, 1]), Partition([0, 1, 1]))


class TestEvalIndexAuc:
    def test_labels_as_index_is_perfect(self):
        labels = np.array([0, 0, 1, 1, 0, 1])
        idx = IndexSeries(labels.astype(float), valid_from=0, name="t")
        assert eval_index_auc(idx, Partition(labels)) == 1.0

    def test_independent_index_is_chance(self):
        rng = np.random.default_rng(5)
        labels = (rng.uniform(size=20_000) < 0.3).astype(int)
        idx = IndexSeries(rng.normal(size=20_000), valid_from=0, name="t")
        assert abs(eval_index_auc(idx, Partition(labels)) - 0.5) <= 0.05

    def test_ties_count_half(self):
        idx = IndexSeries(np.ones(4), valid_from=0, name="t")
        assert eval_index_auc(idx, Partition([0, 1, 0, 1])) == 0.5

    def test_warmup_excluded_from_scoring(self):
        # the only label-1 samples sit in the warm-up: degenerate
        labels = np.array([1, 1, 0, 0, 0])
        idx = IndexSeries(np.arange(5.0), valid_from=2, name="t")
        with pytest.raises(DegenerateTruth):
            eval_index_auc(idx, Partition(labels))

    def test_single_label_rejected(self):
        idx = IndexSeries(np.arange(4.0), valid_from=0, name="t")
        with pytest.raises(DegenerateTruth):
            eval_index_auc(idx, Partition(np.zeros(4, dtype=int)))

    def test_inverted_index_scores_low(self):
        labels = np.array([0, 0, 1, 1])
        idx = IndexSeries(np.array([4.0, 3.0, 2.0, 1.0]), valid_from=0, name="t")
        assert eval_index_auc(idx, Partition(labels)) == 0.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(1, 100), st.data())
def test_auc_matches_pairwise_count_with_ties(seed, n, levels, data):
    # values take at most `levels` distinct values: one makes them all equal,
    # a few force ties
    rng = np.random.default_rng(seed)
    valid_from = data.draw(st.integers(0, n - 2), label="valid_from")
    values = rng.integers(0, levels, n) * rng.uniform(0.5, 2.0)
    labels = rng.integers(0, 2, n)
    # one sample of each label in the scored range
    labels[rng.permutation(np.arange(valid_from, n))[:2]] = [0, 1]
    pos = values[valid_from:][labels[valid_from:] == 1]
    neg = values[valid_from:][labels[valid_from:] == 0]
    wins = np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])
    idx = IndexSeries(values, valid_from=valid_from, name="t")
    assert eval_index_auc(idx, Partition(labels)) == wins / (pos.size * neg.size)
