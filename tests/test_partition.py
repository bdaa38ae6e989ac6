"""Partitioning and class-covariance tests."""

import numpy as np
import pytest

from nsca.errors import ClassTooSmall, DegenerateIndex, EmptyClass, ShapeMismatch
from nsca.linalg import sym_eig
from nsca.partition import (
    Partition,
    class_covariances,
    quantile_partition,
    threshold_mask,
)
from nsca.records import IndexSeries, Record


def series(values, valid_from=0):
    return IndexSeries(np.asarray(values, dtype=float), valid_from=valid_from, name="t")


class TestPartitionType:
    def test_counts_and_k(self):
        p = Partition([0, 1, 1, 0, 2], K=3)
        assert p.K == 3
        assert p.class_counts.tolist() == [2, 2, 1]
        assert p.length == 5

    def test_k_inferred_from_labels(self):
        assert Partition([0, 1, 2]).K == 3
        assert Partition([0, 0, 0]).K == 2  # background-only still two-class

    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            Partition([0, 3], K=2)
        with pytest.raises(ValueError):
            Partition([-1, 0])

    def test_labels_are_read_only(self):
        p = Partition([0, 1])
        with pytest.raises(ValueError):
            p.labels[0] = 5


class TestThresholdMask:
    def test_half_peak(self):
        part = threshold_mask(series([0.0, 1.0, 2.0, 4.0]), theta_rel=0.5)
        assert part.labels.tolist() == [0, 0, 1, 1]

    def test_inclusive_comparison_at_one(self):
        # theta 1.0 keeps exactly the argmax samples
        part = threshold_mask(series([1.0, 5.0, 2.0, 5.0]), theta_rel=1.0)
        assert part.labels.tolist() == [0, 1, 0, 1]

    def test_constant_index_all_above(self):
        with pytest.raises(EmptyClass):
            threshold_mask(series([2.0, 2.0, 2.0]), theta_rel=1.0)

    def test_erosion_removes_short_events(self):
        idx = series([0.0, 10.0, 0.0, 10.0, 10.0, 10.0, 0.0])
        part = threshold_mask(idx, theta_rel=0.5, min_event_len=3)
        assert part.labels.tolist() == [0, 0, 0, 1, 1, 1, 0]

    def test_erosion_can_empty_the_event_class(self):
        idx = series([0.0, 10.0, 0.0, 0.0])
        with pytest.raises(EmptyClass):
            threshold_mask(idx, theta_rel=0.5, min_event_len=3)

    def test_warmup_is_background(self):
        # index values in the warm-up are zeroed and never labeled 1
        idx = series([7.0, 7.0, 1.0, 8.0], valid_from=2)
        part = threshold_mask(idx, theta_rel=0.1)
        assert part.labels.tolist() == [0, 0, 1, 1]

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        idx = series(rng.uniform(0.0, 1.0, size=200))
        base = threshold_mask(idx, theta_rel=0.6)
        scaled = threshold_mask(series(idx.values * 37.0), theta_rel=0.6)
        assert np.array_equal(base.labels, scaled.labels)

    def test_theta_range(self):
        with pytest.raises(ValueError):
            threshold_mask(series([1.0, 2.0]), theta_rel=0.0)


class TestQuantilePartition:
    def test_median_split(self):
        part = quantile_partition(series([1.0, 2.0, 3.0, 4.0]), K=2)
        assert part.labels.tolist() == [0, 0, 1, 1]

    def test_constant_index_rejected(self):
        with pytest.raises(DegenerateIndex):
            quantile_partition(series(np.ones(10)), K=2)

    def test_balanced_counts_on_uniform_noise(self):
        idx = series(np.random.default_rng(1).uniform(size=1000))
        part = quantile_partition(idx, K=4)
        assert np.abs(part.class_counts - 250).max() <= 2

    def test_boundary_tie_goes_low(self):
        part = quantile_partition(series([1.0, 2.0, 2.0, 3.0]), K=2)
        # the 50% quantile is exactly 2: tied samples stay in the lower bin
        assert part.labels.tolist() == [0, 0, 0, 1]

    def test_labels_cover_every_sample(self):
        idx = series(np.random.default_rng(2).normal(size=777))
        part = quantile_partition(idx, K=5)
        assert part.class_counts.sum() == 777


class TestClassCovariances:
    def test_constant_record(self):
        rec = Record(np.full((2, 40), 3.0))
        part = Partition([0] * 20 + [1] * 20)
        cs = class_covariances(rec, part)
        for C in cs.covs:
            assert np.allclose(C.entries, 0.0)
        assert np.allclose(cs.means, 3.0)

    def test_burst_class_variance(self):
        # class 1 adds a variance-9 burst on channel 2: C_1[1,1] near 10
        rng = np.random.default_rng(3)
        T = 10_000
        X = rng.normal(size=(2, T))
        labels = np.zeros(T, dtype=int)
        labels[4000:6000] = 1
        X[1, labels == 1] += rng.normal(scale=3.0, size=2000)
        cs = class_covariances(Record(X), Partition(labels))
        assert cs.covs[1].entries[1, 1] == pytest.approx(10.0, rel=0.15)
        assert cs.covs[0].entries[1, 1] == pytest.approx(1.0, rel=0.15)

    def test_exact_class_size_boundary(self):
        rec = Record(np.random.default_rng(4).normal(size=(3, 50)))
        labels = np.zeros(50, dtype=int)
        labels[:3] = 1  # n samples: one short of the n+1 floor
        with pytest.raises(ClassTooSmall):
            class_covariances(rec, Partition(labels))

    def test_weight_rules(self):
        rec = Record(np.random.default_rng(5).normal(size=(2, 100)))
        labels = np.array([0] * 75 + [1] * 25)
        cs = class_covariances(rec, Partition(labels), weight_rule="cardinality")
        assert np.allclose(cs.weights, [0.75, 0.25])
        assert cs.weights.sum() == pytest.approx(1.0)
        cs_u = class_covariances(rec, Partition(labels), weight_rule="uniform")
        assert np.allclose(cs_u.weights, [0.5, 0.5])

    def test_total_scatter_decomposition(self):
        # (T-1) C_x = sum (|P_i|-1) C_i + sum |P_i| (m_i - m_x)(m_i - m_x)^T
        rng = np.random.default_rng(6)
        T = 600
        rec = Record(rng.normal(size=(3, T)) + rng.uniform(-2, 2, size=(3, 1)))
        labels = rng.integers(0, 3, size=T)
        cs = class_covariances(rec, Partition(labels, K=3))
        lhs = (T - 1) * cs.total.entries
        rhs = np.zeros((3, 3))
        for i in range(3):
            cnt = cs.counts[i]
            d = (cs.means[i] - cs.total_mean)[:, None]
            rhs += (cnt - 1) * cs.covs[i].entries + cnt * (d @ d.T)
        scale = np.abs(lhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-9 * scale

    def test_outputs_symmetric_psd(self):
        rng = np.random.default_rng(7)
        rec = Record(rng.normal(size=(4, 400)))
        labels = rng.integers(0, 2, size=400)
        cs = class_covariances(rec, Partition(labels))
        for C in list(cs.covs) + [cs.total]:
            M = C.entries
            assert np.array_equal(M, M.T)
            floor = -1e-10 * max(np.trace(M), 1.0)
            assert sym_eig(C).values[0] >= floor

    def test_partition_length_must_match(self):
        rec = Record(np.ones((2, 30)))
        with pytest.raises(ShapeMismatch):
            class_covariances(rec, Partition(np.zeros(20, dtype=int)))
