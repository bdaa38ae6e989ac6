"""Partitioning and class-covariance tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsca.errors import ClassTooSmall, DegenerateIndex, EmptyClass, ShapeMismatch
from nsca.linalg import sample_cov, sym_eig
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("labels", [[0.5, 1.7, 0.2], [0.0, np.nan], [0.0, np.inf], [0.0, 1e300]])
    def test_non_integral_labels_rejected_before_the_cast(self, labels):
        # the int64 cast would truncate fractions and warn on NaN, inf and 1e300
        with pytest.raises(ValueError, match="finite integers"):
            Partition(labels)

    @pytest.mark.filterwarnings("error")
    def test_integral_floats_and_bools_accepted(self):
        assert Partition([0.0, 1.0, 2.0]).labels.tolist() == [0, 1, 2]
        assert Partition(np.array([True, False, True])).class_counts.tolist() == [1, 2]
        assert Partition([0, 1], K=np.float64(3.0)).K == 3

    def test_fractional_k_rejected(self):
        with pytest.raises(ValueError, match="K must be an integer"):
            Partition([0, 1], K=2.5)


class TestThresholdMask:
    def test_half_peak(self):
        part = threshold_mask(series([0.0, 1.0, 2.0, 4.0]), theta_rel=0.5)
        assert part.labels.tolist() == [0, 0, 1, 1]

    def test_inclusive_comparison_at_one(self):
        # theta 1.0 keeps exactly the argmax samples
        part = threshold_mask(series([1.0, 5.0, 2.0, 5.0]), theta_rel=1.0)
        assert part.labels.tolist() == [0, 1, 0, 1]

    def test_constant_index_all_above(self):
        # no theta can split a constant index
        for theta in (0.5, 1.0):
            with pytest.raises(EmptyClass, match="the index is constant over its valid range"):
                threshold_mask(series([2.0, 2.0, 2.0]), theta_rel=theta)

    def test_constant_valid_range_after_warmup(self):
        # the zeroed warm-up is background, not a class the split can fill
        with pytest.raises(EmptyClass, match="the index is constant over its valid range"):
            threshold_mask(series([0, 0, 5, 5, 5], valid_from=2), theta_rel=0.5)

    def test_erosion_removes_short_events(self):
        idx = series([0.0, 10.0, 0.0, 10.0, 10.0, 10.0, 0.0])
        part = threshold_mask(idx, theta_rel=0.5, min_event_len=3)
        assert part.labels.tolist() == [0, 0, 0, 1, 1, 1, 0]

    def test_erosion_can_empty_the_event_class(self):
        idx = series([0.0, 10.0, 0.0, 0.0])
        with pytest.raises(EmptyClass):
            threshold_mask(idx, theta_rel=0.5, min_event_len=3)

    def test_warmup_is_background(self):
        # index values in the warm-up are zeroed and never labeled 1, and
        # the zeros do not set the floor: the threshold is 1 + 0.1 * (8 - 1)
        idx = series([7.0, 7.0, 1.0, 8.0], valid_from=2)
        part = threshold_mask(idx, theta_rel=0.1)
        assert part.labels.tolist() == [0, 0, 0, 1]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(-2**20, 2**20), min_size=2, max_size=200),
        st.integers(-8, 8),
        st.integers(-2**20, 2**20),
        st.integers(1, 64),
    )
    def test_scale_invariance(self, values, log2_scale, shift, theta_64ths):
        # labels of a * idx + b equal those of idx for a > 0. Integer values,
        # a power-of-two scale, an integer shift and theta in 64ths keep every
        # step of the threshold exact, so no sample can sit within rounding
        # of it on one side only.
        idx = series(values)
        moved = series(np.ldexp(np.asarray(values, dtype=float), log2_scale) + shift)
        theta = theta_64ths / 64
        try:
            base = threshold_mask(idx, theta_rel=theta).labels
        except EmptyClass:
            with pytest.raises(EmptyClass):
                threshold_mask(moved, theta_rel=theta)
            return
        assert np.array_equal(threshold_mask(moved, theta_rel=theta).labels, base)

    def test_theta_range(self):
        # True is not a theta_rel of 1.0
        for theta in (0.0, True, np.True_):
            with pytest.raises(ValueError, match="theta_rel"):
                threshold_mask(series([1.0, 2.0]), theta_rel=theta)

    def test_fractional_min_event_len_rejected(self):
        # int(2.5) would erode runs shorter than 2, not 2.5
        with pytest.raises(ValueError, match="min_event_len must be an integer"):
            threshold_mask(series([0.0, 10.0, 10.0, 0.0]), min_event_len=2.5)


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

    def test_fractional_k_rejected(self):
        # int(2.5) would run K=2
        with pytest.raises(ValueError, match="K must be an integer"):
            quantile_partition(series([1.0, 2.0, 3.0, 4.0]), K=2.5)

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

    def test_cardinality_weights(self):
        rec = Record(np.random.default_rng(5).normal(size=(2, 100)))
        labels = np.array([0] * 75 + [1] * 25)
        cs = class_covariances(rec, Partition(labels))
        assert np.allclose(cs.weights, [0.75, 0.25])
        assert cs.weights.sum() == pytest.approx(1.0)

    def test_total_scatter_decomposition(self):
        # (T-1) C_x = sum (|P_i|-1) C_i + sum |P_i| (m_i - m_x)(m_i - m_x)^T,
        # with C_x from one pass over the whole record
        rng = np.random.default_rng(6)
        T = 600
        rec = Record(rng.normal(size=(3, T)) + rng.uniform(-2, 2, size=(3, 1)))
        labels = rng.integers(0, 3, size=T)
        cs = class_covariances(rec, Partition(labels, K=3))
        lhs = (T - 1) * sample_cov(rec.samples)[0].entries
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

    def test_record_and_labels_unchanged(self):
        rng = np.random.default_rng(8)
        rec = Record(rng.normal(size=(3, 300)))
        part = Partition(rng.integers(0, 3, size=300), K=3)
        samples, labels = rec.samples.copy(), part.labels.copy()
        class_covariances(rec, part)
        assert rec.samples.tobytes() == samples.tobytes()
        assert np.array_equal(part.labels, labels)

    @pytest.mark.parametrize("K", [2, 4])
    def test_peak_memory(self, K):
        # the sorted copy of the record, each class's run centred in place
        rng = np.random.default_rng(9)
        rec = Record(rng.normal(size=(5, 100_000)))
        part = Partition(rng.integers(0, K, size=100_000), K=K)
        class_covariances(rec, part)
        tracemalloc.start()
        try:
            class_covariances(rec, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * rec.samples.nbytes


# Deviation of class_covariances from sample_cov run directly on each class
# and on the whole record, relative to max|C|, measured over 300 random records
# per offset: 2e-15 with DC offsets up to 10x the spread, 3e-14 up to 1e3x and
# 3e-11 up to 1e6x. The class means' rounding, about eps * |offset|, reaches
# the total only through sum |P_i| d_i d_i^T, so the deviation grows linearly
# with offset / spread. At offsets up to 1e3x the spread, 1e-10 leaves a margin
# of over 1000x; the means agree to about eps * log2(T) * max|X|.
COV_TOL = 1e-10
MEAN_TOL = 1e-12


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), K=st.integers(2, 6),
       extra=st.integers(0, 400), offset_exp=st.integers(0, 3))
def test_class_covariances_match_direct_sample_cov(seed, n, K, extra, offset_exp):
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.concatenate(
        (np.repeat(np.arange(K), n + 1), rng.integers(0, K, size=extra))))
    spread = rng.uniform(0.1, 10.0, size=(n, 1))
    offset = rng.uniform(-1.0, 1.0, size=(n, 1)) * 10.0**offset_exp * spread
    X = rng.normal(size=(n, labels.size)) * spread + offset
    cs = class_covariances(Record(X), Partition(labels, K=K))

    def assert_close(C, m, C_ref, m_ref):
        assert np.abs(C.entries - C_ref.entries).max() <= COV_TOL * np.abs(C_ref.entries).max()
        assert np.abs(m - m_ref).max() <= MEAN_TOL * np.abs(X).max()

    # sample_cov of class i's run of the record sorted stably by label (row-major,
    # as class_covariances sorts it) gives the same bits
    Y = X.take(np.argsort(labels, kind="stable"), axis=1)
    for i, e in enumerate(np.cumsum(cs.counts)):
        C_ref, m_ref, _ = sample_cov(Y[:, e - cs.counts[i]:e])
        assert cs.covs[i].entries.tobytes() == C_ref.entries.tobytes()
        assert cs.means[i].tobytes() == m_ref.tobytes()
    for i in range(K):
        C_ref, m_ref, _ = sample_cov(X[:, labels == i])
        assert_close(cs.covs[i], cs.means[i], C_ref, m_ref)
        assert cs.counts[i] == np.sum(labels == i)
    C_ref, m_ref, _ = sample_cov(X)
    assert_close(cs.total, cs.total_mean, C_ref, m_ref)
