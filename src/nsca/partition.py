"""Partitioning of samples by an index, and class-conditional statistics.

An index series says how nonstationary each sample looks; this module turns
that into a labeling of the record and estimates the per-class covariance
structure that the separation engines diagonalize. ``threshold_mask`` labels
as events the samples ``theta_rel`` of the way from the index's valid minimum
to its maximum; ``quantile_partition`` cuts the index at its ``j/K``
quantiles. No null distribution enters either rule: the paper's level-alpha
hypothesis test is still open (ROADMAP item 2).

``class_covariances`` sorts the record's columns by label once, so that each
class is one contiguous run of columns, and runs ``linalg.sample_cov`` on each
run. The total covariance is not a second pass over the record: it comes from
the within/between scatter decomposition of the class results, so its bits
differ from ``sample_cov`` of the whole record at rounding level.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassTooSmall,
    DegenerateIndex,
    EmptyClass,
    ShapeMismatch,
)
from .linalg import SymMatrix, sample_cov
from .records import IndexSeries, as_int, as_record

__all__ = [
    "Partition",
    "CovarianceSet",
    "threshold_mask",
    "quantile_partition",
    "class_covariances",
]


class Partition:
    """Disjoint labeling of T samples into classes ``0 .. K-1``.

    Class 0 is the background/stationary class by convention. Classes may be
    empty at this level; emptiness is rejected where it matters, at
    covariance-estimation time.
    """

    __slots__ = ("labels", "K", "class_counts")

    def __init__(self, labels, K=None):
        lab = np.asarray(labels)
        if lab.ndim != 1 or lab.size < 1:
            raise ShapeMismatch("labels must be a nonempty 1-D integer array")
        # integral floats (and bools) are labels; the int64 cast would
        # truncate any other float, and warn on NaN, inf or |x| >= 2**63
        if lab.dtype.kind == "f" and not ((abs(lab) < 2.0**63) & (lab == np.trunc(lab))).all():
            raise ValueError("labels must be finite integers")
        lab = np.array(lab, dtype=np.int64)
        K = max(int(lab.max()) + 1, 2) if K is None else as_int(K, "K")
        if K < 2:
            raise ValueError("a partition needs at least 2 classes")
        if lab.min() < 0 or lab.max() >= K:
            raise ValueError(f"labels must lie in [0, {K})")
        lab.setflags(write=False)
        self.labels = lab
        self.K = K
        self.class_counts = np.bincount(lab, minlength=K)

    @property
    def length(self):
        return self.labels.size

    def __repr__(self):
        return f"Partition(K={self.K}, counts={self.class_counts.tolist()})"


def _erode_short_events(labels, min_event_len):
    """Zero out runs of label 1 shorter than min_event_len."""
    if min_event_len <= 1:
        return labels
    padded = np.concatenate(([0], labels, [0]))
    edges = np.flatnonzero(np.diff(padded))
    starts, ends = edges[::2], edges[1::2]
    for s, e in zip(starts, ends):
        if e - s < min_event_len:
            labels[s:e] = 0
    return labels


def threshold_mask(idx, theta_rel=0.5, min_event_len=1):
    """Two-class partition: label 1 where the index reaches a relative level.

    The threshold is ``lo + theta_rel * (hi - lo)`` for the index minimum
    ``lo`` and maximum ``hi`` over its valid range, so the labels of
    ``a * idx + b`` (``a > 0``) are those of ``idx``. It is compared
    inclusively: ``theta_rel = 1.0`` selects the argmax samples. Label-1 runs
    shorter than ``min_event_len`` are erased. Warm-up samples are background.

    Raises
    ------
    EmptyClass
        If either class ends up empty; the caller must adjust ``theta_rel``
        or ``min_event_len``.
    """
    if not isinstance(idx, IndexSeries):
        raise TypeError("threshold_mask expects an IndexSeries")
    if isinstance(theta_rel, (bool, np.bool_)) or not 0.0 < theta_rel <= 1.0:
        raise ValueError("theta_rel must be in (0, 1]")
    min_event_len = as_int(min_event_len, "min_event_len")
    if min_event_len < 1:
        raise ValueError("min_event_len must be >= 1")
    valid = idx.valid_values()
    lo, hi = valid.min(), valid.max()
    thr = hi - (1.0 - theta_rel) * (hi - lo)  # exactly hi at theta_rel = 1.0
    labels = np.zeros(idx.length, dtype=np.int64)
    labels[idx.valid_from:] = (valid >= thr).astype(np.int64)
    labels = _erode_short_events(labels, min_event_len)
    ones = int(labels.sum())
    if ones == 0:
        raise EmptyClass("no samples reach the threshold after erosion")
    if ones == labels.size:
        raise EmptyClass("the index is constant over its valid range; no theta_rel splits it"
                         if hi == lo else "every sample reaches the threshold; raise theta_rel")
    return Partition(labels, K=2)


def quantile_partition(idx, K):
    """K-class partition at the empirical ``j/K`` quantiles of the index.

    Ties on a boundary fall to the lower bin. Warm-up samples are class 0.

    Raises
    ------
    DegenerateIndex
        If the valid range has fewer than K distinct values.
    """
    if not isinstance(idx, IndexSeries):
        raise TypeError("quantile_partition expects an IndexSeries")
    K = as_int(K, "K")
    if K < 2:
        raise ValueError("K must be >= 2")
    valid = idx.valid_values()
    ordered = np.sort(valid)
    if np.count_nonzero(ordered[1:] != ordered[:-1]) + 1 < K:
        raise DegenerateIndex(f"index has fewer than {K} distinct values")
    cuts = np.quantile(ordered, np.arange(1, K) / K)
    labels = np.zeros(idx.length, dtype=np.int64)
    labels[idx.valid_from:] = np.searchsorted(cuts, valid, side="left")
    return Partition(labels, K=K)


@dataclass(frozen=True)
class CovarianceSet:
    """Class-conditional covariances, means and weights, plus the totals."""

    covs: tuple  # of SymMatrix, one per class
    means: np.ndarray  # (K, n)
    weights: np.ndarray  # (K,)
    counts: np.ndarray  # (K,)
    total: SymMatrix
    total_mean: np.ndarray  # (n,)


def class_covariances(record, part):
    """Unbiased covariance, mean and weight of each class, plus the totals.

    Class ``i`` weighs ``|P_i| / T``, so the weights sum to 1. Every class
    must have at least ``n + 1`` samples so its covariance has full degrees
    of freedom.

    The record is gathered once, in stable label order, so class ``i`` is a
    contiguous run of columns holding ``X[:, labels == i]`` in record order;
    ``sample_cov`` of that run gives ``C_i`` and ``m_i``. The totals come from
    the scatter decomposition, with ``d_i = m_i - m_x``::

        m_x = sum |P_i| m_i / T
        (T - 1) C_x = sum (|P_i| - 1) C_i + sum |P_i| d_i d_i^T

    Every term is positive semidefinite, so nothing cancels; ``C_x`` and
    ``m_x`` differ from ``sample_cov`` of the whole record at rounding level.

    Raises
    ------
    ClassTooSmall
        Naming the first class with fewer than ``n + 1`` samples (empty
        classes included).
    """
    record = as_record(record)
    if not isinstance(part, Partition):
        raise TypeError("class_covariances expects a Partition")
    if part.length != record.length:
        raise ShapeMismatch(f"partition length {part.length} != record length {record.length}")
    n = record.channels
    for i, cnt in enumerate(part.class_counts):
        if cnt < n + 1:
            raise ClassTooSmall(
                f"class {i} has {cnt} samples, needs at least {n + 1}",
                class_index=i,
            )
    T = record.length
    counts = part.class_counts
    # class i is the run of columns ends[i] - counts[i] : ends[i]
    Y = record.samples.take(np.argsort(part.labels, kind="stable"), axis=1)
    ends = np.cumsum(counts)
    covs, means = zip(*(sample_cov(Y[:, e - c:e])[:2] for c, e in zip(counts, ends)))
    means = np.array(means)
    total_mean = counts @ means / T
    d = means - total_mean
    scatter = sum((c - 1) * C.entries for c, C in zip(counts, covs)) + (counts * d.T) @ d
    return CovarianceSet(
        covs=covs,
        means=means,
        weights=counts / T,
        counts=counts.copy(),
        total=SymMatrix(scatter / (T - 1)),
        total_mean=total_mean,
    )
