"""Partitioning of samples by an index, and class-conditional statistics.

An index series says how nonstationary each sample looks; this module turns
that into a labeling of the record and estimates the per-class covariance
structure that the separation engines diagonalize. ``threshold_mask`` labels
as events the samples ``theta_rel`` of the way from the index's minimum to its
maximum; ``quantile_partition`` cuts the index at its ``j/K`` quantiles. No
null distribution enters either rule: the paper's level-alpha hypothesis test
is still open (ROADMAP item 2).

``class_covariances`` sorts the record's columns by label once, so that each
class is one contiguous run of columns, and centres each run of that private
copy in place before forming its covariance. The total covariance is not a
second pass over the record: it comes from the within/between scatter
decomposition of the class results, so its bits differ from ``sample_cov`` of
the whole record at rounding level.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassTooSmall,
    DegenerateIndex,
    EmptyClass,
    ShapeMismatch,
)
from .linalg import SymMatrix
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


def _halving(lo, hi):
    """0.5 where ``hi - lo`` overflows, else 1.0: a factor that keeps the
    arithmetic between ``lo`` and ``hi`` finite and, being exact above the
    subnormal range, moves no bit of a result that was finite."""
    return 0.5 if math.isinf(float(hi) - float(lo)) else 1.0


def threshold_mask(idx, theta_rel=0.5, min_event_len=1):
    """Two-class partition: label 1 where the index reaches a relative level.

    The threshold is ``lo + theta_rel * (hi - lo)`` for the index minimum
    ``lo`` and maximum ``hi``, so the labels of ``a * idx + b`` (``a > 0``)
    are those of ``idx``. It is compared inclusively: ``theta_rel = 1.0``
    selects the argmax samples. Label-1 runs shorter than ``min_event_len``
    are erased.

    Raises
    ------
    EmptyClass
        If no sample, or every sample, ends up labelled 1; the caller must
        adjust ``theta_rel`` or ``min_event_len``.
    """
    if not isinstance(idx, IndexSeries):
        raise TypeError("threshold_mask expects an IndexSeries")
    if isinstance(theta_rel, (bool, np.bool_)) or not 0.0 < theta_rel <= 1.0:
        raise ValueError("theta_rel must be in (0, 1]")
    min_event_len = as_int(min_event_len, "min_event_len")
    if min_event_len < 1:
        raise ValueError("min_event_len must be >= 1")
    lo, hi = idx.values.min(), idx.values.max()
    h = _halving(lo, hi)
    thr = (h * hi - (1.0 - theta_rel) * (h * hi - h * lo)) / h  # hi at theta_rel = 1.0
    labels = _erode_short_events((idx.values >= thr).astype(np.int64), min_event_len)
    ones = int(labels.sum())
    if ones == 0:
        raise EmptyClass("no samples reach the threshold after erosion")
    if ones == idx.length:
        raise EmptyClass("the index is constant; no theta_rel splits it"
                         if hi == lo else "every sample reaches the threshold; raise theta_rel")
    return Partition(labels, K=2)


def quantile_partition(idx, K):
    """K-class partition at the empirical ``j/K`` quantiles of the index.

    Ties on a boundary fall to the lower bin.

    Raises
    ------
    DegenerateIndex
        If the index has fewer than K distinct values.
    """
    if not isinstance(idx, IndexSeries):
        raise TypeError("quantile_partition expects an IndexSeries")
    K = as_int(K, "K")
    if K < 2:
        raise ValueError("K must be >= 2")
    ordered = np.sort(idx.values)
    if np.count_nonzero(ordered[1:] != ordered[:-1]) + 1 < K:
        raise DegenerateIndex(f"index has fewer than {K} distinct values")
    h = _halving(ordered[0], ordered[-1])
    cuts = np.quantile(h * ordered, np.arange(1, K) / K) / h
    return Partition(np.searchsorted(cuts, idx.values, side="left"), K=K)


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
    contiguous run of columns holding ``X[:, labels == i]`` in record order.
    Each run is centred in place on its mean ``m_i`` and gives
    ``C_i = X_i X_i^T / (|P_i| - 1)``, the bits ``sample_cov`` of the run
    gives, without a second record-sized array. The totals come from the
    scatter decomposition, with ``d_i = m_i - m_x``::

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
    # class i is the run of columns e - c : e, for its count c and cumulative count e
    Y = record.samples.take(np.argsort(part.labels, kind="stable"), axis=1)
    means = np.empty((part.K, n))
    covs = []
    for i, (c, e) in enumerate(zip(counts, np.cumsum(counts))):
        run = Y[:, e - c:e]
        means[i] = run.mean(axis=1)
        run -= means[i, :, None]
        covs.append(SymMatrix(run @ run.T / (c - 1)))
    total_mean = counts @ means / T
    d = means - total_mean
    scatter = sum((c - 1) * C.entries for c, C in zip(counts, covs)) + (counts * d.T) @ d
    return CovarianceSet(
        covs=tuple(covs),
        means=means,
        weights=counts / T,
        counts=counts.copy(),
        total=SymMatrix(scatter / (T - 1)),
        total_mean=total_mean,
    )
