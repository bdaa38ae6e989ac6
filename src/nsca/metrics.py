"""Evaluation against ground truth: source correlations, mask scores, AUC."""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTruth, ShapeMismatch
from .partition import Partition
from .records import IndexSeries, as_record
from .synthetic import GroundTruth

__all__ = ["EvalReport", "eval_separation", "eval_mask", "eval_index_auc"]


@dataclass
class EvalReport:
    """Correlation matrix and greedy assignment of estimated to true sources.

    ``matched[j]`` is the |correlation| the greedy assignment gave true
    source ``j``; ``pairs`` lists (estimated, true, |corr|) in pick order.
    """

    correlations: np.ndarray  # (n_est, n_true), absolute values
    pairs: list  # of (est_index, true_index, corr)
    matched: np.ndarray  # (n_true,)


def _abs_corr_matrix(A, B):
    """|Pearson correlation| between rows of A and rows of B."""
    Ac = A - A.mean(axis=1, keepdims=True)
    Bc = B - B.mean(axis=1, keepdims=True)
    na = np.linalg.norm(Ac, axis=1)
    nb = np.linalg.norm(Bc, axis=1)
    na = np.where(na > 0, na, 1.0)
    nb = np.where(nb > 0, nb, 1.0)
    C = np.abs((Ac / na[:, None]) @ (Bc / nb[:, None]).T)
    return np.clip(C, 0.0, 1.0)


def eval_separation(est, truth):
    """Score estimated sources against ground truth.

    Builds the |Pearson correlation| matrix between estimated and true
    sources and assigns greedily: repeatedly take the largest remaining
    entry (ties to the lowest flat index), retiring its row and column.

    Parameters
    ----------
    est : Record
        Estimated sources.
    truth : GroundTruth or Record
        True sources.

    Raises
    ------
    ShapeMismatch
        On differing channel counts or lengths.
    """
    true_rec = truth.sources if isinstance(truth, GroundTruth) else truth
    est = as_record(est)
    if est.channels != true_rec.channels or est.length != true_rec.length:
        raise ShapeMismatch(
            f"estimated ({est.channels} x {est.length}) vs true "
            f"({true_rec.channels} x {true_rec.length})"
        )
    C = _abs_corr_matrix(est.samples, true_rec.samples)
    n = C.shape[0]
    work = C.copy()
    pairs = []
    matched = np.zeros(n)
    for _ in range(n):
        flat = int(np.argmax(work))
        i, j = divmod(flat, n)
        pairs.append((i, j, float(C[i, j])))
        matched[j] = C[i, j]
        work[i, :] = -1.0
        work[:, j] = -1.0
    return EvalReport(correlations=C, pairs=pairs, matched=matched)


def eval_mask(est, truth):
    """Precision, recall and F1 of an estimated mask, label 1 positive.

    Zero denominators (no predicted or no true positives) yield 0 by
    convention.
    """
    if not isinstance(est, Partition) or not isinstance(truth, Partition):
        raise TypeError("eval_mask expects Partitions")
    if est.length != truth.length:
        raise ShapeMismatch("mask lengths differ")
    e = est.labels == 1
    t = truth.labels == 1
    tp = int(np.sum(e & t))
    fp = int(np.sum(e & ~t))
    fn = int(np.sum(~e & t))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def eval_index_auc(idx, truth):
    """Mann-Whitney AUC of an index against true binary labels, ties at 1/2.

    Only samples past the detector's warm-up (``k >= valid_from``) are
    scored; both labels must appear there.

    Raises
    ------
    DegenerateTruth
        If the scored range has only one label.
    """
    if not isinstance(idx, IndexSeries):
        raise TypeError("eval_index_auc expects an IndexSeries")
    if not isinstance(truth, Partition):
        raise TypeError("eval_index_auc expects a Partition truth")
    if idx.length != truth.length:
        raise ShapeMismatch("index and truth lengths differ")
    values = idx.valid_values()
    labels = truth.labels[idx.valid_from:] == 1
    n1 = int(labels.sum())
    n0 = labels.size - n1
    if n1 == 0 or n0 == 0:
        raise DegenerateTruth("need both labels within the index's valid range")
    # each positive wins over the negatives below it and half of those it ties
    pos, neg = values[labels], np.sort(values[~labels])
    twice_wins = np.searchsorted(neg, pos, "left") + np.searchsorted(neg, pos, "right")
    return float(twice_wins.sum() / 2 / (n1 * n0))
