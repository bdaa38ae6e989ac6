"""Separation engines: class-covariance diagonalization and component mapping.

Two-class separation solves one generalized eigenvalue problem (the event
class against the whole record); multi-class separation jointly diagonalizes
all class covariances. Both return demixers normalized against the total
covariance, so extracted sources are scale-free. ``eigenratio_map`` assigns
each class the component where its spectrum dominates the other classes, and
``two_round_targeted`` chains a blind second-order pass with a targeted
two-class refinement of one component.
"""

from dataclasses import dataclass

import numpy as np

from .detectors import energy_envelope
from .errors import BadClass, BadComponent, ShapeMismatch
from .linalg import SymMatrix, ajd, as_weights, gevd, sample_cov, sym_eig
from .partition import Partition, class_covariances, threshold_mask
from .records import Record, as_int, as_record

__all__ = [
    "SeparationResult",
    "ClassComponentMap",
    "nsca_two_class",
    "nsca_multi_class",
    "eigenratio_map",
    "two_round_targeted",
    "apply_separation",
]

RATIO_FLOOR = 1e-12
_LAG_BLOCK = 8192  # see _lagged_covariances


@dataclass
class SeparationResult:
    """Demixer with per-class spectra, extracted sources and diagnostics.

    ``demixer`` columns are components; ``sources.samples[i] = W[:, i].T @ x``.
    ``spectra[i]`` is the diagonal of ``W.T @ C_i @ W`` for class ``i``.
    ``order`` declares the eigenvalue sort ("descending" for the two-class
    engine, "none" for joint diagonalization).
    """

    demixer: np.ndarray
    spectra: np.ndarray
    order: str
    sources: Record
    diagnostics: dict


@dataclass(frozen=True)
class ClassComponentMap:
    """Eigenvalue-ratio vectors per class and the dominant component of each."""

    ratios: np.ndarray  # (K, n)
    best_component: np.ndarray  # (K,)
    one_to_one: bool


def apply_separation(W, record):
    """Project a record through a demixer: channel ``i`` is ``W[:, i]^T x_k``."""
    W = np.asarray(W, dtype=np.float64)
    record = as_record(record)
    n = record.channels
    if W.shape != (n, n):
        raise ShapeMismatch(f"demixer must be ({n}, {n}), got {W.shape}")
    sources = W.T @ record.samples
    names = [f"y{i + 1}" for i in range(n)]
    return Record._wrap(sources, record.sample_rate_hz, names)


def _result(record, covset, W, order, **diagnostics):
    """SeparationResult of ``W``; diagnostics gain the whitening error, class counts and weights."""
    covs = np.stack([C.entries for C in covset.covs])
    diagnostics.update(
        whitening_error=float(np.abs(W.T @ covset.total.entries @ W - np.eye(W.shape[1])).max()),
        class_counts=covset.counts,
        weights=covset.weights,
    )
    return SeparationResult(
        demixer=W,
        spectra=np.diagonal(W.T @ covs @ W, axis1=1, axis2=2).copy(),
        order=order,
        sources=apply_separation(W, record),
        diagnostics=diagnostics,
    )


def _condition_number(mat):
    vals = sym_eig(mat).values
    lo = vals[0]
    return float(vals[-1] / lo) if lo > 0 else float("inf")


def nsca_two_class(record, mask, reg_eps=0.0):
    """Two-class separation: GEVD of the event-class covariance against the total.

    With mask classes {0: background, 1: event}, solves
    ``C_1 w = lambda C_x w`` with eigenvalues descending, so the first
    column maximizes the Rayleigh quotient ``w^T C_1 w / w^T C_x w`` --
    the component with maximal relative energy inside the event samples.
    (Ascending order on ``C_0`` would give the same columns; see the
    direction-equivalence property in the tests.)

    Parameters
    ----------
    record : Record
    mask : Partition
        Exactly two classes, each with at least ``n + 1`` samples.
    reg_eps : float
        Relative ridge applied to ``C_x`` if it is near singular.

    Returns
    -------
    SeparationResult
        ``order = "descending"``; ``W.T @ C_x @ W = I``.
    """
    if not isinstance(mask, Partition):
        raise TypeError("nsca_two_class expects a Partition mask")
    if mask.K != 2:
        raise BadClass(f"two-class separation needs K=2, got K={mask.K}")
    covset = class_covariances(record, mask)
    pair = gevd(covset.covs[1], covset.total, order="descending", reg_eps=reg_eps)
    return _result(record, covset, pair.vectors, "descending", eigenvalues=pair.values,
                   total_condition=_condition_number(covset.total))


def nsca_multi_class(record, part, reg_eps=0.0):
    """Multi-class separation: joint diagonalization of all class covariances.

    The set ``{C_1 .. C_K}`` is weighted by class cardinality (``|P_i| / T``)
    and hard-whitened by the total covariance, so ``W^T C_x W = I``.

    Returns
    -------
    SeparationResult
        ``order = "none"``: joint diagonalization has no eigenvalue sort,
        and the order of the demixer's columns is not specified.
        Diagnostics carry the weighted off-diagonal residual.
    """
    if not isinstance(part, Partition):
        raise TypeError("nsca_multi_class expects a Partition")
    covset = class_covariances(record, part)
    W, residual = ajd(covset.covs, weights=covset.weights, whitener=covset.total, reg_eps=reg_eps)
    return _result(record, covset, W, "none", ajd_residual=residual)


def eigenratio_map(spectra, weights):
    """Dominance ratios of class spectra and the best component per class.

    For class ``j`` with per-component spectrum ``L_j``, the ratio vector is
    ``d_j = L_j / sum_{i != j} w_i L_i`` elementwise, denominators floored at
    1e-12. ``best_component[j]`` is the argmax of ``d_j`` (ties to the lowest
    index); ``one_to_one`` says whether classes claim distinct components.
    Weights must be finite, nonnegative, not all zero and not bools, and
    neither spectra nor weights may be complex (ValueError).
    """
    if np.iscomplexobj(spectra):
        raise ValueError("spectra must be real, not complex")
    S = np.asarray(spectra, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] == 0:
        raise ShapeMismatch("spectra must be (K, n) with K >= 1")
    K = S.shape[0]
    w = as_weights(weights, K, "eigenratio_map")
    # row j of terms holds w_i S_i, with 0 in place of class j; accumulating
    # along the rows sums the other classes left to right
    terms = np.where(np.eye(K, dtype=bool)[:, :, None], 0.0, w[:, None] * S)
    ratios = S / np.maximum(np.add.accumulate(terms, axis=1)[:, -1], RATIO_FLOOR)
    best = np.argmax(ratios, axis=1)
    return ClassComponentMap(
        ratios=ratios,
        best_component=best,
        one_to_one=bool(np.unique(best).size == K),
    )


def _lagged_covariances(X, lags):
    """Lagged covariances of the centred rows ``X``, symmetrized by ``SymMatrix``.

    Each product is summed over blocks of ``_LAG_BLOCK`` columns. An (n x K) @
    (K x n) product costs 3.3 us per 1000 columns at n=8 while n^2 K < 1e6 and
    7.6 us above (OpenBLAS 0.3.31, 1 or 2 threads, 2-core Xeon); 8192 columns
    stay below that step for n <= 11 and cost no more than one product at n >= 12.
    For T <= 8192 the bits are one product's; longer records differ in summation order.
    """
    n, T = X.shape
    sums = np.zeros((len(lags), n, n))
    for a in range(0, T, _LAG_BLOCK):
        for S, tau in zip(sums, lags):
            m = min(a + _LAG_BLOCK, T - tau) - a
            if m > 0:
                S += X[:, a:a + m] @ X[:, a + tau:a + tau + m].T
    return [SymMatrix(S / (T - tau - 1)) for S, tau in zip(sums, lags)]


def two_round_targeted(record, lags, target_component, reg_eps=0.0, round2_theta=0.5):
    """Blind second-order separation refined by a targeted two-class round.

    Round 1 jointly diagonalizes the symmetrized lagged covariances
    ``{(C(tau) + C(tau)^T) / 2}`` whitened by the total covariance -- a
    second-order blind pass that separates sources with distinct spectra.
    Round 2 treats the chosen round-1 component as a trigger: samples where
    its energy envelope reaches ``round2_theta`` of the way from its floor
    to its peak (:func:`~nsca.partition.threshold_mask`) become the event
    class, and a two-class separation on the *original* record sharpens the
    component. Useful when one round-1 component is only roughly the target.
    The order of the round-1 components is not specified, so which component
    ``target_component`` names is known only from ``round1_demixer`` after
    the fact.

    Returns
    -------
    SeparationResult
        The round-2 result; diagnostics gain ``round1_demixer``,
        ``round1_residual`` and the round-2 mask counts.
    """
    record = as_record(record)
    lags = [as_int(t, "lag") for t in lags]
    if len(lags) == 0:
        raise ValueError("lags must be nonempty")
    if any(t < 1 for t in lags):
        raise ValueError("lags must be >= 1")
    if max(lags) >= record.length - 2:
        raise ValueError("max lag leaves no samples to correlate")
    n = record.channels
    target = as_int(target_component, "target_component")
    if not 0 <= target < n:
        raise BadComponent(f"component {target} outside [0, {n})")
    total, _, X = sample_cov(record.samples)
    mats = _lagged_covariances(X, lags)
    del X  # the centred copy is record-sized and round 2 does not read it
    W1, residual1 = ajd(mats, whitener=total, reg_eps=reg_eps)
    env = energy_envelope(W1[:, target] @ record.samples)
    mask = threshold_mask(env, round2_theta)
    result = nsca_two_class(record, mask, reg_eps=reg_eps)
    result.diagnostics.update(
        round1_demixer=W1,
        round1_residual=residual1,
        round2_mask_counts=mask.class_counts,
        lags=lags,
        target_component=target,
    )
    return result
