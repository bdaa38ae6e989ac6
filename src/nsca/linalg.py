"""Symmetric dense linear algebra for small covariance matrices.

The symmetric eigendecomposition is LAPACK's, through ``numpy.linalg.eigh``.
Cholesky, the triangular solves and the joint diagonalizer run on the
package's own numpy kernels (``_kernels``) so that their failure behaviour is
fully specified: Cholesky reports the failing pivot, the joint diagonalizer
reports its sweep budget, and every tolerance is explicit. A sweep of the
joint diagonalizer rotates every pair of components once, in row-cyclic
order; the pairs (p, q) with the same p + q are disjoint, so their rotations
commute and are applied together as one orthogonal product; a sweep's first
waves share their products with the last waves of the sweep before, n per sweep.
Matrices in this package are covariance-sized (a few dozen rows at most).
The package loads no scipy: scipy's LAPACK brings its own OpenBLAS, whose
thread pool beside numpy's doubled the separation-only benchmark's time per
pass (``perfbench`` ``sep_wide``, n=8, 2-core Xeon). Nor does numpy's own
LAPACK pay off at these sizes. On the same host ``numpy.linalg.cholesky``
takes 7 us against the hand loop's 35 us at n=5 (59 us at n=8), but it
reports no failing pivot; numpy has no triangular solve, and
``numpy.linalg.solve`` (a general LU) takes 17 ms on 1e5 right-hand sides
against the row loop's 2.2 ms at n=5.

The package's sample covariance (``sample_cov``), ridged whitening factor and
``L^{-1} C L^{-T}`` congruence each have their one implementation here; the
congruence whitens a whole set with one pair of triangular solves.
``partition.class_covariances`` centres each class of a label-sorted copy in
place with ``sample_cov``'s arithmetic and builds the total from those results.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NoConvergence, NotPositiveDefinite, ShapeMismatch
from .records import as_int

__all__ = [
    "SymMatrix",
    "EigPair",
    "cholesky",
    "sym_eig",
    "gevd",
    "ajd",
    "off_diag_residual",
    "amari_index",
    "AJD_MAX_SWEEPS",
    "AJD_ANGLE_TOL",
]

AJD_MAX_SWEEPS = 200
AJD_ANGLE_TOL = 1e-10
CHOLESKY_PIVOT_TOL = 1e-12  # relative to trace/n


def as_weights(weights, K, who):
    """``weights`` as a (K,) float array; ValueError unless they are finite,
    nonnegative and not all zero, bools and complex values excluded."""
    if np.iscomplexobj(weights):
        raise ValueError(f"{who}: weights must be real, not complex")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (K,):
        raise ShapeMismatch(f"{who}: expected {K} weights, got shape {w.shape}")
    if (not (np.isfinite(w).all() and (w >= 0).all() and (w > 0).any())
            or any(isinstance(v, (bool, np.bool_)) for v in weights)):
        raise ValueError(f"{who}: weights must be finite, nonnegative, not all zero and not bools")
    return w


class SymMatrix:
    """A real symmetric matrix; construction symmetrizes its input.

    The stored array is read-only and exactly symmetric, so downstream
    solvers never have to re-check. Use ``.entries`` for the raw ndarray.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        if np.iscomplexobj(entries):
            raise ValueError("SymMatrix entries must be real, not complex")
        a = np.asarray(entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ShapeMismatch("SymMatrix requires a square 2-D array")
        if not np.isfinite(a).all():
            raise ValueError("SymMatrix entries must be finite")
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        self.entries = a

    @property
    def dim(self):
        return self.entries.shape[0]

    def __repr__(self):
        return f"SymMatrix(dim={self.dim})"


def as_sym(mat):
    """Coerce an ndarray (or SymMatrix) to SymMatrix."""
    return mat if isinstance(mat, SymMatrix) else SymMatrix(mat)


def sample_cov(X):
    """Unbiased covariance (a SymMatrix), means and centred copy of the rows of ``X``."""
    mean = X.mean(axis=1)
    centred = X - mean[:, None]
    return SymMatrix(centred @ centred.T / (X.shape[1] - 1)), mean, centred


@dataclass(frozen=True)
class EigPair:
    """Eigenvalues with matched eigenvector columns and their sort order.

    From :func:`sym_eig`, each column is a unit vector whose largest-magnitude
    entry (the first, on ties) is positive; the columns of a repeated
    eigenvalue are some orthonormal basis of its eigenspace.
    """

    values: np.ndarray
    vectors: np.ndarray
    order: str  # "ascending" or "descending"


def cholesky(mat):
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix.

    Parameters
    ----------
    mat : SymMatrix or array_like
        The matrix to factor.

    Returns
    -------
    ndarray
        Lower-triangular ``L`` with ``L @ L.T`` equal to the input.

    Raises
    ------
    NotPositiveDefinite
        If any pivot falls at or below ``1e-12 * trace / n``. The failing
        column index is reported on the exception.
    """
    S = as_sym(mat).entries
    n = S.shape[0]
    tol = CHOLESKY_PIVOT_TOL * np.trace(S) / n
    L, fail = _kernels.cholesky(S, tol)
    if fail >= 0:
        raise NotPositiveDefinite(
            f"Cholesky pivot {fail} at or below tolerance {tol:.3e}", pivot=fail
        )
    return L


def sym_eig(mat):
    """Full eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Parameters
    ----------
    mat : SymMatrix or array_like

    Returns
    -------
    EigPair
        Eigenvalues ascending; eigenvector columns orthonormal, matched to
        values, each with its largest-magnitude entry positive (LAPACK leaves
        the sign to the build).

    Raises
    ------
    NoConvergence
        If LAPACK reports that its eigenvalue iteration failed.
    """
    vals, vecs, _, converged = _kernels.jacobi_eig(as_sym(mat).entries)
    if not converged:
        raise NoConvergence("symmetric eigensolver: LAPACK eigh did not converge")
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return EigPair(values=vals, vectors=vecs * np.sign(peak), order="ascending")


def _whitening_factor(B, reg_eps):
    """Cholesky factor of ``B`` after an optional relative ridge; failures keep their pivot."""
    Bm = as_sym(B).entries
    if isinstance(reg_eps, (bool, np.bool_)) or not 0 <= reg_eps < np.inf:
        raise ValueError("reg_eps must be finite and nonnegative")
    if reg_eps > 0:
        n = Bm.shape[0]
        ridge = float(reg_eps) * float(np.trace(Bm)) / n  # Python floats overflow to inf silently
        if not np.isfinite(ridge):
            raise ValueError(f"reg_eps {reg_eps:g} makes the ridge overflow")
        Bm = Bm + ridge * np.eye(n)
    try:
        return cholesky(Bm)
    except NotPositiveDefinite as err:
        raise NotPositiveDefinite(
            f"{err}; the whitener is degenerate, pass reg_eps > 0 to regularize",
            pivot=err.pivot,
        ) from err


def _congruence(L, C):
    """``L^{-1} C_k L^{-T}`` of a (K, n, n) symmetric stack, one (n, Kn) block per solve."""
    K, n = C.shape[:2]
    X = _kernels.solve_lower(L, C.transpose(1, 0, 2).reshape(n, -1)).reshape(n, K, n)
    Xt = np.ascontiguousarray(X.transpose(2, 1, 0)).reshape(n, -1)
    Y = _kernels.solve_lower(L, Xt).reshape(n, K, n)
    return 0.5 * (Y.transpose(1, 0, 2) + Y.transpose(1, 2, 0))


def gevd(A, B, order="ascending", reg_eps=0.0):
    """Generalized eigendecomposition of the symmetric pair ``(A, B)``.

    Solves ``A w = lambda B w`` for symmetric ``A`` and symmetric positive
    definite ``B`` by reduction to an ordinary symmetric problem: with
    ``B = L L^T`` and ``M = L^{-1} A L^{-T}``, the eigenvectors of ``M``
    map back through ``W = L^{-T} U``.

    Parameters
    ----------
    A, B : SymMatrix or array_like
        Same dimension; ``B`` must be positive definite (after the optional
        ridge ``reg_eps * trace(B)/n * I``).
    order : {"ascending", "descending"}
        Eigenvalue sort order of the returned pair.
    reg_eps : float
        Finite, nonnegative relative ridge added to ``B`` before factoring;
        0 disables it. A ridge that overflows raises ``ValueError``.

    Returns
    -------
    EigPair
        ``values`` sorted as requested; ``vectors`` columns satisfy
        ``W.T @ B @ W = I`` and ``W.T @ A @ W = diag(values)``.

    Raises
    ------
    ShapeMismatch
        If the two matrices differ in dimension.
    NotPositiveDefinite
        If ``B`` fails its Cholesky factorization.
    NoConvergence
        Propagated from the inner eigensolver.
    """
    Am = as_sym(A).entries
    Bm = as_sym(B)
    if Am.shape[0] != Bm.dim:
        raise ShapeMismatch("gevd: A and B must share a dimension")
    if order not in ("ascending", "descending"):
        raise ValueError("order must be 'ascending' or 'descending'")
    L = _whitening_factor(Bm, reg_eps)
    pair = sym_eig(_congruence(L, Am[None])[0])
    W = _kernels.solve_lower_t(L, pair.vectors)
    vals = pair.values
    if order == "descending":
        vals = vals[::-1].copy()
        W = W[:, ::-1].copy()
    return EigPair(values=vals, vectors=W, order=order)


def ajd(mats, weights=None, whitener=None, reg_eps=0.0, max_sweeps=AJD_MAX_SWEEPS):
    """Weighted approximate joint diagonalization of symmetric matrices.

    The set is congruence-whitened by the designated whitener (``B = L L^T``,
    ``M_i = L^{-1} C_i L^{-T}``), then jointly diagonalized by Jacobi-style
    Givens rotations whose angles maximize the weighted sum of squared
    diagonal gains. Each sweep rotates every pair of components once, in
    row-cyclic order, as waves of disjoint pairs (those with the same p + q)
    in n orthogonal products per sweep: a sweep's first waves run beside the
    last waves of the sweep before, once that sweep cannot be the last. The result
    ``W = L^{-T} Q`` satisfies ``W.T @ whitener @ W = I`` exactly up to
    rounding. The order of its columns is not specified: it follows from the
    pair order, and a different order finds the same components in another
    order.

    Parameters
    ----------
    mats : sequence of SymMatrix or array_like
        Matrices to diagonalize jointly; at least one.
    weights : sequence of float, optional
        Finite, nonnegative weight per matrix (not a bool), not all zero;
        uniform if omitted. Other weights raise ``ValueError``. A common
        positive factor on the weights leaves ``W`` as it is, up to rounding.
    whitener : SymMatrix or array_like, optional
        Positive definite matrix defining the metric. Defaults to the
        unweighted mean of ``mats``.
    reg_eps : float
        Finite, nonnegative relative ridge added to the whitener before
        factoring. A ridge that overflows raises ``ValueError``.
    max_sweeps : int
        Rotation sweep budget, at least 1; other values raise ``ValueError``.

    Returns
    -------
    (ndarray, float)
        The demixer ``W`` (columns are components, in no specified order)
        and the weighted squared off-diagonal residual of the transformed set.

    Raises
    ------
    NoConvergence
        If the largest rotation angle has not dropped below 1e-10 within the
        sweep budget, or an angle is not finite.
    """
    max_sweeps = as_int(max_sweeps, "max_sweeps")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    stack = [as_sym(m).entries for m in mats]
    if len(stack) == 0:
        raise ValueError("ajd needs at least one matrix")
    n = stack[0].shape[0]
    if any(m.shape[0] != n for m in stack):
        raise ShapeMismatch("ajd: matrices must share a dimension")
    K = len(stack)
    if weights is None:
        w = np.ones(K)
    else:
        w = as_weights(weights, K, "ajd")
    if whitener is None:
        whitener = SymMatrix(sum(stack) / K)
    L = _whitening_factor(whitener, reg_eps)
    M = _congruence(L, np.stack(stack))
    # the angles do not change under a common factor on w; a power of two
    # scales every sum exactly and keeps the squares of the sums in range
    w_unit = np.ldexp(w, -np.frexp(w.max())[1])
    Q, sweeps, converged = _kernels.ajd_rotate(M, w_unit, max_sweeps, AJD_ANGLE_TOL)
    if not converged:
        raise NoConvergence("joint diagonalization: " + (
            f"rotation angles above tolerance after {sweeps} sweeps" if np.isfinite(Q).all()
            else "the rotation angles are not finite; the whitened set is too large to "
                 "square in float64"))
    W = _kernels.solve_lower_t(L, Q)
    residual = off_diag_residual(W, mats, weights=w)
    return W, residual


def off_diag_residual(W, mats, weights=None):
    """Weighted squared off-diagonal mass of ``W.T @ C_i @ W`` over a set.

    Parameters
    ----------
    W : ndarray
        Candidate demixer, columns are components.
    mats : sequence of SymMatrix or array_like
    weights : sequence of float, optional
        Uniform if omitted; otherwise one per matrix, finite, nonnegative,
        not all zero and not bools (ValueError).

    Returns
    -------
    float
        ``sum_i w_i * sum_{p != q} (W.T C_i W)[p, q]^2``.
    """
    stack = np.stack([as_sym(m).entries for m in mats])
    K = len(stack)
    w = np.ones(K) if weights is None else as_weights(weights, K, "off_diag_residual")
    D = W.T @ stack @ W
    diag = np.arange(D.shape[1])
    D[:, diag, diag] = 0.0
    # np.add.accumulate adds left to right; np.sum regroups 8 or more terms
    return float(np.add.accumulate(w * np.sum(D * D, axis=(1, 2)))[-1])


def amari_index(G):
    """Normalized distance of a square matrix from a scaled permutation.

    Zero exactly when ``G`` has one nonzero entry per row and per column;
    grows toward 1 as rows and columns blend. Standard figure of merit for
    a demixer composed with the mixer it is supposed to invert.
    """
    G = np.asarray(G, dtype=np.float64)
    n = G.shape[0]
    if G.shape != (n, n):
        raise ShapeMismatch("amari_index needs a square matrix")
    if n < 2:
        return 0.0
    A = np.abs(G)
    rmax = A.max(axis=1, keepdims=True)
    cmax = A.max(axis=0, keepdims=True)
    rmax = np.where(rmax > 0, rmax, 1.0)
    cmax = np.where(cmax > 0, cmax, 1.0)
    rows = (A / rmax).sum(axis=1) - 1.0
    cols = (A / cmax).sum(axis=0) - 1.0
    return float((rows.sum() + cols.sum()) / (2.0 * n * (n - 1)))
