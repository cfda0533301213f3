"""Dense complex linear algebra for the few-qubit registers of the workbench.

Plain numpy arrays are the working currency: kets are 1-D complex arrays,
operators are 2-D complex arrays. The eigensolver is a cyclic Jacobi
iteration specialised to Hermitian matrices; at these dimensions robustness
beats asymptotics and it keeps the numerical contract fully in-house.
Trace norms run the same sweep without accumulating eigenvectors.
All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Structural tolerance for Hermiticity / unitarity / normalisation checks.
STRUCT_TOL = 1e-10

_JACOBI_OFF_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100


class NonHermitianError(ValueError):
    """An operation requiring a Hermitian matrix received one that is not."""


class ConvergenceError(RuntimeError):
    """The Jacobi sweep cap was reached before the off-diagonal target."""


def as_vector(v) -> np.ndarray:
    """Coerce to a finite, nonempty 1-D complex array."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a nonempty 1-D vector, got shape {arr.shape}")
    _check_finite(arr)
    return arr


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite, nonempty 2-D complex array."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {arr.shape}")
    _check_finite(arr)
    return arr


def _check_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries (NaN or Inf)")


def norm(v) -> float:
    vv = as_vector(v)
    return float(np.sqrt((np.abs(vv) ** 2).sum()))


def hermitian_eigen(h, hermitian_tol: float = STRUCT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns (eigenvalues sorted descending, unitary matrix of column
    eigenvectors in matching order). Input deviating from Hermiticity by
    more than ``hermitian_tol`` (max absolute entry of h - h^dagger) is
    rejected with the measured deviation.
    """
    w, v = _jacobi(_hermitian_part(h, hermitian_tol), vectors=True)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix, Tr sqrt(M^dagger M).

    Runs the Jacobi sweep of :func:`hermitian_eigen` without accumulating
    eigenvectors; the eigenvalues, and so the sum, are bit-identical.
    """
    w, _ = _jacobi(_hermitian_part(m, STRUCT_TOL), vectors=False)
    return float(np.abs(w[np.argsort(-w, kind="stable")]).sum())


def _hermitian_part(h, hermitian_tol: float) -> np.ndarray:
    m = as_matrix(h)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    deviation = float(np.abs(m - m.conj().T).max())
    if deviation > hermitian_tol:
        raise NonHermitianError(
            f"Hermitian deviation {deviation:.3e} exceeds tolerance {hermitian_tol:.1e}"
        )
    return 0.5 * (m + m.conj().T)


def _jacobi(a: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Diagonalise the Hermitian matrix ``a`` in place by cyclic Jacobi
    rotations; returns (unsorted eigenvalues, the accumulated rotations as
    column eigenvectors, or None when ``vectors`` is false)."""
    n = a.shape[0]
    v = np.eye(n, dtype=complex) if vectors else None
    if n == 1:
        return np.array([a[0, 0].real]), v

    scale = max(1.0, float(np.sqrt((np.abs(a) ** 2).sum())))
    skip = 1e-18 * scale
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = float(np.sqrt((np.abs(a[off_mask]) ** 2).sum()))
        if off <= _JACOBI_OFF_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= skip:
                    continue
                phase = apq / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # a <- U^dagger a U with the rotation embedded at (p, q)
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * phase * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * np.conj(phase) * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                if v is not None:
                    vc_p, vc_q = v[:, p].copy(), v[:, q].copy()
                    v[:, p] = c * vc_p - s * np.conj(phase) * vc_q
                    v[:, q] = s * phase * vc_p + c * vc_q
    else:
        raise ConvergenceError(
            f"Jacobi iteration did not converge in {_JACOBI_MAX_SWEEPS} sweeps "
            f"(off-diagonal mass {off:.3e})"
        )
    return np.real(np.diag(a)).copy(), v


def cross_gram_is_zero(set1, set2, tol: float) -> tuple[bool, float]:
    """Whether every cross inner product between two vector sets vanishes.

    Returns (all magnitudes <= tol, maximum magnitude found).
    """
    v1 = [as_vector(u) for u in set1]
    v2 = [as_vector(u) for u in set2]
    if not v1 or not v2:
        raise ValueError("cross_gram_is_zero requires two nonempty sets")
    dim = v1[0].shape[0]
    for u in v1 + v2:
        if u.shape[0] != dim:
            raise ValueError("all vectors must share one dimension")
    worst = 0.0
    for u in v1:
        for w in v2:
            worst = max(worst, abs(np.vdot(u, w)))
    return worst <= tol, float(worst)


def orthonormal_completion(vectors: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Extend orthonormal columns to a full orthonormal basis of C^dim.

    Uses two-pass Gram-Schmidt against the standard basis; the given
    vectors occupy the leading columns of the returned dim x dim matrix.
    """
    basis = [as_vector(v) for v in vectors]
    for v in basis:
        if v.shape[0] != dim:
            raise ValueError("seed vectors must have the requested dimension")
    for i, u in enumerate(basis):
        if abs(norm(u) - 1.0) > STRUCT_TOL:
            raise ValueError(f"seed vector {i} is not normalised")
        for w in basis[:i]:
            if abs(np.vdot(w, u)) > STRUCT_TOL:
                raise ValueError("seed vectors must be mutually orthogonal")
    _gram_schmidt(basis, np.eye(dim, dtype=complex), dim, drop_below=1e-6)
    if len(basis) != dim:
        raise RuntimeError("failed to complete orthonormal basis")
    return np.column_stack(basis)


def orthonormal_span(vectors) -> np.ndarray:
    """Orthonormal columns spanning the given vectors (the rows of a 2-D
    array), by the two-pass Gram-Schmidt of :func:`orthonormal_completion`.

    A vector is dropped only when its residual against the columns before
    it is at round-off, at most 1e-12 of its length.
    """
    rows = as_matrix(vectors)
    return np.column_stack(_gram_schmidt([], rows, rows.shape[1], drop_below=1e-12))


def _gram_schmidt(basis: list, candidates, dim: int, drop_below: float) -> list:
    """Append to the orthonormal ``basis`` the normalised residual of each
    candidate longer than ``drop_below`` times the candidate, up to ``dim``
    vectors."""
    for cand in candidates:
        if len(basis) == dim:
            break
        length0 = norm(cand)
        for _ in range(2):  # two passes for numerical stability
            for w in basis:
                cand = cand - np.vdot(w, cand) * w
        length = norm(cand)
        if length > drop_below * length0:
            basis.append(cand / length)
    return basis
