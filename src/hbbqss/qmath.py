"""Dense complex linear algebra for the few-qubit registers of the workbench.

Plain numpy arrays are the working currency: kets are 1-D complex arrays,
operators are 2-D complex arrays. The eigensolver is a cyclic Jacobi
iteration specialised to Hermitian matrices; at these dimensions robustness
beats asymptotics and it keeps the numerical contract fully in-house.
There is one sweep, and it runs over a (k, n, n) stack of matrices at
once: each member is rotated with the operations it would get alone and
leaves the sweep when it converges, so a member's result is bit for bit its
result as a stack of one (a single matrix ``m`` is passed as ``m[None]``).
Trace norms run the same sweep without accumulating eigenvectors.
All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import numpy as np

#: Structural tolerance for Hermiticity / unitarity / normalisation checks,
#: including the norm required of states handed to measurement.
STRUCT_TOL = 1e-10

_JACOBI_OFF_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100
#: Magnitude of an off-diagonal entry, relative to its matrix's scale (the
#: Frobenius norm, at least 1), at or below which a Jacobi sweep skips the
#: rotation at that pivot: the entry is already negligible.
_JACOBI_SKIP = 1e-18

#: Residual length, relative to the vector's, at or below which the
#: Gram-Schmidt of orthonormal_span drops a vector as dependent: its
#: residual is at round-off of its own length.
_SPAN_DROP = 1e-12


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


def hermitian_eigen_stack(hs) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of every member of a (k, n, n) stack of Hermitian
    matrices by cyclic Jacobi rotations, in one sweep.

    Returns ((k, n) eigenvalues sorted descending, (k, n, n) unitary
    matrices of column eigenvectors in matching order). A member deviating
    from Hermiticity by more than ``STRUCT_TOL`` (max absolute entry of
    h - h^dagger) is rejected with the measured deviation.
    """
    w, v = _jacobi(_hermitian_stack(hs), vectors=True)
    order = np.argsort(-w, axis=1, kind="stable")
    return np.take_along_axis(w, order, axis=1), np.take_along_axis(v, order[:, None, :], axis=2)


def trace_norm_stack(ms) -> np.ndarray:
    """Trace norm Tr sqrt(M^dagger M), the sum of absolute eigenvalues, of
    every member of a (k, n, n) stack of Hermitian matrices.

    Runs the sweep of :func:`hermitian_eigen_stack` without accumulating
    eigenvectors; the eigenvalues, and so the sums, are bit-identical.
    """
    w, _ = _jacobi(_hermitian_stack(ms), vectors=False)
    return np.abs(np.take_along_axis(w, np.argsort(-w, axis=1, kind="stable"), axis=1)).sum(axis=1)


def _hermitian_stack(hs) -> np.ndarray:
    """The Hermitian parts of a finite (k, n, n) stack whose members all lie
    within ``STRUCT_TOL`` of Hermitian."""
    m = np.asarray(hs, dtype=complex)
    if m.ndim != 3 or m.size == 0:
        raise ValueError(f"expected a nonempty stack of matrices, got shape {m.shape}")
    if m.shape[1] != m.shape[2]:
        raise ValueError(f"expected square matrices, got {m.shape[1:]}")
    _check_finite(m)
    mh = m.conj().transpose(0, 2, 1)
    deviation = np.abs(m - mh).max(axis=(1, 2))
    worst = int(np.argmax(deviation))
    if deviation[worst] > STRUCT_TOL:
        where = f" (member {worst} of {len(m)})" if len(m) > 1 else ""
        raise NonHermitianError(
            f"Hermitian deviation {deviation[worst]:.3e} exceeds tolerance "
            f"{STRUCT_TOL:.1e}{where}"
        )
    return 0.5 * (m + mh)


def _off_mass(a: np.ndarray, off_mask: np.ndarray) -> np.ndarray:
    """Each member's off-diagonal Frobenius norm. The entries are copied to C
    order first, so each member sums one contiguous row, as a lone matrix does."""
    return np.sqrt((np.abs(np.ascontiguousarray(a[:, off_mask])) ** 2).sum(axis=1))


def _jacobi(a: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Diagonalise every member of the Hermitian stack ``a`` (k, n, n) in
    place by cyclic Jacobi rotations; returns ((k, n) unsorted eigenvalues,
    the accumulated rotations as (k, n, n) column eigenvectors, or None when
    ``vectors`` is false).

    Only the members still above the off-diagonal target are rotated, and
    each rotation is skipped for the members whose pivot is negligible, so
    every member goes through exactly the operations it would alone.
    """
    k, n, _ = a.shape
    vecs = np.tile(np.eye(n, dtype=complex), (k, 1, 1)) if vectors else None
    if n == 1:
        return a[:, :, 0].real.copy(), vecs

    w = np.empty((k, n))
    scale = np.maximum(1.0, np.sqrt((np.abs(a) ** 2).sum(axis=(1, 2))))
    off_mask = ~np.eye(n, dtype=bool)
    live = np.arange(k)  # stack positions of the members of a, v, scale
    v = vecs
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = _off_mass(a, off_mask)
        done = off <= _JACOBI_OFF_TOL * scale
        if done.any():
            w[live[done]] = np.diagonal(a[done], axis1=1, axis2=2).real
            if v is not None:
                vecs[live[done]] = v[done]
            keep = ~done
            if not keep.any():
                break
            a, live, scale, off = a[keep], live[keep], scale[keep], off[keep]
            v = v[keep] if v is not None else None
        skip = _JACOBI_SKIP * scale
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = np.hypot(a[:, p, q].real, a[:, p, q].imag)  # bit for bit abs(a[p, q])
                turn = r > skip
                if turn.all():
                    _rotate(a, v, p, q, r)
                elif turn.any():
                    b, vb = a[turn], v[turn] if v is not None else None
                    _rotate(b, vb, p, q, r[turn])
                    a[turn] = b
                    if v is not None:
                        v[turn] = vb
    else:
        raise ConvergenceError(
            f"Jacobi iteration did not converge in {_JACOBI_MAX_SWEEPS} sweeps "
            f"(off-diagonal mass {off.max():.3e})"
        )
    return w, vecs


def _rotate(a: np.ndarray, v: np.ndarray | None, p: int, q: int, r: np.ndarray) -> None:
    """One Jacobi rotation at (p, q) of every member of ``a`` (and of its
    eigenvector stack ``v``), where ``r`` holds each |a[p, q]|."""
    phase = a[:, p, q] / r
    tau = (a[:, q, q].real - a[:, p, p].real) / (2.0 * r)
    x = 1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    t = np.copysign(x, tau + 0.0)  # x where tau >= 0 (-0.0 included), else -x
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    s_phase, s_conj = s * phase, s * np.conj(phase)
    # Per member, new column p, q = col[0:2] * column p + col[2:4] * column q
    # and new row p, q = row[0:2] * row p + row[2:4] * row q.
    col = np.array([c, s_phase, -s_conj, c]).T[..., None]
    row = np.array([c, s_conj, -s_phase, c]).T[..., None]
    pq = slice(p, q + 1, q - p)  # indices p and q
    # a <- U^dagger a U with the rotation embedded at (p, q). Columns are
    # copied out as contiguous rows, so that every product is a scalar times
    # a contiguous row, the numpy loop a single matrix's update runs.
    old = np.ascontiguousarray(np.swapaxes(a[:, :, pq], 1, 2))
    a[:, :, pq] = np.swapaxes(col[:, 0:2] * old[:, :1] + col[:, 2:4] * old[:, 1:], 1, 2)
    old = a[:, pq, :]
    a[:, pq, :] = row[:, 0:2] * old[:, :1] + row[:, 2:4] * old[:, 1:]
    a[:, p, q] = 0.0
    a[:, q, p] = 0.0
    a.imag[:, p, p] = 0.0
    a.imag[:, q, q] = 0.0
    if v is not None:
        old = np.ascontiguousarray(np.swapaxes(v[:, :, pq], 1, 2))
        v[:, :, pq] = np.swapaxes(col[:, 0:2] * old[:, :1] + col[:, 2:4] * old[:, 1:], 1, 2)


def cross_overlaps(set1, set2) -> np.ndarray:
    """Magnitudes |<u|w>| of the cross inner products between two vector
    sets, the rows of two stacks: (..., m, n) against (..., p, n) gives
    (..., m, p), every member of the leading axes in one product."""
    v1, v2 = np.asarray(set1, dtype=complex), np.asarray(set2, dtype=complex)
    if min(v1.ndim, v2.ndim) < 2 or not (v1.size and v2.size) or v1.shape[-1] != v2.shape[-1]:
        raise ValueError(f"expected nonempty stacks of vectors of one dimension, got "
                         f"shapes {v1.shape} and {v2.shape}")
    _check_finite(v1)
    _check_finite(v2)
    return np.abs(v1.conj() @ np.swapaxes(v2, -1, -2))


def _check_orthonormal(rows: np.ndarray) -> None:
    """Reject seed rows that are not unit vectors or not mutually
    orthogonal, each within STRUCT_TOL."""
    for i, u in enumerate(rows):
        if abs(norm(u) - 1.0) > STRUCT_TOL:
            raise ValueError(f"seed vector {i} is not normalised")
        for w in rows[:i]:
            if abs(np.vdot(w, u)) > STRUCT_TOL:
                raise ValueError("seed vectors must be mutually orthogonal")


def orthonormal_span(vectors) -> np.ndarray:
    """Orthonormal columns spanning the given vectors (the rows of a 2-D
    array), by two-pass Gram-Schmidt over the rows in order: each row's
    residual against the columns before it, projected out twice for
    numerical stability, is normalised into the next column.

    A vector is dropped only when its residual is at round-off, at most
    _SPAN_DROP of its length; at most as many columns as the vectors'
    dimension are kept.
    """
    rows = as_matrix(vectors)
    basis: list[np.ndarray] = []
    for cand in rows:
        if len(basis) == rows.shape[1]:
            break
        length0 = norm(cand)
        for _ in range(2):
            for w in basis:
                cand = cand - np.vdot(w, cand) * w
        length = norm(cand)
        if length > _SPAN_DROP * length0:
            basis.append(cand / length)
    return np.column_stack(basis)
