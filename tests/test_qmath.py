import math

import numpy as np
import pytest

from hbbqss import qmath

R = 1.0 / math.sqrt(2.0)
KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
XPLUS = np.array([R, R])


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def random_unitary(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# hermitian_eigen


def test_eigen_pauli_z():
    w, _ = qmath.hermitian_eigen(np.diag([1.0, -1.0]))
    assert np.allclose(w, [1.0, -1.0])


def test_eigen_pauli_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    w, v = qmath.hermitian_eigen(x)
    assert np.allclose(w, [1.0, -1.0])
    # eigenvectors match |x+->, |x--> up to phase
    assert abs(abs(np.vdot(v[:, 0], [R, R])) - 1.0) <= 1e-9
    assert abs(abs(np.vdot(v[:, 1], [R, -R])) - 1.0) <= 1e-9


def test_eigen_reconstruction_random(rng):
    for n in (2, 3, 4, 8, 16):
        h = random_hermitian(rng, n)
        w, v = qmath.hermitian_eigen(h)
        assert np.all(np.diff(w) <= 1e-12)  # sorted descending
        recon = v @ np.diag(w) @ v.conj().T
        assert np.abs(recon - h).max() <= 1e-9
        assert np.abs(v @ v.conj().T - np.eye(n)).max() <= 1e-9
        # independent oracle
        assert np.abs(np.sort(w) - np.linalg.eigvalsh(h)).max() <= 1e-9


def test_eigen_eigenvalue_sum_equals_trace(rng):
    for _ in range(20):
        n = int(rng.integers(2, 17))
        h = random_hermitian(rng, n)
        w, _ = qmath.hermitian_eigen(h)
        assert abs(w.sum() - np.trace(h).real) <= 1e-9


def test_eigen_degenerate_spectrum():
    # four-fold structure with doubled eigenvalues
    d = np.diag([0.3, 0.3, -0.3, -0.3]).astype(complex)
    u = random_unitary(np.random.default_rng(3), 4)
    w, v = qmath.hermitian_eigen(u @ d @ u.conj().T)
    assert np.allclose(w, [0.3, 0.3, -0.3, -0.3], atol=1e-10)
    assert np.abs(v @ v.conj().T - np.eye(4)).max() <= 1e-9


def test_eigen_rejects_nonhermitian():
    with pytest.raises(qmath.NonHermitianError, match="deviation"):
        qmath.hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigen_rejects_nonsquare():
    with pytest.raises(ValueError):
        qmath.hermitian_eigen(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# trace_norm


def test_trace_norm_diagonal():
    assert qmath.trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-12)


def test_trace_norm_zero():
    assert qmath.trace_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_projector_difference():
    # half the difference of |x+><x+| and |0><0| has eigenvalues +-1/(2 sqrt 2)
    m = 0.5 * (np.outer(XPLUS, XPLUS) - np.outer(KET0, KET0))
    assert qmath.trace_norm(m) == pytest.approx(0.7071067811865475, abs=1e-12)


def test_trace_norm_unitary_invariance(rng):
    for n in (2, 4, 8):
        h = random_hermitian(rng, n)
        u = random_unitary(rng, n)
        base = qmath.trace_norm(h)
        rotated = qmath.trace_norm(u @ h @ u.conj().T)
        assert abs(base - rotated) <= 1e-8 * max(1.0, base)


def test_trace_norm_is_the_sorted_eigenvalue_sum_bit_for_bit(rng):
    # the eigenvector-free sweep makes the same rotations as hermitian_eigen
    for n in range(1, 9):
        for _ in range(3):
            h = random_hermitian(rng, n)
            assert qmath.trace_norm(h) == float(np.abs(qmath.hermitian_eigen(h)[0]).sum())


def test_trace_norm_rejects_nonhermitian():
    with pytest.raises(qmath.NonHermitianError, match="deviation"):
        qmath.trace_norm(np.array([[0, 1], [0, 0]], dtype=complex))


# ---------------------------------------------------------------------------
# cross_gram_is_zero


def test_cross_gram_orthogonal_sets():
    ok, worst = qmath.cross_gram_is_zero([KET0], [KET1], tol=1e-12)
    assert ok and worst == 0.0


def test_cross_gram_overlapping_sets():
    ok, worst = qmath.cross_gram_is_zero([KET0], [XPLUS], tol=1e-12)
    assert not ok
    assert worst == pytest.approx(R, abs=1e-12)


def test_cross_gram_rejects_empty():
    with pytest.raises(ValueError):
        qmath.cross_gram_is_zero([], [KET0], tol=1e-9)


def test_cross_gram_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        qmath.cross_gram_is_zero([KET0], [np.ones(3)], tol=1e-9)


# ---------------------------------------------------------------------------
# orthonormal_completion


def test_orthonormal_completion(rng):
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    v /= np.linalg.norm(v)
    basis = qmath.orthonormal_completion([v], 6)
    assert np.abs(basis @ basis.conj().T - np.eye(6)).max() <= 1e-10
    assert np.allclose(basis[:, 0], v)


# ---------------------------------------------------------------------------
# orthonormal_span


def _unit_rows(rng, k, n):
    rows = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("delta,rank", [(0.0, 3), (1e-10, 4), (1e-7, 4), (1.0, 4)])
def test_orthonormal_span_keeps_all_but_round_off(rng, delta, rank):
    rows = _unit_rows(rng, 4, 8)
    rows[1] = rows[0] + delta * (rng.normal(size=8) + 1j * rng.normal(size=8))
    rows[1] /= np.linalg.norm(rows[1])
    q = qmath.orthonormal_span(rows)
    assert q.shape == (8, rank)
    assert np.abs(q.conj().T @ q - np.eye(rank)).max() <= 1e-12
    # every row is rebuilt from its coordinates in the span
    assert np.abs(q @ (q.conj().T @ rows.T) - rows.T).max() <= 1e-12
