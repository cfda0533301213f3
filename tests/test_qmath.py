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
# stacked sweep


def _stack(rng, n, k):
    """k Hermitian n x n matrices; from k = 3 on a diagonal member sits next
    to dense ones, and k = 8 adds a zero matrix, a degenerate spectrum and
    a member whose only off-diagonal pair is (0, 1), whose other pivots are
    skipped while the rest of the stack rotates."""
    members = [random_hermitian(rng, n) for _ in range(k)]
    if k >= 3:
        members[1] = np.diag(rng.normal(size=n)).astype(complex)
    if k >= 8:
        members[3] = np.zeros((n, n), dtype=complex)
        u = random_unitary(rng, n)
        members[4] = u @ np.diag(np.repeat(rng.normal(size=(n + 1) // 2), 2)[:n]) @ u.conj().T
        members[6] = np.diag(rng.normal(size=n)).astype(complex)
        if n >= 2:
            members[6][0, 1], members[6][1, 0] = 0.3 + 0.4j, 0.3 - 0.4j
    return np.array(members)


def _loop_eigen(h):
    """Reference: the cyclic Jacobi sweep on one matrix, written as loops
    over its rotations with scalar pivots."""
    a = 0.5 * (h + h.conj().T)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    scale = max(1.0, float(np.sqrt((np.abs(a) ** 2).sum())))
    off_mask = ~np.eye(n, dtype=bool)
    while n > 1 and float(np.sqrt((np.abs(a[off_mask]) ** 2).sum())) > 1e-14 * scale:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= 1e-18 * scale:
                    continue
                phase = apq / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * phase * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * np.conj(phase) * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                a[p, p], a[q, q] = a[p, p].real, a[q, q].real
                vc_p, vc_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vc_p - s * np.conj(phase) * vc_q
                v[:, q] = s * phase * vc_p + c * vc_q
    w = np.real(np.diag(a)).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_sweep_gives_each_member_its_single_result_bit_for_bit(rng, n, k):
    stack = _stack(rng, n, k)
    w, v = qmath.hermitian_eigen_stack(stack)
    norms = qmath.trace_norm_stack(stack)
    assert w.shape == (k, n) and v.shape == (k, n, n) and norms.shape == (k,)
    for i, h in enumerate(stack):
        w1, v1 = qmath.hermitian_eigen(h)
        w_loop, v_loop = _loop_eigen(h)
        assert w[i].tobytes() == w1.tobytes() == w_loop.tobytes()
        assert v[i].tobytes() == v1.tobytes() == v_loop.tobytes()
        assert float(norms[i]).hex() == qmath.trace_norm(h).hex()
        assert float(norms[i]) == float(np.abs(w_loop).sum())
        assert np.abs(v1 @ np.diag(w1) @ v1.conj().T - h).max() <= 1e-9


@pytest.mark.parametrize("solve", [qmath.hermitian_eigen_stack, qmath.trace_norm_stack])
def test_stacked_sweep_rejects_a_nonhermitian_member(rng, solve):
    stack = _stack(rng, 4, 3)
    stack[2, 0, 1] += 1e-6
    with pytest.raises(qmath.NonHermitianError, match="member 2 of 3"):
        solve(stack)


def test_stacked_sweep_raises_at_the_sweep_cap(rng, monkeypatch):
    monkeypatch.setattr(qmath, "_JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(qmath.ConvergenceError, match="1 sweeps"):
        qmath.trace_norm_stack(_stack(rng, 4, 3))
    # members already diagonal converge before the first rotation
    diagonal = np.array([np.diag(rng.normal(size=4)).astype(complex) for _ in range(3)])
    assert qmath.trace_norm_stack(diagonal).shape == (3,)


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
