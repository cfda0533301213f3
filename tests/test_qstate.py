import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from hbbqss import attack, qmath, qstate
from hbbqss.qstate import (
    Basis,
    Outcome,
    Sign,
    StateMemo,
    StateVector,
    apply_gate,
    basis_ket,
    basis_kets,
    gate_matrix,
    ghz_state,
    insert_register,
    measure_qubit,
    phase_aligned_distance,
    project_qubit,
    tensor_with_ancilla,
)

R = 1.0 / math.sqrt(2.0)

#: The one-qubit identity, which no circuit of the program applies.
IDENTITY2 = np.eye(2, dtype=complex)


def state_vector(labels, dims, vec) -> StateVector:
    """A StateVector over named registers, with its register spec checked."""
    labels = tuple(labels)
    dims = tuple(int(d) for d in dims)
    if len(labels) != len(dims) or len(set(labels)) != len(labels):
        raise ValueError(f"bad register spec {labels} / {dims}")
    if any(d <= 0 for d in dims):
        raise ValueError(f"register dimensions must be positive: {dims}")
    arr = qmath.as_vector(vec)
    if arr.size != int(np.prod(dims)):
        raise ValueError(f"vector size {arr.size} does not match dims {dims}")
    return StateVector(labels, dims, arr)


# The post-interaction four-qubit state produced by the circuit attack:
# amplitudes 1/2 on |0000>, |0101>, |1010>, -1/2 on |1111> over (A, B, C, E).
POST_INTERACTION = np.zeros(16, dtype=complex)
POST_INTERACTION[0b0000] = POST_INTERACTION[0b0101] = POST_INTERACTION[0b1010] = 0.5
POST_INTERACTION[0b1111] = -0.5


def post_interaction_state():
    return state_vector(("A", "B", "C", "E"), (2, 2, 2, 2), POST_INTERACTION)


# ---------------------------------------------------------------------------
# gates


def test_hadamard_definition():
    assert np.allclose(gate_matrix("H"), np.array([[1, 1], [1, -1]]) * R)


def test_phase_gate_definition():
    assert np.allclose(gate_matrix("S"), np.diag([1.0, 1.0j]))


def test_sh_is_the_composition():
    assert np.allclose(gate_matrix("SH"), gate_matrix("S") @ gate_matrix("H"))
    # SH maps the computational basis onto the y basis
    assert np.allclose(gate_matrix("SH") @ [1, 0], basis_kets(Basis.Y)[0])


@pytest.mark.parametrize("name", ("H", "S", "SH", "CNOT", "Identity"))
def test_gates_are_unitary(name):
    m = IDENTITY2 if name == "Identity" else gate_matrix(name)
    assert np.abs(m @ m.conj().T - np.eye(m.shape[0])).max() <= 1e-10


# ---------------------------------------------------------------------------
# states and bases


def test_ghz_amplitudes():
    s = ghz_state()
    expected = np.zeros(8)
    expected[0] = expected[7] = R
    assert np.allclose(s.vec, expected)
    assert s.norm == pytest.approx(1.0, abs=1e-12)


def test_ghz_reduced_state_is_maximally_mixed():
    s = ghz_state()
    amps = s.vec.reshape(2, 4)
    reduced = amps @ amps.conj().T  # trace over B and C
    assert np.abs(reduced - 0.5 * np.eye(2)).max() <= 1e-12


@pytest.mark.parametrize(
    "basis,plus,minus",
    [
        (Basis.X, [R, R], [R, -R]),
        (Basis.Y, [R, R * 1j], [R, -R * 1j]),
        (Basis.Z, [1, 0], [0, 1]),
    ],
)
def test_basis_ket_conventions(basis, plus, minus):
    kp, km = basis_kets(basis)
    assert np.allclose(kp, plus)
    assert np.allclose(km, minus)
    assert abs(np.vdot(kp, km)) <= 1e-12


def test_outcome_labels_and_bits():
    o = Outcome(Sign.MINUS, Basis.Y)
    assert o.label == "y-" and o.bit == 1
    assert Outcome.from_label("x+") == Outcome(Sign.PLUS, Basis.X)


def test_each_outcome_exists_once():
    outcomes = [Outcome(sign, basis) for basis in Basis for sign in Sign]
    assert len({id(o) for o in outcomes}) == 6
    for o in outcomes:
        assert Outcome(o.sign, o.basis) is o
        assert Outcome(o.sign.value, o.basis.value) is o  # as the dataclass took them
        assert Outcome.from_label(o.label) is o
        assert qstate._OUTCOMES[o.basis][o.bit] is o
        assert pickle.loads(pickle.dumps(o)) is o and copy.deepcopy(o) is o
        assert {o: 1}[Outcome(o.sign, o.basis)] == 1
        assert repr(o) == f"Outcome(sign={o.sign!r}, basis={o.basis!r})"
        with pytest.raises(dataclasses.FrozenInstanceError):
            o.sign = Sign.PLUS
    assert Outcome(Sign.PLUS, Basis.X) != Outcome(Sign.MINUS, Basis.X)
    for sign, basis in [("?", Basis.X), (Sign.PLUS, "w"), (0, Basis.X)]:
        with pytest.raises(ValueError):
            Outcome(sign, basis)


def test_measurement_hands_out_the_interned_outcomes():
    rng = np.random.default_rng(4)
    memo = StateMemo()
    state = qstate.read_only(ghz_state())
    for basis in Basis:
        _, plus, minus = qstate._branches(state, "A", basis)
        assert plus[0] is qstate._OUTCOMES[basis][0] and minus[0] is qstate._OUTCOMES[basis][1]
        for _ in range(2):  # a miss, then a hit
            outcome, _ = memo.measure(state, "B", basis, rng)
            assert outcome is qstate._OUTCOMES[basis][outcome.bit]


# ---------------------------------------------------------------------------
# apply_gate


def test_identity_gate_is_noop():
    s = ghz_state()
    out = qstate.apply_operator(s, IDENTITY2, ("B",))
    assert np.allclose(out.vec, s.vec)


def test_phase_gate_on_one():
    s = state_vector(("Q",), (2,), [0, 1])
    out = apply_gate(s, "S", "Q")
    assert np.allclose(out.vec, [0, 1j])


def test_entangling_sequence_produces_post_interaction_state():
    s = tensor_with_ancilla(ghz_state(), "E", 2)
    s = apply_gate(s, "H", "B")
    s = apply_gate(s, "CNOT", ("B", "E"))
    assert np.abs(s.vec - POST_INTERACTION).max() <= 1e-12


def test_apply_gate_rejects_bad_targets():
    s = ghz_state()
    with pytest.raises(KeyError):
        apply_gate(s, "H", "Q")
    with pytest.raises(ValueError):
        apply_gate(s, "CNOT", ("B", "B"))
    with pytest.raises(ValueError):
        apply_gate(s, "H", ("A", "B"))


def test_apply_gate_preserves_norm(rng):
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    s = state_vector(("A", "B", "C"), (2, 2, 2), v)
    for name, targets in (("H", "A"), ("S", "C"), ("SH", "B"), ("CNOT", ("A", "C"))):
        out = apply_gate(s, name, targets)
        assert out.norm == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# project_qubit


def test_project_ghz_onto_zero():
    p, cond = project_qubit(ghz_state(), "A", [1, 0])
    assert p == pytest.approx(0.5, abs=1e-12)
    assert cond.labels == ("B", "C")
    assert np.allclose(cond.vec, [1, 0, 0, 0])


def test_project_ghz_onto_xplus():
    p, cond = project_qubit(ghz_state(), "A", basis_kets(Basis.X)[0])
    assert p == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(cond.vec, [R, 0, 0, R])


def test_project_post_interaction_conditional():
    # Alice x+, Bob y+ leaves (|00> - i|01> + |10> + i|11>)/2 on C, E
    s = post_interaction_state()
    p1, s1 = project_qubit(s, "A", basis_kets(Basis.X)[0])
    p2, s2 = project_qubit(s1, "B", basis_kets(Basis.Y)[0])
    assert p1 * p2 == pytest.approx(0.25, abs=1e-12)
    expected = 0.5 * np.array([1, -1j, 1, 1j])
    assert phase_aligned_distance(s2.vec, expected) <= 1e-12


def test_project_zero_probability_branch_flagged():
    s = state_vector(("Q", "P"), (2, 2), [1, 0, 0, 0])
    p, cond = project_qubit(s, "Q", [0, 1])
    assert p <= 1e-12 and cond is None


def test_projection_probabilities_sum_to_one(rng):
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v /= np.linalg.norm(v)
    s = state_vector(("A", "B", "C", "E"), (2, 2, 2, 2), v)
    for ba in (Basis.X, Basis.Y):
        for bb in (Basis.X, Basis.Y):
            total = 0.0
            for ka in basis_kets(ba):
                pa, sa = project_qubit(s, "A", ka)
                for kb in basis_kets(bb):
                    if sa is None:
                        continue
                    pb, _ = project_qubit(sa, "B", kb)
                    total += pa * pb
            assert total == pytest.approx(1.0, abs=1e-10)


def test_project_rejects_unnormalised_ket():
    with pytest.raises(ValueError):
        project_qubit(ghz_state(), "A", [2, 0])


def test_project_stack_checks_every_ket():
    # _project_stack takes its kets unchecked. project_qubit checks each ket
    # it hands on: unnormalised, non-finite, and of the wrong dimension.
    for ket in ([2, 0], [np.nan, 0], [1, 0, 0]):
        with pytest.raises(ValueError):
            project_qubit(ghz_state(), "A", ket)
    # The analysis hands on the protocol kets stacked once at import: finite
    # unit kets of a qubit.
    for kets in (attack._ALICE_KETS, attack._BOB_KETS):
        assert kets.shape[-1] == 2
        assert np.isfinite(kets).all()
        norms = np.sqrt((np.abs(kets) ** 2).sum(axis=-1))
        assert np.abs(norms - 1.0).max() <= qmath.STRUCT_TOL


@pytest.mark.parametrize("rest", [1, 2, 4, 8, 16])
def test_project_stack_gives_each_member_project_qubit_bit_for_bit(rng, rest):
    kets = np.array([basis_kets(b) for b in (Basis.X, Basis.Y, Basis.Z)])  # (3, 2, 2)
    states = []
    for _ in range(6):
        v = rng.normal(size=2 * rest) + 1j * rng.normal(size=2 * rest)
        states.append(v / np.linalg.norm(v))
    states.append(np.concatenate([np.ones(rest), np.zeros(rest)]) / math.sqrt(rest))  # z- never occurs
    tensors = np.array(states).reshape(-1, 1, 1, 2, rest)
    probs, conds = qstate._project_stack(tensors, kets)
    for i, v in enumerate(states):
        s = qstate.StateVector(("Q", "R"), (2, rest), v)
        for b in range(3):
            for k in range(2):
                p, cond = project_qubit(s, "Q", kets[b, k])
                assert probs[i, b, k].tobytes() == np.float64(p).tobytes()
                expected = np.zeros(rest, dtype=complex) if cond is None else cond.vec
                assert conds[i, b, k].tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# measure_qubit


def test_z_readout_of_zero_is_deterministic(rng):
    s = state_vector(("Q",), (2,), [1, 0])
    for _ in range(20):
        out, _ = measure_qubit(s, "Q", Basis.Z, rng)
        assert out.bit == 0


def test_measurement_frequencies_on_ghz(rng):
    n = 100_000
    hits = 0
    s = ghz_state()
    for _ in range(n):
        out, _ = measure_qubit(s, "A", Basis.X, rng)
        hits += out.sign is Sign.PLUS
    sigma = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) <= 3 * sigma


def test_measurement_matches_projection(rng):
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    s = state_vector(("A", "B", "C"), (2, 2, 2), v)
    plus_ket = basis_kets(Basis.Y)[0]
    p_plus, cond_plus = project_qubit(s, "B", plus_ket)
    n = 10_000
    hits = 0
    for _ in range(n):
        out, collapsed = measure_qubit(s, "B", Basis.Y, rng)
        if out.sign is Sign.PLUS:
            hits += 1
            assert phase_aligned_distance(collapsed.vec, cond_plus.vec) <= 1e-9
    sigma = math.sqrt(p_plus * (1 - p_plus) / n)
    assert abs(hits / n - p_plus) <= 3 * sigma


def test_measurement_never_selects_zero_branch(rng):
    v = np.kron(basis_ket(Outcome(Sign.PLUS, Basis.X)), [1, 0])
    s = state_vector(("Q", "P"), (2, 2), v)
    for _ in range(50):
        out, _ = measure_qubit(s, "Q", Basis.X, rng)
        assert out.sign is Sign.PLUS


def test_measurement_requires_normalised_state(rng):
    s = state_vector(("Q",), (2,), [2, 0])
    with pytest.raises(ValueError):
        measure_qubit(s, "Q", Basis.Z, rng)


def test_measurement_deterministic_under_seed():
    s = ghz_state()
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(777)
        outs = []
        state = s
        for label, basis in (("A", Basis.X), ("B", Basis.Y), ("C", Basis.X)):
            out, state = measure_qubit(state, label, basis, rng)
            outs.append(out.label)
        runs.append(outs)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# StateMemo


def test_memo_measure_makes_the_same_draws_as_measure_qubit():
    v = np.random.default_rng(3).normal(size=8) + 1j * np.random.default_rng(4).normal(size=8)
    chains = [
        (ghz_state(), (("A", Basis.Z), ("B", Basis.Z), ("C", Basis.X))),  # B, C forced after A
        (state_vector(("A", "B", "C"), (2, 2, 2), v / np.linalg.norm(v)),
         (("B", Basis.Y), ("A", Basis.X), ("C", Basis.Y))),
    ]
    fresh, cached = np.random.default_rng(9), np.random.default_rng(9)
    memo = StateMemo()
    for _ in range(50):
        for start, steps in chains:
            s1 = s2 = start
            for label, basis in steps:
                out1, s1 = measure_qubit(s1, label, basis, fresh)
                out2, s2 = memo.measure(s2, label, basis, cached)
                assert out1 == out2
                assert (s1 is None) == (s2 is None)
                if s1 is not None:
                    assert s1.vec.tobytes() == s2.vec.tobytes()
    assert fresh.random() == cached.random()


def test_memo_computes_each_branch_once(monkeypatch, rng):
    calls = []
    original = qstate._project_stack
    monkeypatch.setattr(qstate, "_project_stack", lambda *a: calls.append(a[1].shape) or original(*a))
    memo = StateMemo()
    for _ in range(100):
        memo.measure(ghz_state(), "A", Basis.X, rng)
    # both kets of the basis, projected in one call
    assert calls == [(2, 2)]


def test_memo_stops_storing_at_capacity_and_stays_exact(monkeypatch):
    monkeypatch.setattr(qstate, "MEMO_CAPACITY", 3)
    fresh, cached = np.random.default_rng(2), np.random.default_rng(2)
    memo = StateMemo()
    for theta in np.linspace(0.1, 1.4, 20):
        s = state_vector(("Q", "P"), (2, 2), [np.cos(theta), 0, 0, np.sin(theta)])
        for _ in range(2):
            out1, c1 = measure_qubit(s, "Q", Basis.X, fresh)
            out2, c2 = memo.measure(s, "Q", Basis.X, cached)
            assert out1 == out2 and c1.vec.tobytes() == c2.vec.tobytes()
            assert not c2.vec.flags.writeable
        assert memo.apply(insert_register, s, "R", (1.0, 0.0), 0).labels == ("R", "Q", "P")
    assert len(memo._branches) == len(memo._maps) == 3


def test_memo_never_caches_an_unnormalised_state(rng):
    s = state_vector(("Q",), (2,), [2, 0])
    memo = StateMemo()
    for _ in range(2):
        with pytest.raises(ValueError, match="norm"):
            memo.measure(s, "Q", Basis.Z, rng)


def test_memo_results_are_read_only_and_keyed_on_the_arguments(rng):
    memo = StateMemo()
    _, cond = memo.measure(ghz_state(), "A", Basis.X, rng)
    with pytest.raises(ValueError, match="read-only"):
        cond.vec[0] = 0
    out = memo.apply(apply_gate, ghz_state(), "H", "A")
    with pytest.raises(ValueError, match="read-only"):
        out.vec[0] = 0
    assert memo.apply(apply_gate, ghz_state(), "H", "A") is out
    assert memo.apply(apply_gate, ghz_state(), "H", "B") is not out


# ---------------------------------------------------------------------------
# register plumbing


def test_insert_register_roundtrip(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    s = state_vector(("A", "C"), (2, 2), v)
    ket = basis_kets(Basis.X)[1]
    full = insert_register(s, "B", ket, 1)
    assert full.labels == ("A", "B", "C")
    p, rest = project_qubit(full, "B", ket)
    assert p == pytest.approx(1.0, abs=1e-12)
    assert phase_aligned_distance(rest.vec, v) <= 1e-12


def test_state_vector_validation():
    with pytest.raises(ValueError):
        state_vector(("A", "A"), (2, 2), np.ones(4))
    with pytest.raises(ValueError):
        state_vector(("A",), (2,), np.ones(3))


def test_phase_aligned_distance():
    v = np.array([R, R * 1j])
    assert phase_aligned_distance(v, np.exp(0.3j) * v) <= 1e-12
    assert phase_aligned_distance(v, np.array([1.0, 0.0])) > 0.1
