"""States, measurement bases, gates, and Born-rule measurement.

A :class:`StateVector` carries named registers (e.g. A, B, C, E) with
per-register dimensions; the first register is the most significant index
factor. The protocol parties announce only the x and y bases; z exists for
computational-basis readout. Ket conventions are fixed so that the honest
GHZ correlation table is reproduced exactly:

    |x+-> = (|0> +- |1>)/sqrt(2),   |y+-> = (|0> +- i|1>)/sqrt(2)

Global phase is ignored everywhere; use :func:`phase_aligned_distance` for
phase-invariant state comparison. All stochastic operations take an
explicit numpy random generator, so identical seeds give identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import qmath

_SQRT2_INV = 1.0 / np.sqrt(2.0)

#: Norm tolerance required of states handed to measurement operations.
STATE_NORM_TOL = 1e-10

#: Probability below which a projection branch is considered impossible.
ZERO_BRANCH_TOL = 1e-12


class Basis(str, Enum):
    X = "x"
    Y = "y"
    Z = "z"


#: Bases the protocol parties may announce.
PROTOCOL_BASES = (Basis.X, Basis.Y)


class Sign(str, Enum):
    PLUS = "+"
    MINUS = "-"

    @property
    def bit(self) -> int:
        """0 for +, 1 for - (the protocol's announcement encoding)."""
        return 0 if self is Sign.PLUS else 1


def sign_from_bit(bit: int) -> Sign:
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return Sign.PLUS if bit == 0 else Sign.MINUS


@dataclass(frozen=True)
class Outcome:
    """A measurement result together with the basis it was obtained in."""

    sign: Sign
    basis: Basis

    @property
    def bit(self) -> int:
        return self.sign.bit

    @property
    def label(self) -> str:
        return f"{self.basis.value}{self.sign.value}"

    @classmethod
    def from_label(cls, label: str) -> "Outcome":
        if len(label) != 2:
            raise ValueError(f"bad outcome label {label!r}")
        return cls(Sign(label[1]), Basis(label[0]))

    def __str__(self) -> str:  # pragma: no cover - debug nicety
        return self.label


# Gate matrices. SH is composed at lookup time so the pieces stay the single
# source of truth.
H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _SQRT2_INV
S_MATRIX = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)
CNOT_MATRIX = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)
IDENTITY2 = np.eye(2, dtype=complex)

GATE_NAMES = ("H", "S", "SH", "CNOT", "Identity")


def gate_matrix(name: str) -> np.ndarray:
    """Current matrix for a named gate (module globals are read live)."""
    if name == "H":
        return H_MATRIX
    if name == "S":
        return S_MATRIX
    if name == "SH":
        return S_MATRIX @ H_MATRIX
    if name == "CNOT":
        return CNOT_MATRIX
    if name == "Identity":
        return IDENTITY2
    raise ValueError(f"unknown gate {name!r}")


@dataclass(frozen=True)
class Gate:
    name: str
    matrix: np.ndarray


def gate(name: str) -> Gate:
    """Named gate with its matrix, validated unitary."""
    m = gate_matrix(name)
    dev = float(np.abs(m @ m.conj().T - np.eye(m.shape[0])).max())
    if dev > qmath.STRUCT_TOL:
        raise ValueError(f"gate {name} is not unitary (deviation {dev:.3e})")
    return Gate(name, m)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalised amplitude vector over named registers."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]
    vec: np.ndarray

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no register {label!r} in {self.labels}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.axis(label)]

    @property
    def norm(self) -> float:
        return float(np.sqrt((np.abs(self.vec) ** 2).sum()))


def state_vector(labels: Sequence[str], dims: Sequence[int], vec) -> StateVector:
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


def ghz_state() -> StateVector:
    """The three-qubit state (|000> + |111>)/sqrt(2) on registers A, B, C."""
    vec = np.zeros(8, dtype=complex)
    vec[0] = _SQRT2_INV
    vec[7] = _SQRT2_INV
    return StateVector(("A", "B", "C"), (2, 2, 2), vec)


def basis_kets(b: Basis) -> tuple[np.ndarray, np.ndarray]:
    """The (+, -) ket pair of a measurement basis."""
    if b is Basis.X:
        return (
            np.array([1.0, 1.0], dtype=complex) * _SQRT2_INV,
            np.array([1.0, -1.0], dtype=complex) * _SQRT2_INV,
        )
    if b is Basis.Y:
        return (
            np.array([1.0, 1.0j], dtype=complex) * _SQRT2_INV,
            np.array([1.0, -1.0j], dtype=complex) * _SQRT2_INV,
        )
    if b is Basis.Z:
        return (
            np.array([1.0, 0.0], dtype=complex),
            np.array([0.0, 1.0], dtype=complex),
        )
    raise ValueError(f"unknown basis {b!r}")


def basis_ket(outcome: Outcome) -> np.ndarray:
    plus, minus = basis_kets(outcome.basis)
    return plus if outcome.sign is Sign.PLUS else minus


def apply_operator(state: StateVector, matrix, labels: Sequence[str]) -> StateVector:
    """Apply a dense operator to the named registers (in the given order)."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError(f"target registers must be distinct: {labels}")
    axes = [state.axis(l) for l in labels]
    sel_dims = tuple(state.dims[ax] for ax in axes)
    sel = int(np.prod(sel_dims))
    m = qmath.as_matrix(matrix)
    if m.shape != (sel, sel):
        raise ValueError(f"operator shape {m.shape} does not act on registers of dim {sel}")
    t = np.moveaxis(state.vec.reshape(state.dims), axes, range(len(axes)))
    rest_shape = t.shape[len(axes):]
    out = m @ t.reshape(sel, -1)
    out = np.moveaxis(out.reshape(sel_dims + rest_shape), range(len(axes)), axes)
    return StateVector(state.labels, state.dims, out.reshape(-1))


def apply_gate(state: StateVector, g: Gate | str, targets) -> StateVector:
    """Apply a named gate; CNOT takes (control, target) labels."""
    name = g.name if isinstance(g, Gate) else g
    m = g.matrix if isinstance(g, Gate) else gate_matrix(name)
    if isinstance(targets, str):
        targets = (targets,)
    targets = tuple(targets)
    want = 2 if name == "CNOT" else 1
    if len(targets) != want:
        raise ValueError(f"gate {name} takes {want} target(s), got {targets}")
    for t in targets:
        if state.dim_of(t) != 2:
            raise ValueError(f"gate {name} requires a qubit register, {t} has dim {state.dim_of(t)}")
    before = state.norm
    out = apply_operator(state, m, targets)
    if abs(out.norm - before) > 1e-12:
        raise ValueError(f"gate {name} did not preserve the norm")
    return out


def project_qubit(state: StateVector, label: str, onto) -> tuple[float, StateVector | None]:
    """Project a register onto a ket; returns (probability, conditional state).

    The projected register is removed from the conditional state, which is
    renormalised. Branches with probability <= ZERO_BRANCH_TOL return None.
    """
    ket = qmath.as_vector(onto)
    ax = state.axis(label)
    if ket.shape[0] != state.dims[ax]:
        raise ValueError(
            f"ket of dim {ket.shape[0]} cannot project register {label} of dim {state.dims[ax]}"
        )
    if abs(float(np.sqrt((np.abs(ket) ** 2).sum())) - 1.0) > STATE_NORM_TOL:
        raise ValueError("projection ket must be normalised")
    # <ket| contracted with the register's axis, as np.tensordot computes it
    tensor = state.vec.reshape(state.dims)
    if ax:
        tensor = np.moveaxis(tensor, ax, 0)
    amp = np.dot(np.conj(ket).reshape(1, -1), tensor.reshape(ket.shape[0], -1))
    prob = float((np.abs(amp) ** 2).sum())
    if prob <= ZERO_BRANCH_TOL or len(state.labels) == 1:
        return prob, None
    rest_labels = state.labels[:ax] + state.labels[ax + 1:]
    rest_dims = state.dims[:ax] + state.dims[ax + 1:]
    return prob, StateVector(rest_labels, rest_dims, amp.reshape(-1) / np.sqrt(prob))


def _branches(
    state: StateVector, label: str, basis: Basis
) -> tuple[float, StateVector | None, StateVector | None]:
    """Both Born-rule branches of measuring one register: (p_plus, cond_plus, cond_minus)."""
    if abs(state.norm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state norm {state.norm} deviates from 1 beyond {STATE_NORM_TOL}")
    plus, minus = basis_kets(basis)
    p_plus, cond_plus = project_qubit(state, label, plus)
    _, cond_minus = project_qubit(state, label, minus)
    return p_plus, cond_plus, cond_minus


def _draw(branches: tuple, basis: Basis, rng: np.random.Generator) -> tuple[Outcome, StateVector | None]:
    """The branch taken and its state; one draw unless a branch is impossible."""
    p_plus, cond_plus, cond_minus = branches
    if p_plus <= ZERO_BRANCH_TOL:
        sign = Sign.MINUS
    elif 1.0 - p_plus <= ZERO_BRANCH_TOL:
        sign = Sign.PLUS
    else:
        sign = Sign.PLUS if rng.random() < p_plus else Sign.MINUS
    return Outcome(sign, basis), cond_plus if sign is Sign.PLUS else cond_minus


def measure_qubit(
    state: StateVector, label: str, basis: Basis, rng: np.random.Generator
) -> tuple[Outcome, StateVector | None]:
    """Born-rule measurement of one register; the register is consumed.

    Deterministic for a fixed generator state; a branch of probability
    <= ZERO_BRANCH_TOL is never selected.
    """
    return _draw(_branches(state, label, basis), basis, rng)


#: Entries a :class:`StateMemo` table keeps; later misses are computed
#: without being stored, so an attacker reaching a new state every round
#: cannot grow a session's memory without bound.
MEMO_CAPACITY = 4096


def _key(state: StateVector) -> tuple:
    return state.labels, state.dims, state.vec.dtype.str, state.vec.tobytes()


def read_only(state: StateVector | None) -> StateVector | None:
    """A copy of a state whose amplitudes cannot be written, or None."""
    if state is None:
        return None
    vec = state.vec.copy()
    vec.flags.writeable = False
    return StateVector(state.labels, state.dims, vec)


class StateMemo:
    """Results of pure state maps, each computed once per distinct input.

    Keys hold the input's bytes, so a hit returns exactly what a fresh
    computation would, and :meth:`measure` makes the same generator draws
    as :func:`measure_qubit`. The states it returns are read-only. Each
    table keeps at most ``MEMO_CAPACITY`` entries. A memo belongs to
    one session or one strategy instance; none is shared process-wide,
    since gate matrices are read live. A state failing the norm check is
    never cached, so it raises on every call.
    """

    def __init__(self):
        self._branches: dict[tuple, tuple] = {}
        self._maps: dict[tuple, object] = {}

    def measure(
        self, state: StateVector, label: str, basis: Basis, rng: np.random.Generator
    ) -> tuple[Outcome, StateVector | None]:
        """:func:`measure_qubit`, with the branches looked up."""
        key = (_key(state), label, basis)
        hit = self._branches.get(key)
        if hit is None:
            p_plus, cond_plus, cond_minus = _branches(state, label, basis)
            hit = (p_plus, read_only(cond_plus), read_only(cond_minus))
            _store(self._branches, key, hit)
        return _draw(hit, basis, rng)

    def apply(self, fn, state: StateVector, *args):
        """``fn(state, *args)`` for a deterministic ``fn`` with hashable ``args``."""
        key = (fn, _key(state), args)
        hit = self._maps.get(key)
        if hit is None:
            hit = fn(state, *args)
            hit = read_only(hit) if isinstance(hit, StateVector) else hit
            _store(self._maps, key, hit)
        return hit


def _store(table: dict, key: tuple, value) -> None:
    if len(table) < MEMO_CAPACITY:
        table[key] = value


def insert_register(state: StateVector, label: str, ket, position: int) -> StateVector:
    """Tensor a fresh register (in a pure state) into the given slot."""
    k = qmath.as_vector(ket)
    if label in state.labels:
        raise ValueError(f"register {label!r} already present")
    t = np.multiply.outer(state.vec.reshape(state.dims), k)
    t = np.moveaxis(t, -1, position)
    labels = state.labels[:position] + (label,) + state.labels[position:]
    dims = state.dims[:position] + (k.shape[0],) + state.dims[position:]
    return StateVector(labels, dims, t.reshape(-1))


def tensor_with_ancilla(state: StateVector, label: str, dim: int, ket=None) -> StateVector:
    """Append a trailing register, default-initialised to its first basis state."""
    if ket is None:
        ket = np.zeros(dim, dtype=complex)
        ket[0] = 1.0
    return insert_register(state, label, ket, len(state.labels))


def phase_aligned_distance(u, v) -> float:
    """Max absolute amplitude difference after optimal global-phase alignment."""
    uu = u.vec if isinstance(u, StateVector) else qmath.as_vector(u)
    vv = v.vec if isinstance(v, StateVector) else qmath.as_vector(v)
    if uu.shape != vv.shape:
        raise ValueError("states live in different dimensions")
    ov = np.vdot(uu, vv)
    phase = ov / abs(ov) if abs(ov) > 1e-300 else 1.0
    return float(np.abs(uu * phase - vv).max())
