"""States, measurement bases, gate matrices, and Born-rule measurement.

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

from bisect import bisect_right
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import qmath

_SQRT2_INV = 1.0 / np.sqrt(2.0)

#: Probability below which a projection branch is considered impossible.
ZERO_BRANCH_TOL = 1e-12

#: Largest change of a state's norm (about 1) across a named gate: the
#: round-off of one unitary product on a few-qubit state.
_GATE_NORM_TOL = 1e-12


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


class Outcome:
    """A measurement result together with the basis it was obtained in.

    Each of the six outcomes exists once, in ``_OUTCOMES``: constructing an
    outcome returns that instance, so outcomes compare and hash by identity
    and cannot be changed. ``bit`` is 0 for + and 1 for -, ``label`` the
    basis and sign, as in ``"x+"``.
    """

    __slots__ = ("sign", "basis", "bit", "label")
    sign: Sign
    basis: Basis
    bit: int
    label: str

    def __new__(cls, sign: Sign, basis: Basis) -> "Outcome":
        return _OUTCOMES[Basis(basis)][Sign(sign).bit]

    @classmethod
    def from_label(cls, label: str) -> "Outcome":
        if len(label) != 2:
            raise ValueError(f"bad outcome label {label!r}")
        return cls(Sign(label[1]), Basis(label[0]))

    def __repr__(self) -> str:
        return f"Outcome(sign={self.sign!r}, basis={self.basis!r})"

    def __reduce__(self):
        return Outcome, (self.sign, self.basis)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _intern(sign: Sign, basis: Basis) -> Outcome:
    outcome = object.__new__(Outcome)
    fields = {"sign": sign, "basis": basis, "bit": sign.bit, "label": f"{basis.value}{sign.value}"}
    for name, value in fields.items():
        object.__setattr__(outcome, name, value)
    return outcome


#: The six outcomes, the (+, -) pair of each basis; a pair is indexed by the bit.
_OUTCOMES: dict[Basis, tuple[Outcome, Outcome]] = {
    basis: (_intern(Sign.PLUS, basis), _intern(Sign.MINUS, basis)) for basis in Basis
}


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
    raise ValueError(f"unknown gate {name!r}")


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


def apply_gate(state: StateVector, name: str, targets) -> StateVector:
    """Apply a named gate; CNOT takes (control, target) labels."""
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
    out = apply_operator(state, gate_matrix(name), targets)
    if abs(out.norm - before) > _GATE_NORM_TOL:
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
            f"ket of dim {ket.shape[0]} cannot project a register of dim {state.dims[ax]}"
        )
    if abs(np.sqrt((np.abs(ket) ** 2).sum()) - 1.0) > qmath.STRUCT_TOL:
        raise ValueError("projection ket must be normalised")
    tensor = state.vec.reshape(state.dims)
    if ax:
        tensor = np.moveaxis(tensor, ax, 0)
    prob, cond = _project_stack(tensor.reshape(state.dims[ax], -1), ket)
    prob = float(prob)
    if prob <= ZERO_BRANCH_TOL or len(state.labels) == 1:
        return prob, None
    rest_labels = state.labels[:ax] + state.labels[ax + 1:]
    rest_dims = state.dims[:ax] + state.dims[ax + 1:]
    return prob, StateVector(rest_labels, rest_dims, cond)


def _project_stack(tensors: np.ndarray, kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project each member of a stack of states onto a ket, in one contraction.

    Each member of ``tensors`` (..., k, n) holds a state's amplitudes with
    the projected register (dim k) as rows; the finite unit kets (..., k), a
    complex array the caller has checked, broadcast against the members.
    Returns the probabilities (...) and the renormalised conditional states
    (..., n), the zero state for a branch of probability <= ZERO_BRANCH_TOL.
    Every bra is contracted as a (1, k) row of its own, so each member's
    result is bit for bit what it gets projected alone, as
    :func:`project_qubit` projects it.
    """
    amp = np.matmul(np.conj(kets)[..., None, :], tensors)[..., 0, :]
    prob = (np.abs(amp) ** 2).sum(axis=-1)
    # a complex divisor, as numpy casts a real one for the division
    scale = np.sqrt(prob).astype(complex)[..., None]
    occurs = (prob > ZERO_BRANCH_TOL)[..., None]
    return prob, np.divide(amp, scale, out=np.zeros_like(amp), where=occurs)


def _branches(state: StateVector, label: str, basis: Basis) -> tuple:
    """Both Born-rule branches of measuring one register: (p_plus, (+
    outcome, its state), (- outcome, its state)), a state None where
    :func:`project_qubit` returns None.

    The two kets are projected in one contraction, each branch bit for bit
    as :func:`project_qubit` projects it alone.
    """
    if abs(state.norm - 1.0) > qmath.STRUCT_TOL:
        raise ValueError(f"state norm {state.norm} deviates from 1 beyond {qmath.STRUCT_TOL}")
    kets = np.array(basis_kets(basis))
    ax = state.axis(label)
    if state.dims[ax] != 2:
        raise ValueError(f"ket of dim 2 cannot project a register of dim {state.dims[ax]}")
    tensor = state.vec.reshape(state.dims)
    if ax:
        tensor = np.moveaxis(tensor, ax, 0)
    probs, conds = _project_stack(tensor.reshape(2, -1), kets)
    rest_labels = state.labels[:ax] + state.labels[ax + 1:]
    rest_dims = state.dims[:ax] + state.dims[ax + 1:]
    plus, minus = (
        (outcome,
         StateVector(rest_labels, rest_dims, cond) if prob > ZERO_BRANCH_TOL and rest_labels else None)
        for outcome, prob, cond in zip(_OUTCOMES[basis], probs, conds)
    )
    return float(probs[0]), plus, minus


def _measure_stack(tensors: np.ndarray, occurs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both Born-rule branches, in x and in y, of measuring the leading
    register (a qubit) of every state in a stack, in one contraction.

    ``tensors`` (s, 2, n) holds each state's amplitudes with the measured
    register as rows. Members where ``occurs`` is False stand in for
    branches that cannot occur; they are projected but not checked. Returns
    the probabilities (s, 2, 2) and the conditional states (s, 2, 2, n),
    indexed by state, basis bit (x, y) and sign bit (+, -), each bit for bit
    as :func:`_branches` computes it for that state alone. Like
    :func:`_branches`, raises ValueError for a state whose norm deviates
    from 1 beyond ``qmath.STRUCT_TOL``.
    """
    norms = np.sqrt((np.abs(tensors) ** 2).sum(axis=(1, 2)))
    off = occurs & (np.abs(norms - 1.0) > qmath.STRUCT_TOL)
    if off.any():
        raise ValueError(f"state norm {float(norms[off][0])} deviates from 1 beyond {qmath.STRUCT_TOL}")
    return _project_stack(tensors[:, None, None], _PROTOCOL_KETS)


#: The (+, -) kets of x and of y, as :func:`_measure_stack` projects onto them.
_PROTOCOL_KETS = np.array([basis_kets(basis) for basis in PROTOCOL_BASES])
_PROTOCOL_KETS.flags.writeable = False


def _two_way(p_plus: float, plus, minus) -> tuple:
    """The law of a two-outcome draw with probability ``p_plus`` of
    ``plus``: a branch of probability <= ZERO_BRANCH_TOL is never drawn,
    and with both possible one generator draw ``u`` picks ``plus`` iff
    ``u < p_plus``. See :func:`_sample`."""
    if p_plus <= ZERO_BRANCH_TOL:
        return (), (minus,)
    if 1.0 - p_plus <= ZERO_BRANCH_TOL:
        return (), (plus,)
    return (p_plus,), (plus, minus)


def _sample(law: tuple, rng: np.random.Generator):
    """One outcome of a law ``(cuts, outcomes)``: ``outcomes[0]`` with no
    generator draw when there are no cuts, else ``outcomes[k]`` for the
    number k of cuts at or below one ``rng.random()``."""
    cuts, outcomes = law
    if cuts:
        return outcomes[bisect_right(cuts, rng.random())]
    return outcomes[0]


def measure_qubit(
    state: StateVector, label: str, basis: Basis, rng: np.random.Generator
) -> tuple[Outcome, StateVector | None]:
    """Born-rule measurement of one register; the register is consumed.

    Deterministic for a fixed generator state; a branch of probability
    <= ZERO_BRANCH_TOL is never selected.
    """
    return _sample(_two_way(*_branches(state, label, basis)), rng)


#: Entries a :class:`StateMemo` table keeps; later misses are computed
#: without being stored, so an attacker reaching a new state every round
#: cannot grow a session's memory without bound.
MEMO_CAPACITY = 4096


def _key(state: StateVector) -> tuple:
    return state.labels, state.dims, state.vec.dtype.str, state.vec.tobytes()


def _frozen(state: StateVector) -> bool:
    """Whether a state's amplitudes can no longer change: they are not
    writeable and own their memory, so no other array writes them."""
    flags = state.vec.flags
    return not flags.writeable and flags.owndata


def read_only(state: StateVector | None) -> StateVector | None:
    """A copy of a state whose amplitudes cannot be written, or None."""
    if state is None:
        return None
    vec = state.vec.copy()
    vec.flags.writeable = False
    return StateVector(state.labels, state.dims, vec)


class StateMemo:
    """Results of pure state maps, each computed once per distinct input.

    A frozen input (read-only amplitudes in memory of their own, as every
    state the memo returns has) is looked up by identity first: the key
    holds the state itself, which keeps its identity from being reused.
    On a miss, and for every writable input, the lookup goes by the input's
    bytes, so equal states reached by different paths share one computation
    and a writable state that changes between calls is never mistaken for
    what it held before. A hit returns exactly what a fresh computation
    would, and :meth:`measure` makes the same generator draws as
    :func:`measure_qubit`, handing out the outcome and state its entry
    holds. The states it returns are read-only. Each table keeps at most
    ``MEMO_CAPACITY`` entries. A memo belongs to one session or one
    strategy instance; none is shared process-wide, since gate matrices
    are read live. A state failing the norm check is never cached, so it
    raises on every call.
    """

    def __init__(self):
        self._branches: dict[tuple, tuple] = {}
        self._maps: dict[tuple, object] = {}
        # keyed (state, label, basis) by measure and (fn, state, args) by apply
        self._by_identity: dict[tuple, object] = {}

    def measure(
        self, state: StateVector, label: str, basis: Basis, rng: np.random.Generator
    ) -> tuple[Outcome, StateVector | None]:
        """:func:`measure_qubit`, with the branches looked up."""
        frozen = _frozen(state)
        if frozen:
            hit = self._by_identity.get((state, label, basis))
            if hit is not None:
                return _sample(hit, rng)
        key = (_key(state), label, basis)
        hit = self._branches.get(key)
        if hit is None:
            p_plus, (out_plus, cond_plus), (out_minus, cond_minus) = _branches(state, label, basis)
            hit = _two_way(p_plus, (out_plus, read_only(cond_plus)), (out_minus, read_only(cond_minus)))
            _store(self._branches, key, hit)
        if frozen:
            _store(self._by_identity, (state, label, basis), hit)
        return _sample(hit, rng)

    def apply(self, fn, state: StateVector, *args):
        """``fn(state, *args)`` for a deterministic ``fn`` with hashable ``args``."""
        frozen = _frozen(state)
        if frozen:
            hit = self._by_identity.get((fn, state, args))
            if hit is not None:
                return hit
        key = (fn, _key(state), args)
        hit = self._maps.get(key)
        if hit is None:
            hit = fn(state, *args)
            hit = read_only(hit) if isinstance(hit, StateVector) else hit
            _store(self._maps, key, hit)
        if frozen:
            _store(self._by_identity, (fn, state, args), hit)
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


def tensor_with_ancilla(state: StateVector, label: str, dim: int) -> StateVector:
    """Append a trailing register in its first basis state."""
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
