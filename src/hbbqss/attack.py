"""General participant-attack analysis for the HBB protocol.

A dishonest Charlie intercepts the two transit qubits, couples them
unitarily to an ancilla, and later measures. The post-interaction global
state is parameterised by four complex amplitudes a_ij (summing to one in
square magnitude) and four normalised ancilla states eps_ij living on the
C+E registers. This module derives, for each pair of announced bases, the
conditional attacker states, the residuals of the zero-error detection
constraints, the minimum-error (Helstrom) probability of reading Alice's
bit, the resulting mutual information, and the necessary-and-sufficient
conditions for a perfect attack. Everything here is pure analysis; session
execution lives in :mod:`hbbqss.exploit`.

The unit of analysis is a :class:`SpecStack`, many specs' amplitudes and
ancilla states stacked and validated in one reduction per check; every
stage reads the stacked arrays, and each row of a stack is an
:class:`AttackSpec` whose arrays are views of the stack's, not checked
again. The one-spec functions name the paper's quantities and run on a
stack of one; :func:`conditional_states` gives a dict, (weight, state or
None) by outcome pair. Only this module composes the stages: a stack
enters a pass through :func:`report_outcomes` (the full analysis) or
:func:`escape_outcomes` (the escape flags alone), both taking each flag
from the bilinear residuals; :func:`cross_check`, run by ``verify`` and the
property tests, holds reports against the redundant routes.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from . import qmath
from .qstate import (
    PROTOCOL_BASES, ZERO_BRANCH_TOL, Basis, Sign, StateVector, _project_stack, basis_kets,
)

#: The one tolerance of the analysis: the escape, NAS, realizability and
#: announcement checks all compare against it, and a report's "tol" is it.
DEFAULT_TOL = 1e-9


def _route_tie(n: int) -> float:
    """Largest gap between the two escape routes' magnitudes that counts as
    round-off on a C+E register of dimension n. Each magnitude is an inner
    product of unit vectors of length n, within gamma_n ||x|| ||y|| of the
    exact value in any summation order, gamma_n = n u / (1 - n u) with the
    unit round-off u = 2^-53 (Higham 2002, sec. 3.1); the two routes differ
    by at most twice that."""
    nu = n * 2.0**-53
    return 2.0 * nu / (1.0 - nu)


#: Largest amount (a probability) by which a Helstrom error may leave
#: [0, min(p1, p2)] before ConsistencyError; within it the error is clamped.
_PE_RANGE_SLACK = 1e-9

#: Largest spread (a probability) between the four cases' Helstrom errors of
#: a spec that escapes detection.
_CASE_SPREAD_TOL = 1e-6

#: Amplitude index order (i, j) for the rows of AttackSpec.eps.
EPS_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))

_SIGNS = (Sign.PLUS, Sign.MINUS)


class SpecError(ValueError):
    """An attack specification violates its invariants or schema."""


class InfeasibleError(ValueError):
    """An operation was invoked outside its validity domain."""


class ConsistencyError(RuntimeError):
    """A numerical check failed, or two redundant routes disagreed beyond tolerance."""


class Case(Enum):
    """Alice's and Bob's announced bases for a sifted round."""

    XX = (Basis.X, Basis.X)
    XY = (Basis.X, Basis.Y)
    YX = (Basis.Y, Basis.X)
    YY = (Basis.Y, Basis.Y)

    # Members are singletons and compare by identity, so they hash by it,
    # at C speed, where Enum hashes the name in Python.
    __hash__ = object.__hash__

    @property
    def alice_basis(self) -> Basis:
        return self.value[0]

    @property
    def bob_basis(self) -> Basis:
        return self.value[1]

    @property
    def key(self) -> str:
        return self.name.lower()

    @classmethod
    def from_bases(cls, alice: Basis, bob: Basis) -> "Case":
        try:
            return _CASE_OF_BASES[alice, bob]
        except (KeyError, TypeError):
            raise ValueError(f"no case for bases {alice!r}, {bob!r}") from None


CASES = (Case.XX, Case.XY, Case.YX, Case.YY)
_CASE_OF_BASES = {c.value: c for c in CASES}

# Pair ordering of the four zero-overlap constraints per case:
# both "same-sign" branches against both "different-sign" branches.
SAME_BRANCHES = ((Sign.PLUS, Sign.PLUS), (Sign.MINUS, Sign.MINUS))
DIFF_BRANCHES = ((Sign.PLUS, Sign.MINUS), (Sign.MINUS, Sign.PLUS))
CONSTRAINT_PAIRS = tuple((s, d) for s in SAME_BRANCHES for d in DIFF_BRANCHES)


@dataclass(frozen=True, eq=False)
class AttackSpec:
    """Amplitudes and ancilla states defining the post-interaction state.

    ``a`` is the 2x2 complex amplitude array indexed by (Alice branch,
    Bob branch); ``eps`` holds the four ancilla states as rows ordered
    (0,0), (0,1), (1,0), (1,1), each of dimension 2 * ancilla_dim. Its
    checks are those of a :class:`SpecStack` of one.
    """

    ancilla_dim: int
    a: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        a, eps = np.asarray(self.a, dtype=complex), np.asarray(self.eps, dtype=complex)
        stack = SpecStack(self.ancilla_dim, a[None], eps[None])
        object.__setattr__(self, "ancilla_dim", stack.ancilla_dim)
        object.__setattr__(self, "a", stack.a[0])
        object.__setattr__(self, "eps", stack.eps[0])

    @property
    def joint_dim(self) -> int:
        """Dimension of the C+E register the ancilla states live on."""
        return 2 * self.ancilla_dim


@dataclass(frozen=True, eq=False)
class SpecStack:
    """The unit of analysis: n specs of one ancilla_dim, their amplitudes
    stacked (n, 2, 2) in ``a`` and their ancilla states (n, 4, 2 * ancilla_dim)
    in ``eps``. Iterating yields each spec as an :class:`AttackSpec` whose
    ``a`` and ``eps`` are views of its rows, checked with the stack.

    Each check runs once over the stack, as one reduction, and raises the
    SpecError that the first failing spec raises alone.
    """

    ancilla_dim: int
    a: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        d = _ancilla_dim(self.ancilla_dim)
        if d < 1:
            raise SpecError(f"ancilla_dim must be >= 1, got {self.ancilla_dim}")
        a, eps = np.asarray(self.a, dtype=complex), np.asarray(self.eps, dtype=complex)
        if a.shape[1:] != (2, 2):
            raise SpecError(f"amplitude array must be 2x2, got shape {a.shape[1:]}")
        if eps.shape[1:] != (4, 2 * d):
            raise SpecError(
                f"eps must hold 4 states of dimension {2 * d}, got shape {eps.shape[1:]}"
            )
        if len(a) != len(eps):
            raise SpecError(f"{len(a)} amplitude arrays for {len(eps)} ancilla state sets")
        finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(eps).all(axis=(1, 2))
        with np.errstate(over="ignore"):  # a huge finite entry squares to inf, which fails below
            totals = (np.abs(a) ** 2).reshape(-1, 4).sum(axis=1)
            norms = np.sqrt((np.abs(eps) ** 2).sum(axis=2))
        bad_total = np.abs(totals - 1.0) > qmath.STRUCT_TOL
        bad_norms = np.abs(norms - 1.0) > qmath.STRUCT_TOL
        bad = ~finite | bad_total | bad_norms.any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            if not finite[i]:
                raise SpecError("non-finite entries in attack spec")
            if bad_total[i]:
                raise SpecError(f"amplitude magnitudes sum to {float(totals[i])}, expected 1")
            k = int(np.argmax(bad_norms[i]))
            raise SpecError(f"eps row {EPS_ORDER[k]} has norm {float(norms[i, k])}, expected 1")
        object.__setattr__(self, "ancilla_dim", d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "eps", eps)

    @classmethod
    def of(cls, specs) -> "SpecStack":
        """AttackSpecs of one ancilla_dim stacked; each was checked when built."""
        if len({spec.ancilla_dim for spec in specs}) != 1:
            raise SpecError("a stack needs specs of one ancilla_dim")
        return _unchecked(cls, np.array([spec.a for spec in specs]), np.array([spec.eps for spec in specs]))

    @property
    def joint_dim(self) -> int:
        return self.eps.shape[-1]

    def __len__(self) -> int:
        return len(self.a)

    def __iter__(self):
        return map(partial(_unchecked, AttackSpec), self.a, self.eps)

    def take(self, rows) -> "SpecStack":
        """The specs at ``rows``, a slice or a list of indices."""
        return _unchecked(SpecStack, self.a[rows], self.eps[rows])


def _unchecked(cls, a: np.ndarray, eps: np.ndarray):
    """An AttackSpec or a SpecStack of arrays that were checked before: no
    check runs again, and its ``a`` and ``eps`` are the arrays given."""
    spec = object.__new__(cls)
    for name, value in (("ancilla_dim", eps.shape[-1] // 2), ("a", a), ("eps", eps)):
        object.__setattr__(spec, name, value)
    return spec


def _ancilla_dim(d) -> int:
    """``d`` as an int: a Python or numpy integer, not a bool, a float or a string."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise SpecError(f"ancilla_dim must be an integer, got {d!r}")
    return int(d)


def honest_spec(ancilla_dim: int = 1) -> AttackSpec:
    """No interaction at all: the global state stays GHZ x |0...0>."""
    d2 = 2 * ancilla_dim
    eps = np.zeros((4, d2), dtype=complex)
    eps[0, 0] = 1.0  # |0>_C |0...0>_E
    eps[1, 0] = 1.0
    eps[2, d2 // 2] = 1.0  # |1>_C |0...0>_E
    eps[3, d2 // 2] = 1.0
    a = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex) / np.sqrt(2.0)
    return AttackSpec(ancilla_dim, a, eps)


def kki_spec() -> AttackSpec:
    """The Karlsson-Koashi-Imoto two-ancilla-qubit attack instance."""
    eps = np.zeros((4, 8), dtype=complex)
    eps[0, 0] = 1.0  # |0>_C |00>_E
    eps[1, 1] = 1.0  # |0>_C |01>_E
    eps[2, 6] = 1.0  # |1>_C |10>_E
    eps[3, 7] = 1.0  # |1>_C |11>_E
    a = 0.5 * np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex)
    return AttackSpec(4, a, eps)


def global_state(spec: AttackSpec) -> StateVector:
    """The post-interaction state on registers A, B and the joint C+E."""
    vec = _global_vectors(SpecStack.of([spec]))[0]
    return StateVector(("A", "B", "CE"), (2, 2, spec.joint_dim), vec)


def _global_vectors(stack: SpecStack) -> np.ndarray:
    """The global state vectors of the stack's specs, stacked
    (n, 4 * joint_dim): block 2i + j of each holds a_ij eps_ij."""
    a = stack.a.reshape(-1, 4)  # row-major: EPS_ORDER
    # 0.0 + ... makes every zero entry +0, as accumulating into np.zeros does
    vecs = (0.0 + a[:, :, None] * stack.eps).reshape(len(a), -1)
    norms = np.sqrt((np.abs(vecs) ** 2).sum(axis=1))
    bad = np.abs(norms - 1.0) > qmath.STRUCT_TOL
    if bad.any():
        raise SpecError(f"global state norm {float(norms[np.argmax(bad)])} deviates from 1")
    return vecs


#: The outcome pairs (Alice, Bob) of a case in branch order: row k of a
#: table's arrays and of a case's coefficient stack is branch BRANCHES[k].
BRANCHES = tuple((m, n) for m in _SIGNS for n in _SIGNS)
#: The indices of the two branches of each mixture of :func:`_mixtures`:
#: Alice +, Alice -, the same-sign set and the different-sign set.
_MIXTURE_BRANCHES = np.array([
    [BRANCHES.index(branch) for branch in pair]
    for pair in (*(tuple((m, n) for n in _SIGNS) for m in _SIGNS), SAME_BRANCHES, DIFF_BRANCHES)
])
#: The same-sign and the different-sign branches (rows 0, 3 and 1, 2 of
#: BRANCHES) as slices of a table's rows.
_SAME_ROWS, _DIFF_ROWS = slice(0, 4, 3), slice(1, 3)
#: The branch indices of the same-sign and different-sign member of each
#: of CONSTRAINT_PAIRS.
_PAIR_SAME, _PAIR_DIFF = np.array(
    [[BRANCHES.index(branch) for branch in pair] for pair in CONSTRAINT_PAIRS]
).T

#: The (+, -) kets of each protocol basis, stacked (2, 2).
_KETS = {basis: np.array(basis_kets(basis)) for basis in PROTOCOL_BASES}
#: The kets of each protocol basis (basis, m, A) and of each case's Bob
#: basis (case, 1, n, B), as :func:`_case_tables` projects onto them.
_ALICE_KETS = np.array([_KETS[basis] for basis in PROTOCOL_BASES])
_BOB_KETS = np.array([_KETS[case.bob_basis] for case in CASES])[:, None]


def conditional_states(spec: AttackSpec, case: Case) -> dict:
    """Project the global state onto each (Alice, Bob) outcome pair: {(alice,
    bob): (weight, normalised attacker state)} in BRANCHES order. A branch of
    probability at most ZERO_BRANCH_TOL does not occur, and its state is None."""
    t = _case_tables(_global_vectors(SpecStack.of([spec])), (case,))
    rows = zip(BRANCHES, t.weights[0, 0].tolist(), t.occurs[0, 0].tolist(), t.states[0, 0])
    return {branch: (weight, phi if occurs else None) for branch, weight, occurs, phi in rows}


#: The conditional states of a stack of global states in each of ``cases``,
#: row k of each case belonging to the outcome pair BRANCHES[k]: ``weights``
#: and ``occurs`` (spec, case, branch), ``states`` (spec, case, branch, d),
#: the zero state where a branch does not occur.
_CaseTables = namedtuple("_CaseTables", "cases weights states occurs")


def _case_tables(vecs: np.ndarray, cases: tuple[Case, ...] = CASES) -> _CaseTables:
    """The conditional state tables of each case of each global state vector
    (the rows of ``vecs``) in two stacked projections: Alice's in each basis
    her cases use, then Bob's in every branch. Cases with the same Alice
    basis share her two branches."""
    k = len(vecs)
    alice = list(dict.fromkeys(case.alice_basis for case in cases))
    p_a, after_a = _project_stack(
        vecs.reshape(k, 1, 1, 2, -1), _ALICE_KETS[[PROTOCOL_BASES.index(b) for b in alice]]
    )
    row = [alice.index(case.alice_basis) for case in cases]
    # Alice's branches as (spec, basis, m, B, CE), each projected by Bob's
    # kets (case, n, B)
    p_b, states = _project_stack(
        after_a.reshape(k, len(alice), 2, 2, -1)[:, row][:, :, :, None],
        _BOB_KETS[[CASES.index(case) for case in cases]],
    )
    # An Alice branch that does not occur left the zero state, so each of its
    # Bob branches has probability 0 and weight 0 exactly.
    weights = (p_a[:, row][..., None] * p_b).reshape(k, len(cases), 4)
    totals = weights.sum(axis=-1)
    bad = np.abs(totals - 1.0) > qmath.STRUCT_TOL
    if bad.any():
        total = totals.flat[np.argmax(bad)]
        raise ConsistencyError(f"conditional weights sum to {total}, expected 1")
    occurs = (p_b > ZERO_BRANCH_TOL).reshape(k, len(cases), 4)
    return _CaseTables(cases, weights, states.reshape(k, len(cases), 4, -1), occurs)


#: <a_m|i><b_n|j> of each case's branches, stacked (case, branch, eps row):
#: branch (m, n) of the global state is sum_ij <a_m|i><b_n|j> a_ij eps_ij up
#: to the overall projector normalisation.
_BRA_PRODUCTS = np.array([
    np.kron(np.conj(_KETS[case.alice_basis]), np.conj(_KETS[case.bob_basis])) for case in CASES
])

#: Product of a same-sign and a different-sign branch weight (two
#: probabilities) at or below which the pair imposes no constraint: their
#: geometric mean is at most ZERO_BRANCH_TOL, so one branch never occurs.
_PAIR_WEIGHT_TOL = ZERO_BRANCH_TOL**2  # 1e-24 as a double


@dataclass
class DetectionResiduals:
    """Magnitudes that must all vanish for the attacker to escape detection.

    ``per_case`` holds, for each basis case, the four normalised overlaps
    between announcement-set branches. ``products`` holds the six
    amplitude-weighted ancilla overlaps |a_kl* a_mn <eps_kl|eps_mn>| and
    ``magnitude_gaps`` the two gaps ||a00|-|a11||, ||a01|-|a10||; these
    eight aggregate values vanish exactly when all sixteen case values do.
    """

    per_case: dict[Case, tuple[float, float, float, float]]
    products: tuple[float, ...]
    magnitude_gaps: tuple[float, float]

    @property
    def max_case_residual(self) -> float:
        return max(v for vals in self.per_case.values() for v in vals)

    @property
    def all_values(self) -> tuple[float, ...]:
        flat = tuple(v for c in CASES for v in self.per_case[c])
        return flat + self.products + self.magnitude_gaps


def detection_residuals(spec: AttackSpec) -> DetectionResiduals:
    """Evaluate the zero-error constraints through their bilinear forms.

    The case overlaps are computed from the amplitude array and the ancilla
    Gram matrix alone (no explicit state construction), so they provide an
    independent route against :func:`conditional_states`. The branch
    coefficients C of the four cases (case, branch, eps row) give every
    form in one stacked product (conj(C) @ gram) @ C^T: the branch weights
    on its diagonals, the same/different cross terms off them.
    """
    return _residuals(spec, _residual_stack(SpecStack.of([spec]))[0])


#: The (r, s) eps row pairs of DetectionResiduals.products.
_PRODUCT_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _residual_stack(stack: SpecStack) -> np.ndarray:
    """The per-case values of :func:`detection_residuals` of the stack's
    specs, stacked (spec, case, 4), with every spec's bilinear forms in one
    stacked product."""
    a, eps = stack.a, stack.eps
    grams = eps.conj() @ np.swapaxes(eps, 1, 2)
    # Each bra entry is real or imaginary, so these array products round as
    # the products of the single scalars do, bit for bit.
    coeffs = _BRA_PRODUCTS * a.reshape(-1, 1, 1, 4)  # row-major: EPS_ORDER
    forms = (np.conj(coeffs) @ grams[:, None]) @ np.swapaxes(coeffs, -1, -2)
    weights = np.diagonal(forms, axis1=-2, axis2=-1).real
    cross = forms[..., _PAIR_SAME, _PAIR_DIFF]
    w = weights[..., _PAIR_SAME] * weights[..., _PAIR_DIFF]
    # A branch that never occurs imposes no constraint. Its weight product
    # can round below zero, so the square root skips it too.
    occurs = w > _PAIR_WEIGHT_TOL
    return np.divide(
        np.hypot(cross.real, cross.imag), np.sqrt(w, out=np.ones_like(w), where=occurs),
        out=np.zeros_like(w), where=occurs,
    )


def _residuals(spec: AttackSpec, case_vals: np.ndarray) -> DetectionResiduals:
    """The spec's DetectionResiduals from its per-case values (case, 4) of
    :func:`_residual_stack`, with the aggregate products and gaps."""
    avec = spec.a.reshape(4)
    gram = spec.eps.conj() @ spec.eps.T
    # numpy scalars: their complex products and magnitudes round
    # differently from the array loops'
    prods = tuple(float(abs(np.conj(avec[r]) * avec[s] * gram[r, s])) for r, s in _PRODUCT_PAIRS)
    gaps = (float(abs(abs(avec[0]) - abs(avec[3]))), float(abs(abs(avec[1]) - abs(avec[2]))))
    return DetectionResiduals(dict(zip(CASES, map(tuple, case_vals.tolist()))), prods, gaps)


def escape_check(spec: AttackSpec) -> bool:
    """Whether the attacker escapes the eavesdropping check: :func:`escape_outcomes` of it alone."""
    return escape_outcomes(SpecStack.of([spec]))[0]


def rho_pair(spec: AttackSpec, case: Case) -> tuple[np.ndarray, np.ndarray]:
    """Mixed states the attacker must discriminate to learn Alice's bit.

    Each is the mixture of the two conditional states sharing Alice's
    outcome, weighted by the true conditional probabilities (which are
    equal whenever the detection constraints hold).
    """
    rho, _ = _mixtures(_case_tables(_global_vectors(SpecStack.of([spec])), (case,)))
    return rho[0, 0, 0], rho[0, 0, 1]


def _mixtures(tables: _CaseTables) -> tuple[np.ndarray, np.ndarray]:
    """The four mixtures of each case of each spec, stacked
    (spec, case, 4, d, d), with their total weights (spec, case, 4).

    Each mixture weights its two conditional states by their conditional
    probabilities. An announcement set that never occurs gets the zero
    mixture and weight; an Alice outcome that never occurs raises.
    """
    phis, weights = tables.states, tables.weights
    w1, w2 = weights[..., _MIXTURE_BRANCHES[:, 0]], weights[..., _MIXTURE_BRANCHES[:, 1]]
    totals = w1 + w2
    occurs = totals > ZERO_BRANCH_TOL
    if not occurs[..., :2].all():
        _, i, alice = np.unravel_index(np.argmin(occurs[..., :2]), occurs[..., :2].shape)
        raise InfeasibleError(
            f"Alice outcome {_SIGNS[alice].value} never occurs in case {tables.cases[i].key}"
        )
    totals[~occurs] = 0.0
    c1 = np.divide(w1, totals, out=np.zeros_like(totals), where=occurs)[..., None, None]
    c2 = np.divide(w2, totals, out=np.zeros_like(totals), where=occurs)[..., None, None]
    outer = phis[..., :, None] * phis.conj()[..., None, :]
    # 0.0 + ... makes every zero entry +0, as accumulating into np.zeros does
    first, second = outer[:, :, _MIXTURE_BRANCHES[:, 0]], outer[:, :, _MIXTURE_BRANCHES[:, 1]]
    rho = (0.0 + c1 * first) + c2 * second
    return rho, totals


def _helstrom_operators(tables: _CaseTables) -> tuple[np.ndarray, np.ndarray]:
    """The two Helstrom operators p2 rho2 - p1 rho1 of each case of each
    spec, stacked (2 * cases * specs, d, d), with their priors (p1, p2): per
    case, first Alice's - against + outcome, then the different-sign against
    the same-sign set."""
    rho, totals = _mixtures(tables)
    p_plus = totals[..., 0]
    set_total = totals[..., 2] + totals[..., 3]  # a binary partition; renormalise away float drift
    p1 = np.stack([p_plus, totals[..., 2] / set_total], axis=-1)
    p2 = np.stack([1.0 - p_plus, totals[..., 3] / set_total], axis=-1)
    deltas = p2[..., None, None] * rho[:, :, 1::2] - p1[..., None, None] * rho[:, :, 0::2]
    return deltas.reshape(-1, *rho.shape[-2:]), np.stack([p1, p2], axis=-1).reshape(-1, 2)


def _in_basis(tables: _CaseTables, bases: np.ndarray) -> _CaseTables:
    """The tables with each conditional state written in the orthonormal
    columns of its spec's basis, ``bases[s]`` for spec s, which must span
    it: each stays normalised."""
    # one matrix-vector product per state, as basis^dagger @ phi computes it
    adjoints = np.swapaxes(bases.conj(), 1, 2)[:, None, None]
    states = np.matmul(adjoints, tables.states[..., None])[..., 0]
    occurs = tables.occurs
    qmath._check_finite(states)
    deviation = np.where(occurs, np.abs(np.sqrt((np.abs(states) ** 2).sum(axis=-1)) - 1.0), 0.0)
    if (deviation > qmath.STRUCT_TOL).any():
        where = np.unravel_index(np.argmax(deviation > qmath.STRUCT_TOL), deviation.shape)
        alice, bob = BRANCHES[where[2]]
        raise ConsistencyError(
            f"conditional state {alice.value}{bob.value} of case {tables.cases[where[1]].key} "
            f"lost norm {deviation[where]:.3e} outside span(eps)"
        )
    states[~occurs] = 0.0
    return tables._replace(states=states)


def helstrom(rho1, rho2, p1: float, p2: float) -> float:
    """Minimum-error probability for discriminating two mixed states,
    1/2 - 1/2 * ||p2 rho2 - p1 rho1|| with the trace norm."""
    r1, r2 = qmath.as_matrix(rho1), qmath.as_matrix(rho2)
    if r1.shape != r2.shape:
        raise ValueError(f"operator shapes differ: {r1.shape} vs {r2.shape}")
    return _helstrom_errors((p2 * r2 - p1 * r1)[None], [(p1, p2)])[0]


#: Largest deviation from 1 of the sum of two priors (probabilities) that
#: :func:`helstrom` accepts: a few ulps of 1 left by renormalising weights.
_PRIOR_SUM_TOL = 1e-12


def _helstrom_errors(deltas: np.ndarray, priors) -> list[float]:
    """:func:`helstrom` of a stack of operators p2 rho2 - p1 rho1 with their
    priors (p1, p2), from one batched trace-norm sweep."""
    p1, p2 = np.asarray(priors).T
    bad = (p1 < 0.0) | (p2 < 0.0) | (np.abs(p1 + p2 - 1.0) > _PRIOR_SUM_TOL)
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"priors must be nonnegative and sum to 1, got {p1[i]}, {p2[i]}")
    pe = 0.5 - 0.5 * qmath.trace_norm_stack(deltas)
    cap = np.minimum(p1, p2)
    bad = (pe < -_PE_RANGE_SLACK) | (pe > cap + _PE_RANGE_SLACK)
    if bad.any():
        i = np.argmax(bad)
        raise ConsistencyError(f"Helstrom probability {pe[i]} outside [0, {cap[i]}]")
    return np.minimum(np.maximum(pe, 0.0), cap).tolist()


def pe_closed_form(spec: AttackSpec) -> float:
    """Minimum-error probability (1 - 4|a00||a10|)/2, valid only for specs
    that pass the detection constraints."""
    if not escape_check(spec):
        raise InfeasibleError(
            "closed form is only valid for specs satisfying the detection constraints"
        )
    return _closed_form(abs(spec.a[0, 0]), abs(spec.a[1, 0]))


def _closed_form(c: float, s: float) -> float:
    """(1 - 4 c s)/2 for the magnitudes c = |a00| and s = |a10|, held at 0
    where rounding leaves about -1e-16 at the perfect attack c = s = 1/2."""
    return max(0.0, 0.5 * (1.0 - 4.0 * c * s))


def mutual_information(pe: float) -> float:
    """Attacker-dealer mutual information (bits) for a binary secret read
    with error probability pe: 1 + pe log2 pe + (1-pe) log2 (1-pe)."""
    if not 0.0 <= pe <= 1.0:
        raise ValueError(f"error probability must lie in [0, 1], got {pe}")
    return min(1.0, max(0.0, 1.0 + _xlog(pe) + _xlog(1.0 - pe)))


def _xlog(x: float) -> float:
    """x log2 x, 0 at x = 0."""
    return x * math.log2(x) if x > 0.0 else 0.0


def nas_check(spec: AttackSpec) -> tuple[bool, dict]:
    """Conditions for a perfect attack: mutually orthogonal ancilla states
    and every amplitude of magnitude 1/2. Returns (flag, residuals)."""
    gram = spec.eps.conj() @ spec.eps.T
    overlaps = [float(abs(gram[r, s])) for r, s in _PRODUCT_PAIRS]
    gaps = [float(abs(abs(spec.a[i, j]) - 0.5)) for (i, j) in EPS_ORDER]
    ok = max(overlaps) <= DEFAULT_TOL and max(gaps) <= DEFAULT_TOL
    return ok, {"ancilla_overlaps": overlaps, "amplitude_gaps": gaps}


def is_realizable(spec: AttackSpec) -> tuple[bool, dict]:
    """Whether some unitary on B, C, E produces this spec from GHZ x ancilla.

    Necessary and sufficient: the two Alice-branch vectors
    v_i = sum_j a_ij |j>_B eps_ij have squared norm 1/2 and are orthogonal.
    """
    return _realizable(_global_vectors(SpecStack.of([spec]))[0])


def _realizable(vec: np.ndarray) -> tuple[bool, dict]:
    """:func:`is_realizable` of the global state vector ``vec``, whose two
    rows over Alice's register are the branch vectors v_0, v_1."""
    v0, v1 = vec.reshape(2, -1)
    n0 = float((np.abs(v0) ** 2).sum())
    n1 = float((np.abs(v1) ** 2).sum())
    overlap = float(abs(np.vdot(v0, v1)))
    ok = max(abs(n0 - 0.5), abs(n1 - 0.5), overlap) <= DEFAULT_TOL
    return ok, {"branch_norms": [n0, n1], "branch_overlap": overlap}


@dataclass
class AttackReport:
    """Full analysis of one attack specification.

    ``info`` is the mean over the four equiprobable basis cases of the
    information I(pe) read at each case's Helstrom error; on escaping specs
    the cases share one error, and it is evaluated as I(mean pe).
    """

    residuals: DetectionResiduals
    escape_ok: bool
    pe_numeric: dict[Case, float]
    pe_announce: dict[Case, float]
    pe_closed_form: float | None
    info: float
    nas_ok: bool
    realizable: bool


def analyze(spec: AttackSpec) -> AttackReport:
    """Run every check and measure on a spec: :func:`analyze_stack` of it alone."""
    return analyze_stack(SpecStack.of([spec]))[0]


def analyze_stack(stack: SpecStack) -> list[AttackReport]:
    """Run every check and measure on each spec: :func:`report_outcomes`
    with its first error raised.

    Each escape flag is :func:`escape_outcomes`'s, from the residuals read
    once. The global state is projected once into the four conditional
    state tables, and the eight Helstrom problems (per case, Alice's
    outcomes and the two announcement sets) are solved in one trace-norm
    sweep, on an orthonormal basis of span(eps), of dimension at most 4,
    where the C+E register is larger. Each report is bit for bit the spec's
    report alone, and the error raised is the one the first failing spec
    raises alone. :func:`cross_check` holds the reports against the
    redundant routes.
    """
    reports = report_outcomes(stack)
    for report in reports:
        if isinstance(report, Exception):
            raise report
    return reports


def report_outcomes(stack: SpecStack) -> list:
    """Each spec's AttackReport, from :func:`_analysis_pass`, or the error the
    spec raises alone. Where the C+E register is larger than 4, each spec's
    Helstrom problems move to an orthonormal basis of its span(eps), and specs
    whose spans share their dimension go through the pass together; else the
    whole stack does. Only a pass of several specs that raises runs them
    again, each once alone, as a slice of one; if all pass alone, stacking
    them failed and each gets the pass's error.
    """
    spans = [qmath.orthonormal_span(eps) if stack.joint_dim > 4 else None for eps in stack.eps]
    groups: dict[int | None, list[int]] = {}
    for i, span in enumerate(spans):
        groups.setdefault(None if span is None else span.shape[1], []).append(i)

    def run(sub, members):
        try:
            return _analysis_pass(sub, [spans[i] for i in members])
        except (ValueError, RuntimeError) as exc:  # every check raises one of these
            return [exc] * len(members)

    outcomes = {}
    for members in groups.values():
        results = run(stack if len(members) == len(stack) else stack.take(members), members)
        if len(members) > 1 and isinstance(results[0], Exception):
            alone = [run(stack.take(slice(i, i + 1)), [i])[0] for i in members]
            if any(isinstance(result, Exception) for result in alone):
                results = alone
        outcomes.update(zip(members, results))
    return [outcomes[i] for i in range(len(stack))]


def escape_outcomes(stack: SpecStack) -> list[bool]:
    """Each spec's escape flag: its largest detection residual
    (:func:`_residual_stack`) is at most DEFAULT_TOL. No state is built and
    nothing can raise; the constructed-state route that cross-checks the
    flag runs in :func:`cross_check`."""
    return _escapes(_residual_stack(stack)).tolist()


def _escapes(case_vals: np.ndarray) -> np.ndarray:
    """The escape flag of each spec of per-case residuals (spec, case, 4)."""
    return case_vals.max(axis=(1, 2)) <= DEFAULT_TOL


#: Most specs a caller stacks into one pass: the grid points of each ``sweep``
#: pass, and the distinct search points at which ``optimizer.maximize`` closes
#: a batch of whole restarts. At 64 the two restarts of ``optimize --restarts
#: 2`` share one batch; the run times and peak memory that chose it are in
#: CHANGES.md.
STACK_BOUND = 64


def _analysis_pass(stack: SpecStack, spans) -> list[AttackReport]:
    """:func:`analyze_stack` of a stack whose specs, where their Helstrom
    problems move to span(eps), share one span dimension."""
    case_vals = _residual_stack(stack)
    vecs = _global_vectors(stack)
    tables = _case_tables(vecs)
    if spans[0] is not None:
        tables = _in_basis(tables, np.stack(spans))
    errors = _helstrom_errors(*_helstrom_operators(tables))
    n = 2 * len(CASES)
    rows = zip(stack, case_vals, _escapes(case_vals).tolist(), vecs)
    return [
        _report(spec, _residuals(spec, vals), escape, errors[n * s:n * (s + 1)], vec)
        for s, (spec, vals, escape, vec) in enumerate(rows)
    ]


def _report(
    spec: AttackSpec, residuals: DetectionResiduals, escape: bool, errors, vec: np.ndarray,
) -> AttackReport:
    """A spec's report from its row of the stack, residuals, escape flag,
    eight Helstrom errors and global state vector."""
    pe_numeric = {case: errors[2 * i] for i, case in enumerate(CASES)}
    pe_announce = {case: errors[2 * i + 1] for i, case in enumerate(CASES)}
    pes = np.array([pe_numeric[c] for c in CASES])
    if escape:
        pe_cf = _closed_form(abs(spec.a[0, 0]), abs(spec.a[1, 0]))
        info = mutual_information(float(pes.mean()))
    else:
        pe_cf = None
        # The bases are announced, so each of the four equiprobable cases is
        # read with its own error probability.
        info = float(np.mean([mutual_information(pe) for pe in pes]))

    return AttackReport(
        residuals=residuals, escape_ok=escape, pe_numeric=pe_numeric, pe_announce=pe_announce,
        pe_closed_form=pe_cf, info=info, nas_ok=nas_check(spec)[0], realizable=_realizable(vec)[0],
    )


def cross_check(stack: SpecStack, reports) -> None:
    """Hold the stack's reports from :func:`analyze_stack` against the routes
    the analysis leaves out, spec by spec in stack order, and raise the first
    failure as ConsistencyError: each bilinear escape flag against the cross
    overlaps of the constructed same-sign and different-sign conditional
    states (a pair with a branch that does not occur masked out; magnitudes
    within :func:`_route_tie` of each other tie), then, on an escaping spec,
    announcement errors at most DEFAULT_TOL and a per-case spread at most
    _CASE_SPREAD_TOL. ``verify`` and the property tests run it."""
    _, _, states, occurs = _case_tables(_global_vectors(stack))
    overlaps = qmath.cross_overlaps(states[:, :, _SAME_ROWS], states[:, :, _DIFF_ROWS])
    pairs = occurs[:, :, _SAME_ROWS, None] & occurs[:, :, None, _DIFF_ROWS]
    worst_states = np.where(pairs, overlaps, 0.0).max(axis=(1, 2, 3)).tolist()
    tie = _route_tie(stack.joint_dim)
    for report, worst_b in zip(reports, worst_states):
        worst_a = report.residuals.max_case_residual
        if report.escape_ok != (worst_b <= DEFAULT_TOL) and abs(worst_a - worst_b) > tie:
            raise ConsistencyError(
                f"escape routes disagree: bilinear max {worst_a:.3e}, "
                f"state-construction max {worst_b:.3e}, tol {DEFAULT_TOL:.1e}"
            )
        if not report.escape_ok:
            continue
        # A spec just off the escape set may announce below DEFAULT_TOL (the
        # error scales as the residual squared): only escape => perfect holds.
        announce = max(report.pe_announce.values())
        if announce > DEFAULT_TOL:
            raise ConsistencyError(
                f"announcement-set discrimination ({announce:.3e}) "
                f"disagrees with the escape residuals ({worst_a:.3e}) at tol {DEFAULT_TOL:.1e}"
            )
        pes = report.pe_numeric.values()
        spread = max(pes) - min(pes)
        if spread > _CASE_SPREAD_TOL:
            raise ConsistencyError(
                f"per-case error probabilities spread {spread:.3e} on a detection-passing spec"
            )


# ---------------------------------------------------------------------------
# JSON interchange


def _sig12(x: float | None) -> float | None:
    """``x`` rounded to the 12 significant digits every JSON export writes."""
    return None if x is None else float(f"{x:.12g}")


def _complex_pairs(arr: np.ndarray) -> list:
    """Each entry as [re, im], floats that JSON writes as their round-trip
    repr: a spec file loads back bit for bit, flags included."""
    return [[float(z.real), float(z.imag)] for z in arr]


def spec_to_dict(spec: AttackSpec) -> dict:
    return {
        "ancilla_dim": spec.ancilla_dim,
        "a": _complex_pairs(spec.a.reshape(4)),
        "eps": [_complex_pairs(row) for row in spec.eps],
    }


def spec_from_dict(data: dict) -> AttackSpec:
    if not isinstance(data, dict):
        raise SpecError(f"spec document must be an object, got {type(data).__name__}")
    missing = {"ancilla_dim", "a", "eps"} - set(data)
    if missing:
        raise SpecError(f"spec document missing keys: {sorted(missing)}")
    d = _ancilla_dim(data["ancilla_dim"])
    try:
        a_pairs = [[_number(re), _number(im)] for re, im in data["a"]]
        eps_pairs = [[[_number(re), _number(im)] for re, im in row] for row in data["eps"]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"malformed spec document: {exc}") from exc
    if len(a_pairs) != 4:
        raise SpecError(f"'a' must list 4 row-major amplitudes, got {len(a_pairs)}")
    if len(eps_pairs) != 4 or any(len(row) != 2 * d for row in eps_pairs):
        raise SpecError(f"'eps' must hold 4 states of {2 * d} amplitudes each")
    a = np.array([complex(re, im) for re, im in a_pairs]).reshape(2, 2)
    eps = np.array([[complex(re, im) for re, im in row] for row in eps_pairs])
    return AttackSpec(d, a, eps)


def _number(x) -> float:
    """A JSON number (int or float, not a bool or a string) as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"amplitude entries must be numbers, got {x!r}")
    return float(x)


def save_spec(spec: AttackSpec, path) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n")


def load_spec(path) -> AttackSpec:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpecError(f"spec file {path} nests too deep to read") from exc
    return spec_from_dict(data)


def report_to_dict(report: AttackReport) -> dict:
    return {
        "case_residuals": {c.key: [_sig12(v) for v in report.residuals.per_case[c]] for c in CASES},
        "aggregate_products": [_sig12(v) for v in report.residuals.products],
        "magnitude_gaps": [_sig12(v) for v in report.residuals.magnitude_gaps],
        "escape_ok": report.escape_ok,
        "pe_numeric": {c.key: _sig12(report.pe_numeric[c]) for c in CASES},
        "pe_announce": {c.key: _sig12(report.pe_announce[c]) for c in CASES},
        "pe_closed_form": _sig12(report.pe_closed_form),
        "info": _sig12(report.info),
        "nas_ok": report.nas_ok,
        "realizable": report.realizable,
        "tol": _sig12(DEFAULT_TOL),
    }


def report_to_json(report: AttackReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
