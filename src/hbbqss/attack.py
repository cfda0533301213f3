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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import qmath
from .qstate import Basis, Sign, StateVector, basis_kets, project_qubit

#: Default tolerance for the escape / NAS boolean checks.
DEFAULT_TOL = 1e-9

#: Largest gap between the two escape routes' magnitudes that counts as
#: round-off (the widest seen over 400 near-perfect rotations: 2.7e-16).
_ROUTE_TIE = 1e-14

#: Amplitude index order (i, j) for the rows of AttackSpec.eps.
EPS_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))

_SIGNS = (Sign.PLUS, Sign.MINUS)


class SpecError(ValueError):
    """An attack specification violates its invariants or schema."""


class InfeasibleError(ValueError):
    """An operation was invoked outside its validity domain."""


class ConsistencyError(RuntimeError):
    """Two redundant computation routes disagreed beyond tolerance."""


class Case(Enum):
    """Alice's and Bob's announced bases for a sifted round."""

    XX = (Basis.X, Basis.X)
    XY = (Basis.X, Basis.Y)
    YX = (Basis.Y, Basis.X)
    YY = (Basis.Y, Basis.Y)

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
        for c in cls:
            if c.value == (alice, bob):
                return c
        raise ValueError(f"no case for bases {alice!r}, {bob!r}")


CASES = (Case.XX, Case.XY, Case.YX, Case.YY)

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
    (0,0), (0,1), (1,0), (1,1), each of dimension 2 * ancilla_dim.
    """

    ancilla_dim: int
    a: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        d = int(self.ancilla_dim)
        if d < 1:
            raise SpecError(f"ancilla_dim must be >= 1, got {self.ancilla_dim}")
        a = np.asarray(self.a, dtype=complex)
        eps = np.asarray(self.eps, dtype=complex)
        if a.shape != (2, 2):
            raise SpecError(f"amplitude array must be 2x2, got shape {a.shape}")
        if eps.shape != (4, 2 * d):
            raise SpecError(
                f"eps must hold 4 states of dimension {2 * d}, got shape {eps.shape}"
            )
        if not (np.isfinite(a).all() and np.isfinite(eps).all()):
            raise SpecError("non-finite entries in attack spec")
        total = float((np.abs(a) ** 2).sum())
        if abs(total - 1.0) > qmath.STRUCT_TOL:
            raise SpecError(f"amplitude magnitudes sum to {total}, expected 1")
        for idx, row in enumerate(eps):
            n = float(np.sqrt((np.abs(row) ** 2).sum()))
            if abs(n - 1.0) > qmath.STRUCT_TOL:
                raise SpecError(f"eps row {EPS_ORDER[idx]} has norm {n}, expected 1")
        object.__setattr__(self, "ancilla_dim", d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "eps", eps)

    @property
    def joint_dim(self) -> int:
        """Dimension of the C+E register the ancilla states live on."""
        return 2 * self.ancilla_dim

    def amplitude(self, i: int, j: int) -> complex:
        return complex(self.a[i, j])


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
    d2 = spec.joint_dim
    vec = np.zeros(4 * d2, dtype=complex)
    for row, (i, j) in enumerate(EPS_ORDER):
        block = 2 * i + j
        vec[block * d2:(block + 1) * d2] += spec.a[i, j] * spec.eps[row]
    n = float(np.sqrt((np.abs(vec) ** 2).sum()))
    if abs(n - 1.0) > qmath.STRUCT_TOL:
        raise SpecError(f"global state norm {n} deviates from 1")
    return StateVector(("A", "B", "CE"), (2, 2, d2), vec)


@dataclass
class ConditionalStateTable:
    """Normalised attacker states conditioned on Alice's and Bob's outcomes."""

    case: Case
    entries: dict[tuple[Sign, Sign], tuple[float, np.ndarray | None]]

    def weight(self, alice: Sign, bob: Sign) -> float:
        return self.entries[(alice, bob)][0]

    def phi(self, alice: Sign, bob: Sign) -> np.ndarray | None:
        return self.entries[(alice, bob)][1]


def conditional_states(spec: AttackSpec, case: Case) -> ConditionalStateTable:
    """Project the global state onto each (Alice, Bob) outcome pair."""
    return _case_tables(global_state(spec), (case,))[0]


def _case_tables(psi: StateVector, cases=CASES) -> list[ConditionalStateTable]:
    """The conditional state table of each case from one global state;
    cases with the same Alice basis share her two projections."""
    after_alice: dict[tuple[Basis, Sign], tuple[float, StateVector | None]] = {}
    tables = []
    for case in cases:
        kets_b = basis_kets(case.bob_basis)
        entries: dict[tuple[Sign, Sign], tuple[float, np.ndarray | None]] = {}
        total = 0.0
        for m, ket_a in zip(_SIGNS, basis_kets(case.alice_basis)):
            if (case.alice_basis, m) not in after_alice:
                after_alice[case.alice_basis, m] = project_qubit(psi, "A", ket_a)
            p_a, after_a = after_alice[case.alice_basis, m]
            for n, ket_b in zip(_SIGNS, kets_b):
                if after_a is None:
                    entries[(m, n)] = (0.0, None)
                    continue
                p_b, after_b = project_qubit(after_a, "B", ket_b)
                weight = p_a * p_b
                entries[(m, n)] = (weight, after_b.vec if after_b is not None else None)
                total += weight
        if abs(total - 1.0) > qmath.STRUCT_TOL:
            raise ConsistencyError(f"conditional weights sum to {total}, expected 1")
        tables.append(ConditionalStateTable(case, entries))
    return tables


def _branch_coefficients(spec: AttackSpec, case: Case) -> dict[tuple[Sign, Sign], np.ndarray]:
    """Coefficient of each eps row in the (unnormalised) conditional branches.

    Branch (m, n) of the global state is sum_ij <a_m|i><b_n|j> a_ij eps_ij
    up to the overall projector normalisation; the returned 4-vectors hold
    those coefficients in EPS_ORDER.
    """
    rows_i, rows_j = _EPS_INDEX
    bra_a = np.conj(np.array(basis_kets(case.alice_basis)))[:, None, rows_i]
    bra_b = np.conj(np.array(basis_kets(case.bob_basis)))[None, :, rows_j]
    # Each bra entry is real or imaginary, so these array products round as
    # the products of the single scalars do, bit for bit.
    coeff = bra_a * bra_b * spec.a[rows_i, rows_j]
    return {(m, n): coeff[k, l] for k, m in enumerate(_SIGNS) for l, n in enumerate(_SIGNS)}


#: The (i, j) index of each row of EPS_ORDER, as two index arrays.
_EPS_INDEX = tuple(np.array(index) for index in zip(*EPS_ORDER))


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
    def max_aggregate(self) -> float:
        return max(self.products + self.magnitude_gaps)

    @property
    def all_values(self) -> tuple[float, ...]:
        flat = tuple(v for c in CASES for v in self.per_case[c])
        return flat + self.products + self.magnitude_gaps


def detection_residuals(spec: AttackSpec) -> DetectionResiduals:
    """Evaluate the zero-error constraints through their bilinear forms.

    The case overlaps are computed from the amplitude array and the ancilla
    Gram matrix alone (no explicit state construction), so they provide an
    independent route against :func:`conditional_states`.
    """
    gram = spec.eps.conj() @ spec.eps.T
    per_case: dict[Case, tuple[float, float, float, float]] = {}
    for case in CASES:
        coeffs = _branch_coefficients(spec, case)
        weights = {k: float((np.conj(c) @ gram @ c).real) for k, c in coeffs.items()}
        vals = []
        for same, diff in CONSTRAINT_PAIRS:
            cross = complex(np.conj(coeffs[same]) @ gram @ coeffs[diff])
            w = weights[same] * weights[diff]
            if w > 1e-24:
                vals.append(abs(cross) / math.sqrt(w))
            else:
                # A branch that never occurs imposes no constraint.
                vals.append(0.0)
        per_case[case] = tuple(vals)

    avec = np.array([spec.a[i, j] for (i, j) in EPS_ORDER])
    prods = tuple(
        float(abs(np.conj(avec[r]) * avec[s] * gram[r, s]))
        for r, s in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    )
    gaps = (
        float(abs(abs(avec[0]) - abs(avec[3]))),
        float(abs(abs(avec[1]) - abs(avec[2]))),
    )
    return DetectionResiduals(per_case, prods, gaps)


def announcement_sets(table: ConditionalStateTable):
    """The two sets of conditional states the attacker must tell apart
    on check rounds: same-sign branches versus different-sign branches."""
    same = [table.phi(m, n) for (m, n) in SAME_BRANCHES if table.phi(m, n) is not None]
    diff = [table.phi(m, n) for (m, n) in DIFF_BRANCHES if table.phi(m, n) is not None]
    return same, diff


def escape_check(spec: AttackSpec, tol: float = DEFAULT_TOL) -> bool:
    """Whether the attacker escapes the eavesdropping check.

    Two routes must agree: the bilinear residuals and a direct
    orthogonality test on explicitly constructed conditional states. A
    disagreement is surfaced as ConsistencyError, never silently resolved.
    """
    tables = [conditional_states(spec, case) for case in CASES]
    return _escape_flag(detection_residuals(spec), tables, tol)


def _escape_flag(
    residuals: DetectionResiduals, tables: list[ConditionalStateTable], tol: float
) -> bool:
    """The escape flag of the bilinear residuals, asserted against the
    cross overlaps of the announcement sets of the constructed states.

    Flags that differ only because the two magnitudes straddle ``tol`` by
    round-off (within _ROUTE_TIE of each other) are not a disagreement.
    """
    route_a = residuals.max_case_residual <= tol

    route_b = True
    worst = 0.0
    for table in tables:
        same, diff = announcement_sets(table)
        if not same or not diff:
            continue
        ok, mag = qmath.cross_gram_is_zero(same, diff, tol)
        worst = max(worst, mag)
        route_b = route_b and ok
    if route_a != route_b and abs(residuals.max_case_residual - worst) > _ROUTE_TIE:
        raise ConsistencyError(
            f"escape routes disagree: bilinear max {residuals.max_case_residual:.3e}, "
            f"state-construction max {worst:.3e}, tol {tol:.1e}"
        )
    return route_a


def rho_pair(spec: AttackSpec, case: Case) -> tuple[np.ndarray, np.ndarray]:
    """Mixed states the attacker must discriminate to learn Alice's bit.

    Each is the mixture of the two conditional states sharing Alice's
    outcome, weighted by the true conditional probabilities (which are
    equal whenever the detection constraints hold).
    """
    rho, _ = _mixtures([conditional_states(spec, case)])
    return rho[0, 0], rho[0, 1]


#: The outcome pairs of a table in branch order, and the indices of the two
#: branches of each mixture of :func:`_mixtures`: Alice +, Alice -, the
#: same-sign set and the different-sign set.
_BRANCHES = tuple((m, n) for m in _SIGNS for n in _SIGNS)
_MIXTURE_BRANCHES = np.array([
    [_BRANCHES.index(branch) for branch in pair]
    for pair in (*(tuple((m, n) for n in _SIGNS) for m in _SIGNS), SAME_BRANCHES, DIFF_BRANCHES)
])


def _mixtures(tables: list[ConditionalStateTable]) -> tuple[np.ndarray, np.ndarray]:
    """The four mixtures of each table, stacked (tables, 4, d, d), with
    their total weights (tables, 4).

    Each mixture weights its two conditional states by their conditional
    probabilities. An announcement set that never occurs gets the zero
    mixture and weight; an Alice outcome that never occurs raises.
    """
    dim = next(phi.shape[0] for t in tables for _, phi in t.entries.values() if phi is not None)
    phis = np.zeros((len(tables), 4, dim), dtype=complex)
    weights = np.empty((len(tables), 4))
    for i, table in enumerate(tables):
        for j, key in enumerate(_BRANCHES):
            weights[i, j], phi = table.entries[key]
            if phi is not None:
                phis[i, j] = phi
    w1, w2 = weights[:, _MIXTURE_BRANCHES[:, 0]], weights[:, _MIXTURE_BRANCHES[:, 1]]
    totals = w1 + w2
    occurs = totals > 1e-12
    for table, ok in zip(tables, occurs):
        for alice, alice_ok in zip(_SIGNS, ok[:2]):
            if not alice_ok:
                raise InfeasibleError(
                    f"Alice outcome {alice.value} never occurs in case {table.case.key}"
                )
    totals[~occurs] = 0.0
    c1 = np.divide(w1, totals, out=np.zeros_like(totals), where=occurs)[..., None, None]
    c2 = np.divide(w2, totals, out=np.zeros_like(totals), where=occurs)[..., None, None]
    outer = phis[..., :, None] * phis.conj()[..., None, :]
    # 0.0 + ... makes every zero entry +0, as accumulating into np.zeros does
    rho = (0.0 + c1 * outer[:, _MIXTURE_BRANCHES[:, 0]]) + c2 * outer[:, _MIXTURE_BRANCHES[:, 1]]
    return rho, totals


def _helstrom_operators(tables: list[ConditionalStateTable]) -> tuple[np.ndarray, np.ndarray]:
    """The two Helstrom operators p2 rho2 - p1 rho1 of each table, stacked
    (2 * len(tables), d, d), with their priors (p1, p2): per table, first
    Alice's - against + outcome, then the different-sign against the
    same-sign set."""
    rho, totals = _mixtures(tables)
    p_plus = totals[:, 0]
    set_total = totals[:, 2] + totals[:, 3]  # a binary partition; renormalise away float drift
    p1 = np.stack([p_plus, totals[:, 2] / set_total], axis=1)
    p2 = np.stack([1.0 - p_plus, totals[:, 3] / set_total], axis=1)
    deltas = p2[..., None, None] * rho[:, 1::2] - p1[..., None, None] * rho[:, 0::2]
    return deltas.reshape(-1, *rho.shape[2:]), np.stack([p1, p2], axis=-1).reshape(-1, 2)


def _in_basis(table: ConditionalStateTable, basis: np.ndarray) -> ConditionalStateTable:
    """The table with each conditional state written in the orthonormal
    columns of ``basis``, which must span it: each stays normalised."""
    entries = {}
    for key, (weight, phi) in table.entries.items():
        if phi is not None:
            phi = basis.conj().T @ phi
            deviation = abs(qmath.norm(phi) - 1.0)
            if deviation > qmath.STRUCT_TOL:
                raise ConsistencyError(
                    f"conditional state {key[0].value}{key[1].value} of case "
                    f"{table.case.key} lost norm {deviation:.3e} outside span(eps)"
                )
        entries[key] = (weight, phi)
    return ConditionalStateTable(table.case, entries)


def helstrom(rho1, rho2, p1: float, p2: float) -> float:
    """Minimum-error probability for discriminating two mixed states,
    1/2 - 1/2 * ||p2 rho2 - p1 rho1|| with the trace norm."""
    r1, r2 = qmath.as_matrix(rho1), qmath.as_matrix(rho2)
    if r1.shape != r2.shape:
        raise ValueError(f"operator shapes differ: {r1.shape} vs {r2.shape}")
    return _helstrom_errors((p2 * r2 - p1 * r1)[None], [(p1, p2)])[0]


def _helstrom_errors(deltas: np.ndarray, priors) -> list[float]:
    """:func:`helstrom` of a stack of operators p2 rho2 - p1 rho1 with their
    priors (p1, p2), from one batched trace-norm sweep."""
    for p1, p2 in priors:
        if p1 < 0.0 or p2 < 0.0 or abs(p1 + p2 - 1.0) > 1e-12:
            raise ValueError(f"priors must be nonnegative and sum to 1, got {p1}, {p2}")
    errors = []
    for norm, (p1, p2) in zip(qmath.trace_norm_stack(deltas), priors):
        pe = 0.5 - 0.5 * norm
        cap = min(p1, p2)
        if pe < -1e-9 or pe > cap + 1e-9:
            raise ConsistencyError(f"Helstrom probability {pe} outside [0, {cap}]")
        errors.append(float(min(max(pe, 0.0), cap)))
    return errors


def pe_closed_form(spec: AttackSpec, tol: float = DEFAULT_TOL) -> float:
    """Minimum-error probability (1 - 4|a00||a10|)/2, valid only for specs
    that pass the detection constraints."""
    if not escape_check(spec, tol):
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

    def xlog(x: float) -> float:
        return x * math.log2(x) if x > 0.0 else 0.0

    return min(1.0, max(0.0, 1.0 + xlog(pe) + xlog(1.0 - pe)))


def nas_check(spec: AttackSpec, tol: float = DEFAULT_TOL) -> tuple[bool, dict]:
    """Conditions for a perfect attack: mutually orthogonal ancilla states
    and every amplitude of magnitude 1/2. Returns (flag, residuals)."""
    gram = spec.eps.conj() @ spec.eps.T
    overlaps = [
        float(abs(gram[r, s])) for r, s in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    ]
    gaps = [float(abs(abs(spec.a[i, j]) - 0.5)) for (i, j) in EPS_ORDER]
    ok = max(overlaps) <= tol and max(gaps) <= tol
    return ok, {"ancilla_overlaps": overlaps, "amplitude_gaps": gaps}


def is_realizable(spec: AttackSpec, tol: float = DEFAULT_TOL) -> tuple[bool, dict]:
    """Whether some unitary on B, C, E produces this spec from GHZ x ancilla.

    Necessary and sufficient: the two Alice-branch vectors
    v_i = sum_j a_ij |j>_B eps_ij have squared norm 1/2 and are orthogonal.
    """
    v0, v1 = branch_vectors(spec)
    n0 = float((np.abs(v0) ** 2).sum())
    n1 = float((np.abs(v1) ** 2).sum())
    overlap = float(abs(np.vdot(v0, v1)))
    ok = abs(n0 - 0.5) <= tol and abs(n1 - 0.5) <= tol and overlap <= tol
    return ok, {"branch_norms": [n0, n1], "branch_overlap": overlap}


def branch_vectors(spec: AttackSpec) -> tuple[np.ndarray, np.ndarray]:
    """The B+C+E vectors multiplying Alice's |0> and |1> components."""
    d2 = spec.joint_dim
    out = []
    for i in (0, 1):
        v = np.zeros(2 * d2, dtype=complex)
        for j in (0, 1):
            row = EPS_ORDER.index((i, j))
            v[j * d2:(j + 1) * d2] += spec.a[i, j] * spec.eps[row]
        out.append(v)
    return out[0], out[1]


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
    tol: float


def analyze(spec: AttackSpec, tol: float = DEFAULT_TOL) -> AttackReport:
    """Run every check and measure on a spec and cross-validate the routes.

    The global state is projected once into the four conditional state
    tables; the escape routes, both Helstrom errors of every case and the
    per-case spread all read them. Every conditional state lies in
    span(eps), of dimension at most 4, so when the C+E register is larger
    the Helstrom problems are solved on an orthonormal basis of that span;
    the escape routes keep the full states. The eight Helstrom problems
    (per case, Alice's outcomes and the two announcement sets) are stacked
    and solved in one trace-norm sweep.
    """
    residuals = detection_residuals(spec)
    tables = _case_tables(global_state(spec))
    escape = _escape_flag(residuals, tables, tol)
    if spec.joint_dim > 4:
        span = qmath.orthonormal_span(spec.eps)
        tables = [_in_basis(table, span) for table in tables]

    errors = _helstrom_errors(*_helstrom_operators(tables))
    pe_numeric = {case: errors[2 * i] for i, case in enumerate(CASES)}
    pe_announce = {case: errors[2 * i + 1] for i, case in enumerate(CASES)}

    # The announcement error scales as the residual squared, so a spec just
    # off the escape set may still announce with an error below tol; only
    # escape => perfect announcements holds at one tolerance.
    if escape and max(pe_announce.values()) > tol:
        raise ConsistencyError(
            f"announcement-set discrimination ({max(pe_announce.values()):.3e}) "
            f"disagrees with the escape residuals "
            f"({residuals.max_case_residual:.3e}) at tol {tol:.1e}"
        )

    pes = np.array([pe_numeric[c] for c in CASES])
    if escape:
        spread = float(pes.max() - pes.min())
        if spread > 1e-6:
            raise ConsistencyError(
                f"per-case error probabilities spread {spread:.3e} on a "
                f"detection-passing spec"
            )
        pe_cf = _closed_form(abs(spec.a[0, 0]), abs(spec.a[1, 0]))
        info = mutual_information(float(pes.mean()))
    else:
        pe_cf = None
        # The bases are announced, so each of the four equiprobable cases is
        # read with its own error probability.
        info = float(np.mean([mutual_information(pe) for pe in pes]))

    nas_ok, _ = nas_check(spec, tol)
    realizable, _ = is_realizable(spec, tol)
    return AttackReport(
        residuals=residuals,
        escape_ok=escape,
        pe_numeric=pe_numeric,
        pe_announce=pe_announce,
        pe_closed_form=pe_cf,
        info=info,
        nas_ok=nas_ok,
        realizable=realizable,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# JSON interchange


def _complex_pairs(arr: np.ndarray) -> list:
    return [[float(f"{z.real:.12g}"), float(f"{z.imag:.12g}")] for z in arr]


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
    try:
        d = int(data["ancilla_dim"])
        a_pairs = [[float(re), float(im)] for re, im in data["a"]]
        eps_pairs = [[[float(re), float(im)] for re, im in row] for row in data["eps"]]
    except (TypeError, ValueError) as exc:
        raise SpecError(f"malformed spec document: {exc}") from exc
    if len(a_pairs) != 4:
        raise SpecError(f"'a' must list 4 row-major amplitudes, got {len(a_pairs)}")
    if len(eps_pairs) != 4 or any(len(row) != 2 * d for row in eps_pairs):
        raise SpecError(f"'eps' must hold 4 states of {2 * d} amplitudes each")
    a = np.array([complex(re, im) for re, im in a_pairs]).reshape(2, 2)
    eps = np.array([[complex(re, im) for re, im in row] for row in eps_pairs])
    return AttackSpec(d, a, eps)


def save_spec(spec: AttackSpec, path) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n")


def load_spec(path) -> AttackSpec:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {path} is not valid JSON: {exc}") from exc
    return spec_from_dict(data)


def report_to_dict(report: AttackReport) -> dict:
    def num(x):
        return None if x is None else float(f"{x:.12g}")

    return {
        "case_residuals": {c.key: [num(v) for v in report.residuals.per_case[c]] for c in CASES},
        "aggregate_products": [num(v) for v in report.residuals.products],
        "magnitude_gaps": [num(v) for v in report.residuals.magnitude_gaps],
        "escape_ok": report.escape_ok,
        "pe_numeric": {c.key: num(report.pe_numeric[c]) for c in CASES},
        "pe_announce": {c.key: num(report.pe_announce[c]) for c in CASES},
        "pe_closed_form": num(report.pe_closed_form),
        "info": num(report.info),
        "nas_ok": report.nas_ok,
        "realizable": report.realizable,
        "tol": num(report.tol),
    }


def report_to_json(report: AttackReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
