"""Numerical maximisation of the attacker's information gain.

On the family of specs passing the detection constraints with mutually
orthogonal ancilla states, the amplitude magnitudes reduce to a single
parameter c = |a00| = |a11| (with |a01| = |a10| = sqrt(1/2 - c^2)), and the
information is a smooth unimodal function of c. A golden-section search
over c combined with random restarts over the amplitude phases verifies
that the maximum is one full bit, attained at c = 1/2. Random family points
with random orthonormal ancilla states feed the built-in checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attack import (
    CASES,
    AttackSpec,
    ConsistencyError,
    SpecError,
    _sig12,
    analyze,
    mutual_information,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Bracket width at which the one-dimensional search stops.
BRACKET_TOL = 1e-10

#: Iteration cap for the one-dimensional search.
MAX_ITERS = 200

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class AttackFamilyPoint:
    """A point of the detection-passing family.

    ``c`` is the shared magnitude of the two diagonal amplitudes; the two
    off-diagonal magnitudes follow from normalisation. ``phases`` rotates
    the four amplitudes; ``eps`` optionally supplies an explicit ancilla
    state quadruple (mutually orthonormal by default).
    """

    c: float
    phases: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    eps: np.ndarray | None = None

    def __post_init__(self):
        if not -1e-12 <= self.c <= INV_SQRT2 + 1e-12:
            raise SpecError(f"c must lie in [0, 1/sqrt(2)], got {self.c}")

    @property
    def s(self) -> float:
        return math.sqrt(max(0.5 - self.c * self.c, 0.0))

    def to_spec(self) -> AttackSpec:
        eps = np.eye(4, dtype=complex) if self.eps is None else np.asarray(self.eps, complex)
        d2 = eps.shape[1]
        if d2 % 2:
            raise SpecError("ancilla states must live on C x E, an even dimension")
        c, s = min(max(self.c, 0.0), INV_SQRT2), self.s
        ph = [np.exp(1j * t) for t in self.phases]
        a = np.array([[c * ph[0], s * ph[1]], [s * ph[2], c * ph[3]]], dtype=complex)
        return AttackSpec(d2 // 2, a, eps)


def objective(point: AttackFamilyPoint) -> float:
    """Information gain (bits) at a family point.

    Evaluated through the closed-form error probability; the numeric
    Helstrom route of the same analysis is required to agree within 1e-9 on
    every basis case.
    """
    report = analyze(point.to_spec())
    if not report.escape_ok:
        raise SpecError("family point does not satisfy the detection constraints")
    pe = report.pe_closed_form
    worst = max(abs(report.pe_numeric[c] - pe) for c in CASES)
    if worst > 1e-9:
        raise ConsistencyError(
            f"closed-form error probability deviates from Helstrom by {worst:.3e}"
        )
    return mutual_information(pe)


@dataclass
class OptimizationResult:
    best_info: float
    best_point: AttackFamilyPoint
    trace: list[tuple[int, float]] = field(default_factory=list)
    converged: bool = False


def maximize(
    restarts: int = 4,
    iters: int = MAX_ITERS,
    tol: float = 1e-6,
    rng: np.random.Generator | None = None,
    bounds: tuple[float, float] = (0.0, INV_SQRT2),
) -> OptimizationResult:
    """Golden-section search over c with random phase restarts.

    The objective is asserted phase-invariant on every restart. The result
    is flagged converged only when the bracket closed within the iteration
    budget and the optimum matches the known analytic maximum (one bit at
    c = 1/2) to the requested tolerance.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    lo, hi = bounds
    if not 0.0 <= lo < hi <= INV_SQRT2 + 1e-12:
        raise ValueError(f"bounds must satisfy 0 <= lo < hi <= 1/sqrt(2), got {bounds}")
    rng = rng if rng is not None else np.random.default_rng(0)

    evals = 0
    best_info = -1.0
    best_point: AttackFamilyPoint | None = None
    trace: list[tuple[int, float]] = []
    bracket_ok = True

    def f(c: float, phases) -> float:
        nonlocal evals, best_info, best_point
        point = AttackFamilyPoint(c, tuple(phases))
        value = objective(point)
        evals += 1
        if value > best_info:
            best_info = value
            best_point = point
        trace.append((evals, best_info))
        return value

    for restart in range(restarts):
        phases = (0.0, 0.0, 0.0, 0.0) if restart == 0 else tuple(rng.uniform(0.0, 2.0 * math.pi, 4))
        _assert_phase_invariant(phases)
        a, b = lo, hi
        x1 = b - _GOLDEN * (b - a)
        x2 = a + _GOLDEN * (b - a)
        f1, f2 = f(x1, phases), f(x2, phases)
        steps = 0
        while (b - a) > BRACKET_TOL and steps < iters:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + _GOLDEN * (b - a)
                f2 = f(x2, phases)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - _GOLDEN * (b - a)
                f1 = f(x1, phases)
            steps += 1
        if (b - a) > BRACKET_TOL:
            bracket_ok = False
        # Endpoints can host the maximum when the bounds are constrained.
        f(a, phases)
        f(b, phases)

    converged = (
        bracket_ok
        and abs(best_info - 1.0) <= tol
        and abs(best_point.c - 0.5) <= 10.0 * tol
    )
    return OptimizationResult(best_info, best_point, trace, converged)


def _assert_phase_invariant(phases) -> None:
    for c in (0.23, 0.45):
        base = objective(AttackFamilyPoint(c))
        shifted = objective(AttackFamilyPoint(c, tuple(phases)))
        if abs(base - shifted) > 1e-10:
            raise ConsistencyError(
                f"objective is not phase-invariant at c={c}: {base} vs {shifted}"
            )


def random_orthonormal(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Random orthonormal rows via Gram-Schmidt on Gaussian vectors."""
    if count > dim:
        raise ValueError(f"cannot fit {count} orthonormal vectors in dimension {dim}")
    rows: list[np.ndarray] = []
    while len(rows) < count:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for w in rows:
            v = v - np.vdot(w, v) * w
        n = np.sqrt((np.abs(v) ** 2).sum())
        if n > 1e-6:
            rows.append(v / n)
    return np.array(rows)


def random_family_point(
    rng: np.random.Generator, c: float | None = None, ancilla_dim: int = 2
) -> AttackFamilyPoint:
    """Random detection-passing point with random orthonormal ancilla states."""
    if c is None:
        c = float(rng.uniform(0.0, INV_SQRT2))
    phases = tuple(rng.uniform(0.0, 2.0 * math.pi, 4))
    eps = random_orthonormal(rng, 2 * ancilla_dim, 4)
    return AttackFamilyPoint(c, phases, eps)


def result_to_dict(result: OptimizationResult) -> dict:
    return {
        "best_info": _sig12(result.best_info),
        "best_point": {
            "c": _sig12(result.best_point.c),
            "s": _sig12(result.best_point.s),
            "phases": [_sig12(p) for p in result.best_point.phases],
        },
        "trace": [[i, _sig12(v)] for i, v in result.trace],
        "converged": result.converged,
    }


def result_to_json(result: OptimizationResult) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True, indent=2) + "\n"


def save_result(result: OptimizationResult, path) -> None:
    Path(path).write_text(result_to_json(result))
