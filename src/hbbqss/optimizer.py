"""Numerical maximisation of the attacker's information gain.

On the family of specs passing the detection constraints with mutually
orthogonal ancilla states, the amplitude magnitudes reduce to a single
parameter c = |a00| = |a11| (with |a01| = |a10| = sqrt(1/2 - c^2)), and the
information is a smooth unimodal function of c. A golden-section search
over c combined with random restarts over the amplitude phases verifies
that the maximum is one full bit, attained at c = 1/2, from closed-form
values that the Helstrom route checks on the phase probes and optima. Random
family points with random orthonormal ancilla states feed the built-in checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .attack import (
    AttackSpec,
    ConsistencyError,
    SpecError,
    _analysis_pass,
    _closed_form,
    _escape_stage,
    _outcomes,
    _raise_first,
    _sig12,
    mutual_information,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Bracket width at which the one-dimensional search stops.
BRACKET_TOL = 1e-10

#: Iteration cap for the one-dimensional search.
MAX_ITERS = 200

#: Largest gap between the closed-form and a case's Helstrom error probability.
CLOSED_FORM_TOL = 1e-9

#: Largest information gap (bits) between a phase probe's two phasings.
PHASE_TOL = 1e-10

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Round-off, an amplitude magnitude, by which c and the search's upper
#: bound may leave [0, 1/sqrt(2)]; to_spec clamps c back into it.
_C_SLACK = 1e-12


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
        if not -_C_SLACK <= self.c <= INV_SQRT2 + _C_SLACK:
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
        ph = np.exp(1j * np.asarray(self.phases, dtype=float))
        a = np.array([[c * ph[0], s * ph[1]], [s * ph[2], c * ph[3]]], dtype=complex)
        return AttackSpec(d2 // 2, a, eps)


def objective(point: AttackFamilyPoint) -> float:
    """Information gain (bits) at a family point.

    Evaluated through the closed-form error probability; the numeric
    Helstrom route of the same analysis is required to agree within
    CLOSED_FORM_TOL on every basis case.
    """
    return _raise_first(_values([point], True))[0]


def _values(points: list[AttackFamilyPoint], checked: bool) -> list[float | Exception]:
    """:func:`objective` of every point, or the exception it raises alone,
    from the stacked passes of :func:`attack._outcomes`: through the full
    analysis when ``checked``, else from the escape stage and the closed
    form alone, the same float without the Helstrom route."""
    stage = _checked_stage if checked else _search_stage
    return _outcomes([p.to_spec() for p in points], stage)


def _checked_stage(specs, spans) -> list[float]:
    return [
        _information(r.escape_ok, r.pe_closed_form, r.pe_numeric.values())
        for r in _analysis_pass(specs, spans)
    ]


def _search_stage(specs, spans) -> list[float]:
    return [
        _information(escape, _closed_form(abs(s.a[0, 0]), abs(s.a[1, 0])))
        for s, escape in zip(specs, _escape_stage(specs)[-1])
    ]


def _information(escape: bool, pe: float | None, numeric=()) -> float:
    """The information read at the closed-form error probability ``pe`` of a
    family point, which must escape detection and lie within CLOSED_FORM_TOL
    of each Helstrom error in ``numeric``."""
    if not escape:
        raise SpecError("family point does not satisfy the detection constraints")
    worst = max((abs(x - pe) for x in numeric), default=0.0)
    if worst > CLOSED_FORM_TOL:
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

    The restarts are independent, so they run in lockstep: every pass
    evaluates, in one stack per route, the points each unfinished restart
    needs next (first all phase probes and opening points, then one point
    per restart), and a point met before on its route is not evaluated
    again. Only the phase probes, and each restart's optimum as its last
    step, take :func:`objective`'s Helstrom check; the optimum must keep its
    search value. The trace, the evaluation count and the best point are
    then replayed in restart order, and a failure raises the exception the
    first failing restart meets first: all as when the restarts run one
    after another, evaluating point by point.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    lo, hi = bounds
    if not 0.0 <= lo < hi <= INV_SQRT2 + _C_SLACK:
        raise ValueError(f"bounds must satisfy 0 <= lo < hi <= 1/sqrt(2), got {bounds}")
    rng = rng if rng is not None else np.random.default_rng(0)

    phases = [(0.0, 0.0, 0.0, 0.0)]
    phases += [tuple(rng.uniform(0.0, 2.0 * math.pi, 4)) for _ in range(1, restarts)]
    calls: list[list[tuple[AttackFamilyPoint, float]]] = [[] for _ in phases]
    searches = [_search(lo, hi, iters, ph, log) for ph, log in zip(phases, calls)]
    requests = {r: next(search) for r, search in enumerate(searches)}
    memo: dict[tuple[AttackFamilyPoint, bool], float | Exception] = {}
    bracket_ok = True
    failure: Exception | None = None
    while requests:
        new = [k for k in dict.fromkeys(k for ks in requests.values() for k in ks) if k not in memo]
        for checked in (True, False):
            points = [p for p, kind in new if kind is checked]
            memo.update(zip([(p, checked) for p in points], _values(points, checked)))
        for r in sorted(requests):
            try:
                requests[r] = searches[r].send([memo[k] for k in requests[r]])
            except StopIteration as done:
                del requests[r]
                bracket_ok = bracket_ok and done.value
            except (ValueError, RuntimeError) as exc:
                # the restarts after this one never start when run in turn
                failure = exc
                requests = {q: ks for q, ks in requests.items() if q < r}
                break
    if failure is not None:
        raise failure

    best_info = -1.0
    best_point: AttackFamilyPoint | None = None
    trace: list[tuple[int, float]] = []
    for evals, (point, value) in enumerate((call for log in calls for call in log), 1):
        if value > best_info:
            best_info = value
            best_point = point
        trace.append((evals, best_info))

    converged = (
        bracket_ok
        and abs(best_info - 1.0) <= tol
        and abs(best_point.c - 0.5) <= 10.0 * tol
    )
    return OptimizationResult(best_info, best_point, trace, converged)


#: The values of c at which each restart asserts the objective phase-invariant.
_PROBES = (0.23, 0.45)


def _search(lo: float, hi: float, iters: int, phases, calls: list):
    """One restart: the phase-invariance probes, then a golden-section search
    over c at ``phases``, ending on both bracket ends (which can host the
    maximum when the bounds are constrained), then the check of its optimum.

    A generator: each yield lists the points the next step needs, as
    (point, checked) for :func:`_values`, and takes back their values, or
    the exception each raised, which it raises where evaluating point by
    point would. The evaluations the trace counts go to
    ``calls`` as (point, value); the return value says whether the bracket
    closed within ``iters`` steps.
    """
    def record(points, values):
        calls.extend(zip(points, _raise_first(values)))
        return values

    def evaluate(*cs):
        points = [AttackFamilyPoint(c, phases) for c in cs]
        return record(points, (yield [(p, False) for p in points]))

    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    probes = [AttackFamilyPoint(c, ph) for c in _PROBES for ph in ((0.0,) * 4, phases)]
    opening = [AttackFamilyPoint(x1, phases), AttackFamilyPoint(x2, phases)]
    values = yield [(p, True) for p in probes] + [(p, False) for p in opening]
    for c, base, shifted in zip(_PROBES, values[0:4:2], values[1:4:2]):
        _raise_first((base, shifted))
        if abs(base - shifted) > PHASE_TOL:
            raise ConsistencyError(
                f"objective is not phase-invariant at c={c}: {base} vs {shifted}"
            )
    f1, f2 = record(opening, values[4:])
    steps = 0
    while (b - a) > BRACKET_TOL and steps < iters:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2, = yield from evaluate(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1, = yield from evaluate(x1)
        steps += 1
    yield from evaluate(a, b)
    optimum, value = max(calls, key=lambda call: call[1])  # the first best, as replayed
    checked, = _raise_first((yield [(optimum, True)]))
    if checked != value:
        raise ConsistencyError(f"search value {value!r} at c={optimum.c} checks as {checked!r}")
    return (b - a) <= BRACKET_TOL


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
