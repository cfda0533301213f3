"""Numerical maximisation of the attacker's information gain.

On the family of specs passing the detection constraints with mutually
orthogonal ancilla states, the amplitude magnitudes reduce to a single
parameter c = |a00| = |a11| (with |a01| = |a10| = sqrt(1/2 - c^2)), and the
information is a smooth unimodal function of c. A golden-section search
over c combined with random restarts over the amplitude phases verifies
that the maximum is one full bit, attained at c = 1/2: each restart walks
its path on closed-form values as scalar code, and batches of restarts then
check the walks through one ``attack.escape_outcomes`` pass each, over one
family stack (:func:`_family_stack`): the specs of many family points built
as one validated ``attack.SpecStack`` in one array expression, so a run
builds no AttackSpec. A search reads only the detection residuals and the
closed form; the Helstrom route that cross-checks the closed form runs in
:func:`objective`, ``verify`` and the property tests. Random family points
with random orthonormal ancilla states feed the built-in checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .attack import (
    STACK_BOUND, AttackSpec, ConsistencyError, SpecError, SpecStack, _closed_form, _sig12, analyze,
    escape_outcomes, mutual_information,
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

#: Default gap (bits) from one full bit within which ``maximize`` converges.
CONVERGENCE_TOL = 1e-6

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Round-off, an amplitude magnitude, by which c and the search's upper
#: bound may leave [0, 1/sqrt(2)]; _family_stack clamps c back into it.
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
        """The point's spec: its row of a family stack of one."""
        stack = _family_stack([self])
        return AttackSpec(stack.ancilla_dim, stack.a[0], np.array(stack.eps[0]))


def _phase_factors(phases) -> np.ndarray:
    return np.exp(1j * np.asarray(phases, dtype=float))


def _amplitudes(point: AttackFamilyPoint, factors: np.ndarray) -> tuple:
    """a00, a01, a10, a11 of ``point`` from its phase factors: the search's
    magnitudes, bit for bit the amplitudes of :func:`_family_stack`."""
    c, s = min(max(point.c, 0.0), INV_SQRT2), point.s
    return c * factors[0], s * factors[1], s * factors[2], c * factors[3]


#: The ancilla states of a point without its own: mutually orthonormal,
#: one read-only array that every such point's stack row shares.
_DEFAULT_EPS = np.eye(4, dtype=complex)
_DEFAULT_EPS.flags.writeable = False


def _family_stack(points) -> SpecStack:
    """The specs of ``points``, whose ancilla states share one shape, as one
    validated stack. Their amplitudes come from one expression over arrays
    of the points' clamped c, s and phase factors, with the IEEE operations
    of :func:`_amplitudes` element for element, so the two agree bit for bit."""
    cs = np.array([point.c for point in points], dtype=float)
    # min(max(c, 0.0), INV_SQRT2), and s as AttackFamilyPoint.s computes it
    c = np.where(cs > INV_SQRT2, INV_SQRT2, np.where(cs < 0.0, 0.0, cs))
    s2 = 0.5 - cs * cs
    s = np.sqrt(np.where(s2 < 0.0, 0.0, s2))
    factors = _phase_factors([point.phases for point in points]).reshape(-1, 4)
    mags = np.stack([c, s, s, c], axis=1)
    # (mag + 0j) * factor, formed as the scalar complex product forms it: the
    # array product may fuse a multiply and an add, which gives a part that
    # underflows to zero another sign
    a = np.empty(mags.shape, dtype=complex)
    a.real = mags * factors.real - 0.0 * factors.imag
    a.imag = mags * factors.imag + 0.0 * factors.real
    a = a.reshape(-1, 2, 2)
    if all(point.eps is None for point in points):
        eps = np.broadcast_to(_DEFAULT_EPS, (len(points), 4, 4))
    else:
        eps = np.array([_DEFAULT_EPS if p.eps is None else np.asarray(p.eps, complex) for p in points])
    if eps.shape[-1] % 2:
        raise SpecError("ancilla states must live on C x E, an even dimension")
    return SpecStack(eps.shape[-1] // 2, a, eps)


def _search_value(point: AttackFamilyPoint, factors: np.ndarray) -> float:
    """The information at ``point`` if it escapes detection: the closed form
    at |a00| and |a10|, the float :func:`objective` returns."""
    a00, _, a10, _ = _amplitudes(point, factors)
    return mutual_information(_closed_form(abs(a00), abs(a10)))


def objective(point: AttackFamilyPoint) -> float:
    """Information gain (bits) at a family point, which must escape detection.

    Evaluated through the closed-form error probability; the numeric
    Helstrom route of the same analysis is required to agree within
    CLOSED_FORM_TOL on every basis case.
    """
    report = analyze(point.to_spec())
    if not report.escape_ok:
        raise SpecError("family point does not satisfy the detection constraints")
    pe = report.pe_closed_form
    worst = max(abs(x - pe) for x in report.pe_numeric.values())
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
    tol: float = CONVERGENCE_TOL,
    rng: np.random.Generator | None = None,
    bounds: tuple[float, float] = (0.0, INV_SQRT2),
) -> OptimizationResult:
    """Golden-section search over c with random phase restarts.

    The objective is asserted phase-invariant on every restart. The result
    is flagged converged only when the bracket closed within the iteration
    budget and the optimum matches the known analytic maximum (one bit at
    c = 1/2) to the requested tolerance.

    Each restart first walks its search as scalar code (:func:`_walk`). The
    walks are checked in batches of whole restarts, a batch closing once its
    distinct search points reach ``attack.STACK_BOUND``, and each batch is
    replayed in restart order (:func:`_replay`) before the next is walked:
    output and errors are those of the restarts run one after another,
    point by point. Every value is the closed form at a point whose detection
    residuals vanish; no Helstrom problem is solved.
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
    best_info, best_point, trace = -1.0, None, []
    bracket_ok = True
    batch, searched = [], {}
    for r, ph in enumerate(phases):
        batch.append(_walk(lo, hi, iters, ph))
        bracket_ok = bracket_ok and batch[-1].closed
        searched.update(dict.fromkeys(batch[-1].points))
        if len(searched) < STACK_BOUND and r + 1 < restarts:
            continue
        for point, value in _replay(batch, list(searched)):
            if value > best_info:
                best_info, best_point = value, point
            trace.append((len(trace) + 1, best_info))
        batch, searched = [], {}

    converged = (
        bracket_ok
        and abs(best_info - 1.0) <= tol
        and abs(best_point.c - 0.5) <= 10.0 * tol
    )
    return OptimizationResult(best_info, best_point, trace, converged)


#: The values of c at which each restart asserts the objective phase-invariant.
_PROBES = (0.23, 0.45)


class _Walk(NamedTuple):
    """A restart's phase probes, the points its search evaluates in order
    and their values, its optimum (the first point of the largest value, as
    the trace replays it) with its value, and whether its bracket closed."""

    probes: list[AttackFamilyPoint]
    points: list[AttackFamilyPoint]
    values: list[float]
    optimum: tuple[AttackFamilyPoint, float]
    closed: bool


def _walk(lo: float, hi: float, iters: int, phases) -> _Walk:
    """One restart: a golden-section search over c at ``phases``, ending on
    both bracket ends (which can host the maximum when the bounds are
    constrained), each point valued by :func:`_search_value`. Valuing cannot
    fail: the closed form lies in [0, 1/2], where mutual_information is defined."""
    factors = _phase_factors(phases)
    points, values = [], []

    def f(c: float) -> float:
        points.append(AttackFamilyPoint(c, phases))
        values.append(_search_value(points[-1], factors))
        return values[-1]

    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    steps = 0
    while (b - a) > BRACKET_TOL and steps < iters:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        steps += 1
    f(a)
    f(b)
    probes = [AttackFamilyPoint(c, ph) for c in _PROBES for ph in ((0.0,) * 4, phases)]
    optimum = max(zip(points, values), key=itemgetter(1))
    return _Walk(probes, points, values, optimum, (b - a) <= BRACKET_TOL)


def _replay(batch: list[_Walk], searched: list[AttackFamilyPoint]) -> list:
    """The evaluations (point, value) of a batch of walks with the distinct
    search points ``searched``, in restart order, from one escape pass over
    the batch's distinct points: its search points and phase probes (each
    optimum is a search point). A point that escapes is valued by
    :func:`_search_value`, the float :func:`objective` returns there.
    Replayed in restart order, the first failure raises the error that the
    restarts run one after another, point by point, meet first."""
    points = list(dict.fromkeys(searched + [p for w in batch for p in w.probes]))
    escapes = dict(zip(points, escape_outcomes(_family_stack(points))))

    def check(point: AttackFamilyPoint) -> None:
        if not escapes[point]:
            raise SpecError("family point does not satisfy the detection constraints")

    def value(probe: AttackFamilyPoint) -> float:
        check(probe)
        return _search_value(probe, _phase_factors(probe.phases))

    calls = []
    for walk in batch:
        for c, base, shifted in zip(_PROBES, walk.probes[0::2], walk.probes[1::2]):
            base, shifted = value(base), value(shifted)
            if abs(base - shifted) > PHASE_TOL:
                raise ConsistencyError(
                    f"objective is not phase-invariant at c={c}: {base} vs {shifted}"
                )
        for point in walk.points:
            check(point)
        calls += zip(walk.points, walk.values)
    return calls


#: Norm of a drawn Gaussian vector's residual, against the rows drawn before
#: it, at or below which random_orthonormal draws again rather than normalise
#: it: the vector, of norm about sqrt(2 dim), lay too close to their span.
_DRAW_RESIDUAL_MIN = 1e-6


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
        if n > _DRAW_RESIDUAL_MIN:
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


#: A trace entry [i, v] as json.dumps(..., indent=2) lays it out in the trace.
_TRACE_ENTRY = "\n    [\n      %d,\n      %r\n    ]"


def result_to_json(result: OptimizationResult) -> str:
    """:func:`result_to_dict` as ``json.dumps(..., sort_keys=True, indent=2)``
    writes it, byte for byte. json's indenting encoder is Python code, so it
    writes all but the trace, which sorts last; each trace entry, an int and
    a finite float, is written from its layout with the reprs json uses."""
    head = json.dumps(result_to_dict(replace(result, trace=[])), sort_keys=True, indent=2)
    if not result.trace:
        return head + "\n"
    entries = ",".join(_TRACE_ENTRY % (i, _sig12(v)) for i, v in result.trace)
    return head.removesuffix("[]\n}") + "[" + entries + "\n  ]\n}\n"
