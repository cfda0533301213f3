"""Numerical maximisation of the attacker's information gain.

On the family of specs passing the detection constraints with mutually
orthogonal ancilla states, the amplitude magnitudes reduce to a single
parameter c = |a00| = |a11| (with |a01| = |a10| = sqrt(1/2 - c^2)), and the
information is a smooth unimodal function of c. A golden-section search
over c combined with random restarts over the amplitude phases verifies
that the maximum is one full bit, attained at c = 1/2. The search carries a
point as plain numbers, its c and its restart's phases: each restart walks
its path on closed-form values as float code, and batches of restarts then
check the walks through one ``attack.escape_outcomes`` pass each, over one
family stack (:func:`family_stack`: the specs of many (c, phases) rows as
one validated ``attack.SpecStack``, built from arrays). A run builds no
AttackSpec, and one :class:`AttackFamilyPoint`, its result's. A search reads
only the detection residuals and the closed form; the Helstrom route that
cross-checks the closed form runs in :func:`objective`, ``verify`` and the
property tests. Random family points with random orthonormal ancilla states
feed the built-in checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate, count
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
#: bound may leave [0, 1/sqrt(2)]; family_stack clamps c back into it.
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
        stack = family_stack([self.c], self.phases, None if self.eps is None else [self.eps])
        return AttackSpec(stack.ancilla_dim, stack.a[0], np.array(stack.eps[0]))


def _phase_factors(phases) -> np.ndarray:
    return np.exp(1j * np.asarray(phases, dtype=float))


#: The ancilla states of a point without its own: mutually orthonormal,
#: one read-only array that every such point's stack row shares.
_DEFAULT_EPS = np.eye(4, dtype=complex)
_DEFAULT_EPS.flags.writeable = False


def family_stack(cs, phases, eps=None) -> SpecStack:
    """The specs of the family points of magnitudes ``cs`` (n,) and phases
    ``phases`` ((n, 4), or one quadruple for all) as one validated stack;
    ``eps`` (n, 4, 2 * ancilla_dim) holds their ancilla states, None the
    mutually orthonormal default. c is clamped into [0, 1/sqrt(2)], s taken
    from the unclamped c as :attr:`AttackFamilyPoint.s` takes it, and each
    amplitude is (magnitude + 0j) times its phase factor as the scalar
    complex product forms it: the magnitudes :func:`_search_value` reads."""
    cs = np.asarray(cs, dtype=float)
    c = np.where(cs > INV_SQRT2, INV_SQRT2, np.where(cs < 0.0, 0.0, cs))
    s2 = 0.5 - cs * cs
    s = np.sqrt(np.where(s2 < 0.0, 0.0, s2))
    factors = np.broadcast_to(_phase_factors(phases), (len(cs), 4))
    mags = np.stack([c, s, s, c], axis=1)
    # the array product may fuse a multiply and an add, which gives a part
    # that underflows to zero another sign, so the parts are formed apart
    a = np.empty(mags.shape, dtype=complex)
    a.real = mags * factors.real - 0.0 * factors.imag
    a.imag = mags * factors.imag + 0.0 * factors.real
    if eps is None:
        eps = np.broadcast_to(_DEFAULT_EPS, (len(cs), 4, 4))
    eps = np.asarray(eps, dtype=complex)
    if eps.shape[-1] % 2:
        raise SpecError("ancilla states must live on C x E, an even dimension")
    return SpecStack(eps.shape[-1] // 2, a.reshape(-1, 2, 2), eps)


def _search_value(c: float, factors: list[complex]) -> float:
    """The information at the family point (c, phases), ``factors`` the
    phase factors as Python complex, if it escapes detection: the closed
    form at |a00| and |a10|, the float :func:`objective` returns. Float
    code, with :func:`family_stack`'s IEEE operations."""
    s = math.sqrt(max(0.5 - c * c, 0.0))
    c = min(max(c, 0.0), INV_SQRT2)
    return mutual_information(_closed_form(abs(c * factors[0]), abs(s * factors[2])))


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

    Each restart first walks its search as float code (:func:`_walk`). The
    walks are checked in batches of whole restarts, a batch closing once its
    distinct search points reach ``attack.STACK_BOUND``, and each batch is
    replayed in restart order (:func:`_replay`) before the next is walked:
    output and errors are those of the restarts run one after another,
    point by point. Every value is the closed form at a point whose detection
    residuals vanish; no Helstrom problem is solved. The search carries each
    point as its c and its restart's phases, and builds an
    :class:`AttackFamilyPoint` only for the result.
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

    phases = [_NO_PHASES]
    phases += [tuple(rng.uniform(0.0, 2.0 * math.pi, 4).tolist()) for _ in range(1, restarts)]
    best_info, best, trace = -1.0, None, []
    bracket_ok = True
    batch, rows = [], {}
    for r, ph in enumerate(phases):
        batch.append(_walk(lo, hi, iters, ph))
        bracket_ok = bracket_ok and batch[-1].closed
        if _number(rows, batch[-1].cs, ph) < STACK_BOUND and r + 1 < restarts:
            continue
        _replay(batch, rows)
        for walk in batch:
            best = walk if walk.values[walk.optimum] > best_info else best
            running = list(accumulate(walk.values, max, initial=best_info))
            trace += zip(count(len(trace) + 1), running[1:])
            best_info = running[-1]
        batch, rows = [], {}

    best_point = AttackFamilyPoint(best.cs[best.optimum], best.phases)
    converged = (
        bracket_ok
        and abs(best_info - 1.0) <= tol
        and abs(best_point.c - 0.5) <= 10.0 * tol
    )
    return OptimizationResult(best_info, best_point, trace, converged)


#: The values of c at which each restart asserts the objective phase-invariant.
_PROBES = (0.23, 0.45)

#: The phases of the first restart, and of each phase probe's reference point.
_NO_PHASES = (0.0, 0.0, 0.0, 0.0)
_NO_PHASE_FACTORS = _phase_factors(_NO_PHASES).tolist()


class _Walk(NamedTuple):
    """A restart's phases, the c of each point its search evaluates in order
    and their values, the index of its optimum (the first point of the
    largest value, as the trace replays it), whether its bracket closed,
    and its phase probes as (c, value at no phases, value at its phases)."""

    phases: tuple[float, float, float, float]
    cs: list[float]
    values: list[float]
    optimum: int
    closed: bool
    probes: list[tuple[float, float, float]]


def _walk(lo: float, hi: float, iters: int, phases) -> _Walk:
    """One restart: a golden-section search over c at ``phases``, ending on
    both bracket ends (which can host the maximum when the bounds are
    constrained), each point valued by :func:`_search_value`. Valuing cannot
    fail: the closed form lies in [0, 1/2], where mutual_information is defined."""
    factors = _phase_factors(phases).tolist()
    cs, values = [], []

    def f(c: float) -> float:
        cs.append(c)
        values.append(_search_value(c, factors))
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
    probes = [(c, _search_value(c, _NO_PHASE_FACTORS), _search_value(c, factors)) for c in _PROBES]
    return _Walk(phases, cs, values, values.index(max(values)), (b - a) <= BRACKET_TOL, probes)


def _number(rows: dict, cs, phases) -> int:
    """Number the points (c, phases) of ``cs`` that have no row in ``rows``
    yet, in order: rows[phases][c] is a point's row. Returns the row count."""
    n = sum(map(len, rows.values()))
    seen = rows.setdefault(phases, {})
    seen.update(zip([c for c in dict.fromkeys(cs) if c not in seen], count(n)))
    return sum(map(len, rows.values()))


def _replay(batch: list[_Walk], rows: dict) -> None:
    """Check a batch of walks in restart order, from one escape pass over one
    family stack of the batch's distinct points as :func:`_number` numbers
    them in ``rows``: its search points, then its phase probes (each optimum
    is a search point). Per restart, each probe and its no-phase reference
    must escape and agree within PHASE_TOL, then each search point must
    escape, keeping its walked value. The first failure raises the error
    that the restarts run one after another, point by point, meet first."""
    for walk in batch:
        for c, _, _ in walk.probes:
            _number(rows, (c,), _NO_PHASES)
            n = _number(rows, (c,), walk.phases)
    cs, which = np.empty(n), np.empty(n, dtype=int)
    for k, seen in enumerate(rows.values()):  # the rows at each phases
        at = list(seen.values())
        cs[at], which[at] = list(seen), k
    escapes = escape_outcomes(family_stack(cs, np.array(list(rows))[which]))

    def check(cs, phases) -> None:
        seen = rows[phases]
        if not all([escapes[seen[c]] for c in cs]):
            raise SpecError("family point does not satisfy the detection constraints")

    for walk in batch:
        for c, base, shifted in walk.probes:
            check((c,), _NO_PHASES)
            check((c,), walk.phases)
            if abs(base - shifted) > PHASE_TOL:
                raise ConsistencyError(
                    f"objective is not phase-invariant at c={c}: {base} vs {shifted}"
                )
        check(walk.cs, walk.phases)


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


#: A trace entry [i, v], v as its repr, as json.dumps(..., indent=2) lays it out.
_TRACE_ENTRY = "\n    [\n      %d,\n      %s\n    ]"


def result_to_json(result: OptimizationResult) -> str:
    """:func:`result_to_dict` as ``json.dumps(..., sort_keys=True, indent=2)``
    writes it, byte for byte. json's indenting encoder is Python code, so it
    writes all but the trace, which sorts last; each trace entry, an int and
    a finite float, is written from its layout with the reprs json uses,
    once per run of one float object (the running best until it rises)."""
    head = json.dumps(result_to_dict(replace(result, trace=[])), sort_keys=True, indent=2)
    if not result.trace:
        return head + "\n"
    entries, last, text = [], None, ""
    for i, v in result.trace:
        if v is not last:
            last, text = v, repr(_sig12(v))
        entries.append(_TRACE_ENTRY % (i, text))
    return head.removesuffix("[]\n}") + "[" + ",".join(entries) + "\n  ]\n}\n"
