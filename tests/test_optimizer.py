import dataclasses
import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _literals import WALK_DIGEST
from hbbqss import attack, optimizer, qmath
from hbbqss.optimizer import (
    BRACKET_TOL,
    INV_SQRT2,
    MAX_ITERS,
    AttackFamilyPoint,
    OptimizationResult,
    maximize,
    objective,
    random_family_point,
    random_orthonormal,
    result_to_dict,
)

PE_AT_C06 = 0.051001113587127
INFO_AT_C06 = 0.7093655097588324


def closed_form_info(c: float) -> float:
    """Independent evaluation of the one-dimensional objective."""
    s = math.sqrt(max(0.5 - c * c, 0.0))
    pe = 0.5 * (1.0 - 4.0 * c * s)
    if pe <= 0.0:
        return 1.0
    return 1.0 + pe * math.log2(pe) + (1.0 - pe) * math.log2(1.0 - pe)


# ---------------------------------------------------------------------------
# family points and objective


def test_family_point_normalisation():
    p = AttackFamilyPoint(0.3)
    assert 2 * p.c**2 + 2 * p.s**2 == pytest.approx(1.0, abs=1e-12)
    spec = p.to_spec()
    assert attack.escape_check(spec)


def test_family_point_range_validation():
    with pytest.raises(attack.SpecError):
        AttackFamilyPoint(0.9)
    with pytest.raises(attack.SpecError):
        AttackFamilyPoint(-0.1)


def test_objective_at_the_optimum():
    assert objective(AttackFamilyPoint(0.5)) == pytest.approx(1.0, abs=1e-12)


def test_objective_at_the_honest_endpoint():
    assert objective(AttackFamilyPoint(INV_SQRT2)) == pytest.approx(0.0, abs=1e-12)
    assert objective(AttackFamilyPoint(0.0)) == pytest.approx(0.0, abs=1e-12)


def test_objective_partial_point():
    assert objective(AttackFamilyPoint(0.6)) == pytest.approx(INFO_AT_C06, abs=1e-9)


def test_objective_cross_check_runs(rng):
    p = random_family_point(rng, c=0.42)
    assert objective(p) == pytest.approx(closed_form_info(0.42), abs=1e-9)


@pytest.mark.parametrize("shifted", ["alice", "both"])
def test_objective_catches_a_helstrom_route_off_by_1e8(monkeypatch, shifted):
    # The eight batched Helstrom errors come in (Alice outcome, announcement
    # set) pairs per case; the closed-form check reads the first of each.
    original = attack._helstrom_errors
    calls = []

    def off(deltas, priors):
        calls.append(len(deltas))
        step = 1 if shifted == "both" else 2
        return [pe + 1e-8 if i % step == 0 else pe for i, pe in enumerate(original(deltas, priors))]

    monkeypatch.setattr(attack, "_helstrom_errors", off)
    # the analysis checks no announcement error; objective's own check
    # catches the shifted Helstrom errors either way
    with pytest.raises(attack.ConsistencyError, match="deviates from Helstrom"):
        objective(AttackFamilyPoint(0.3, (0.1, 0.2, 0.3, 0.4)))
    assert calls == [8]  # one batched call, on the first evaluation


# Family points exist from ancilla_dim 2 on: four orthonormal ancilla states
# need a C+E register of dimension 4. None draws the default eps, the
# identity that maximize() searches with.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.floats(0.0, INV_SQRT2),
    st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 4),
    st.one_of(st.none(), st.integers(2, 4)),
    st.integers(0, 2**32 - 1),
)
@example(0.0, (0.1, 0.2, 0.3, 0.4), None, 0)
@example(0.5, (5.0, 1.0, 3.0, 2.0), 2, 1)
@example(0.5, (0.0, 0.0, 0.0, 0.0), 4, 2)
@example(INV_SQRT2, (1.0, 6.0, 0.5, 4.0), 3, 3)
def test_objective_equals_the_search_value_and_agrees_with_helstrom(c, phases, ancilla_dim, seed):
    eps = None
    if ancilla_dim is not None:
        eps = random_orthonormal(np.random.default_rng(seed), 2 * ancilla_dim, 4)
    point = AttackFamilyPoint(c, phases, eps)
    walked = optimizer._search_value(c, optimizer._phase_factors(phases).tolist())
    assert objective(point).hex() == walked.hex()
    report = attack.analyze(point.to_spec())
    assert max(abs(report.pe_numeric[case] - report.pe_closed_form) for case in attack.CASES) <= 1e-9


def test_objective_phase_invariance(rng):
    base = objective(AttackFamilyPoint(0.37))
    worst = 0.0
    for _ in range(100):
        phases = tuple(rng.uniform(0, 2 * math.pi, 4))
        worst = max(worst, abs(objective(AttackFamilyPoint(0.37, phases)) - base))
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# the cross-checks maximize() leaves out: the constructed-state escape route
# and the Helstrom route against the closed form


def _stack_of(points):
    """The family stack of ``points``, each with its own ancilla states."""
    return optimizer.family_stack(
        [p.c for p in points], [p.phases for p in points], [p.eps for p in points]
    )


def _drawn_points(draws, ancilla_dim, seed, log_angle):
    """Family points of ``draws`` (c, phases), each with random orthonormal
    ancilla states of ``ancilla_dim`` (two, each used twice, where C+E
    holds fewer than four); with ``log_angle``, each point's first ancilla
    state is turned towards its second by 10**log_angle, near the escape set."""
    rng = np.random.default_rng(seed)
    n = min(4, 2 * ancilla_dim)
    points = []
    for c, phases in draws:
        eps = random_orthonormal(rng, 2 * ancilla_dim, n)[[0, 1, 2 % n, 3 % n]]
        if log_angle is not None:
            angle = 10.0**log_angle
            eps[0] = math.cos(angle) * eps[0] + math.sin(angle) * eps[1]
        points.append(AttackFamilyPoint(c, phases, eps))
    return points


_DRAWN_FAMILIES = (
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from((*optimizer._PROBES, 0.5, 0.0, INV_SQRT2)),
                      st.floats(0.0, INV_SQRT2)),
            st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 4),
        ),
        min_size=1, max_size=8,
    ),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.one_of(st.none(), st.floats(-8.0, -3.0)),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(*_DRAWN_FAMILIES)
def test_the_escape_route_gives_the_flags_both_routes_agree_on(draws, ancilla_dim, seed, log_angle):
    stack = _stack_of(_drawn_points(draws, ancilla_dim, seed, log_angle))
    flags = attack.escape_outcomes(stack)
    outcomes = attack.report_outcomes(stack)
    # a spec whose analysis raises does not escape: an Alice outcome never
    # occurs, as where draws of ancilla_dim 1 repeat two states
    for escapes, outcome in zip(flags, outcomes):
        if isinstance(outcome, Exception):
            assert isinstance(outcome, attack.InfeasibleError) and not escapes
    analysed = [i for i, outcome in enumerate(outcomes) if not isinstance(outcome, Exception)]
    reports = [outcomes[i] for i in analysed]
    # cross_check raises ConsistencyError where the constructed-state route
    # disagrees with the residuals beyond round-off
    if reports:
        attack.cross_check(stack.take(analysed), reports)
    assert [report.escape_ok for report in reports] == [flags[i] for i in analysed]


def _assert_helstrom_meets_the_closed_form(stack):
    """Each case's Helstrom error of each escaping spec of ``stack`` lies
    within CLOSED_FORM_TOL of its closed-form error. A spec whose analysis
    raises must not escape, and raise InfeasibleError: an Alice outcome
    never occurs (as where draws of ancilla_dim 1 repeat two states)."""
    for escapes, report in zip(attack.escape_outcomes(stack), attack.report_outcomes(stack)):
        if isinstance(report, Exception):
            assert isinstance(report, attack.InfeasibleError) and not escapes
        elif report.escape_ok:
            worst = max(abs(pe - report.pe_closed_form) for pe in report.pe_numeric.values())
            assert worst <= optimizer.CLOSED_FORM_TOL


@settings(max_examples=80, deadline=None, derandomize=True)
@given(*_DRAWN_FAMILIES)
def test_helstrom_errors_meet_the_closed_form_on_escaping_points(draws, ancilla_dim, seed, log_angle):
    _assert_helstrom_meets_the_closed_form(
        _stack_of(_drawn_points(draws, ancilla_dim, seed, log_angle))
    )


def test_the_closed_form_property_catches_a_helstrom_route_off_by_1e8(monkeypatch):
    stack = _stack_of(_drawn_points([(0.3, (0.1, 0.2, 0.3, 0.4))], 2, 5, None))
    _assert_helstrom_meets_the_closed_form(stack)
    original = attack._helstrom_errors

    def off(deltas, priors):
        return [pe + 1e-8 if i % 2 == 0 else pe for i, pe in enumerate(original(deltas, priors))]

    monkeypatch.setattr(attack, "_helstrom_errors", off)
    with pytest.raises(AssertionError):
        _assert_helstrom_meets_the_closed_form(stack)


_BOUNDS = ((0.0, INV_SQRT2), (0.1, 0.6), (0.65, INV_SQRT2))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from(_BOUNDS))
def test_search_values_are_the_objective_at_the_probes_and_optima(seed, restarts, bounds):
    walks = []
    walk = optimizer._walk
    with mock.patch.object(optimizer, "_walk", lambda *args: walks.append(walk(*args)) or walks[-1]):
        maximize(restarts=restarts, bounds=bounds, rng=np.random.default_rng(seed))
    assert len(walks) == restarts
    for w in walks:
        # each phase probe's value at no phases and at the restart's phases,
        # and the optimum's value, as the walk recorded them
        for c, base, shifted in w.probes:
            assert base.hex() == objective(AttackFamilyPoint(c)).hex()
            assert shifted.hex() == objective(AttackFamilyPoint(c, w.phases)).hex()
        optimum = AttackFamilyPoint(w.cs[w.optimum], w.phases)
        assert w.values[w.optimum].hex() == objective(optimum).hex()
        assert w.values[w.optimum] == max(w.values) and max(w.values) not in w.values[:w.optimum]


# ---------------------------------------------------------------------------
# family stacks


def _old_amplitudes(point, factors):
    """Reference: a00, a01, a10, a11 of ``point`` from its phase factors,
    one point at a time, as the search took them from point objects."""
    c, s = min(max(point.c, 0.0), INV_SQRT2), point.s
    return c * factors[0], s * factors[1], s * factors[2], c * factors[3]


def _old_family_stack(points):
    """Reference: the amplitudes (n, 2, 2) and ancilla states (n, 4, 4) of
    the stack that the builder over point objects, which family_stack
    replaces, made of ``points``."""
    cs = np.array([point.c for point in points], dtype=float)
    c = np.where(cs > INV_SQRT2, INV_SQRT2, np.where(cs < 0.0, 0.0, cs))
    s2 = 0.5 - cs * cs
    s = np.sqrt(np.where(s2 < 0.0, 0.0, s2))
    factors = np.exp(1j * np.array([point.phases for point in points], dtype=float)).reshape(-1, 4)
    mags = np.stack([c, s, s, c], axis=1)
    a = np.empty(mags.shape, dtype=complex)
    a.real = mags * factors.real - 0.0 * factors.imag
    a.imag = mags * factors.imag + 0.0 * factors.real
    eye = np.eye(4, dtype=complex)
    eps = np.array([eye if p.eps is None else np.asarray(p.eps, complex) for p in points])
    return a.reshape(-1, 2, 2), eps


def _assert_rows_are_their_specs(points, stack):
    """Each row of ``stack`` is bit for bit the old builder's row of its
    point, the old scalar amplitudes, and the point's spec; and the walk's
    float value at the point is the closed form at the row's magnitudes."""
    assert len(stack) == len(points)
    a, eps = _old_family_stack(points)
    assert stack.a.tobytes() == a.tobytes()
    assert np.ascontiguousarray(stack.eps).tobytes() == eps.tobytes()
    for i, point in enumerate(points):
        scalar = _old_amplitudes(point, np.exp(1j * np.asarray(point.phases, dtype=float)))
        spec = point.to_spec()
        assert stack.a[i].tobytes() == spec.a.tobytes() == np.array(scalar).tobytes()
        assert stack.eps[i].tobytes() == spec.eps.tobytes()
        walked = optimizer._search_value(point.c, optimizer._phase_factors(point.phases).tolist())
        pe = attack._closed_form(abs(stack.a[i, 0, 0]), abs(stack.a[i, 1, 0]))
        assert walked.hex() == attack.mutual_information(pe).hex()


def test_family_stacks_hold_the_specs_of_every_maximize_point(monkeypatch):
    stacks = []
    build = optimizer.family_stack

    def recorded(cs, phases, eps=None):
        stacks.append((cs, phases, eps, build(cs, phases, eps)))
        return stacks[-1][-1]

    monkeypatch.setattr(optimizer, "family_stack", recorded)
    maximize(restarts=8, rng=np.random.default_rng(42))
    monkeypatch.undo()  # to_spec builds its stack of one through it too
    # one escape pass per batch: every search point and phase probe of the
    # run (each optimum is a search point), each row with its own phases
    assert len(stacks) == 4
    points = []
    for cs, phases, eps, stack in stacks:
        assert eps is None
        batch = [AttackFamilyPoint(c, tuple(ph)) for c, ph in zip(cs, np.asarray(phases).tolist())]
        _assert_rows_are_their_specs(batch, stack)
        points += batch
    assert len(points) > 8 * 50
    cs, phases = [p.c for p in points], [p.phases for p in points]
    _assert_rows_are_their_specs(points, optimizer.family_stack(cs, phases))


_C_EDGES = (
    0.0, -0.0, 0.5, INV_SQRT2, -5e-13, -optimizer._C_SLACK,
    INV_SQRT2 + 5e-13, INV_SQRT2 + optimizer._C_SLACK,
)


# c over [-1e-12, 1/sqrt(2) + 1e-12], the clamp edges included; random
# phases; and no ancilla states, or random orthonormal ones of a drawn
# ancilla_dim, one (ancilla_dim, seed) per stack
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from(_C_EDGES),
                      st.floats(-optimizer._C_SLACK, INV_SQRT2 + optimizer._C_SLACK)),
            st.tuples(*[st.floats(-10.0, 10.0)] * 4),
        ),
        min_size=1, max_size=40,
    ),
    st.one_of(st.none(), st.tuples(st.integers(2, 4), st.integers(0, 2**32 - 1))),
)
@example([(c, (0.0, 0.0, 0.0, 0.0)) for c in _C_EDGES], None)
@example([(c, (1.0, 2.5, 4.0, 5.5)) for c in _C_EDGES], None)
@example([(c, (-1.0, -2.5, -4.0, -5.5)) for c in _C_EDGES], (2, 0))
def test_family_stack_rows_are_bit_for_bit_the_amplitudes_of_their_points(draws, drawn_eps):
    cs, phases = [c for c, _ in draws], [ph for _, ph in draws]
    eps = None
    if drawn_eps is not None:
        ancilla_dim, seed = drawn_eps
        rng = np.random.default_rng(seed)
        eps = np.array([random_orthonormal(rng, 2 * ancilla_dim, 4) for _ in draws])
    points = [
        AttackFamilyPoint(c, ph, None if eps is None else eps[i]) for i, (c, ph) in enumerate(draws)
    ]
    stack = optimizer.family_stack(cs, phases, eps)
    _assert_rows_are_their_specs(points, stack)
    # one quadruple stands for every row
    shared = optimizer.family_stack(cs, phases[0], eps)
    assert shared.a.tobytes() == optimizer.family_stack(cs, [phases[0]] * len(cs), eps).a.tobytes()


def test_family_stack_carries_each_point_s_ancilla_states():
    rng = np.random.default_rng(8)
    points = [random_family_point(rng) for _ in range(3)]
    points.insert(1, AttackFamilyPoint(0.3))
    eps = [np.eye(4, dtype=complex) if p.eps is None else p.eps for p in points]
    stack = optimizer.family_stack([p.c for p in points], [p.phases for p in points], eps)
    assert stack.ancilla_dim == 2
    for point, row in zip(points, stack.eps):
        ref = np.eye(4, dtype=complex) if point.eps is None else point.eps
        assert row.tobytes() == ref.tobytes() == point.to_spec().eps.tobytes()
    _assert_rows_are_their_specs(points, stack)
    # without ancilla states every row holds the default, np.eye(4)
    plain = optimizer.family_stack([0.1, 0.3], (0.0,) * 4)
    assert plain.eps.tobytes() == np.array([np.eye(4)] * 2, dtype=complex).tobytes()
    assert len(optimizer.family_stack([], (0.0,) * 4)) == 0
    odd = np.eye(5, dtype=complex)[:4]
    with pytest.raises(attack.SpecError, match="an even dimension"):
        optimizer.family_stack([0.3, 0.3], (0.0,) * 4, [odd, odd])


def test_maximize_builds_no_attack_spec(monkeypatch):
    built = []
    post_init = attack.AttackSpec.__post_init__
    monkeypatch.setattr(
        attack.AttackSpec, "__post_init__", lambda spec: built.append(spec) or post_init(spec)
    )
    maximize(restarts=2, rng=np.random.default_rng(42))
    assert built == []
    AttackFamilyPoint(0.3).to_spec()
    assert len(built) == 1


# ---------------------------------------------------------------------------
# maximisation


def test_maximize_finds_the_full_bit():
    result = maximize(restarts=3, rng=np.random.default_rng(1))
    assert result.converged
    assert result.best_info >= 1.0 - 1e-6
    assert abs(result.best_point.c - 0.5) <= 1e-3


def test_maximize_restarts_agree():
    r1 = maximize(restarts=1, rng=np.random.default_rng(2))
    r2 = maximize(restarts=4, rng=np.random.default_rng(3))
    assert abs(r1.best_info - r2.best_info) <= 1e-6


def test_maximize_trace_is_monotone():
    result = maximize(restarts=2, rng=np.random.default_rng(4))
    values = [v for _, v in result.trace]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    assert result.best_info <= 1.0 + 1e-12


def test_maximize_with_constrained_bounds_hits_the_boundary():
    result = maximize(restarts=1, bounds=(0.65, INV_SQRT2), rng=np.random.default_rng(5))
    # objective decreases on [0.65, 1/sqrt2]; dense scan oracle agrees
    grid = scan(2001, 0.65, INV_SQRT2)
    assert grid[0, 1] == max(grid[:, 1])
    assert abs(result.best_point.c - 0.65) <= 1e-6
    assert abs(result.best_info - closed_form_info(0.65)) <= 1e-9
    assert not result.converged  # the global optimum lies outside the bounds


def test_maximize_converges_where_the_closed_form_rounds_below_zero():
    # this seed evaluates c = 0.5000000015 with phases whose closed form
    # rounds to -1.1e-16; held at 0 it reads one full bit
    result = maximize(restarts=2, rng=np.random.default_rng(1492956812))
    assert result.converged
    assert result.best_info == pytest.approx(1.0, abs=1e-6)


#: The stages of the Helstrom route and of the constructed-state escape
#: route, as (module, name): maximize() reads neither.
_CROSS_CHECK_STAGES = (
    (attack, "report_outcomes"), (attack, "_analysis_pass"), (attack, "_helstrom_errors"),
    (attack, "cross_check"), (attack, "_case_tables"), (attack, "_global_vectors"),
    (qmath, "trace_norm_stack"), (qmath, "cross_overlaps"),
)


def test_maximize_runs_no_helstrom_route(monkeypatch):
    called = []
    for module, name in _CROSS_CHECK_STAGES:
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name,
            lambda *args, name=name, original=original: called.append(name) or original(*args),
        )
    passes = []
    residual_stack = attack._residual_stack
    monkeypatch.setattr(
        attack, "_residual_stack", lambda stack: passes.append(list(stack)) or residual_stack(stack)
    )
    result = maximize(restarts=2, rng=np.random.default_rng(101))
    assert called == []
    # the two restarts' 100 distinct search points stay under STACK_BOUND
    # until the second restart closes the one batch, whose one escape pass
    # also holds the four distinct phase probes
    phases = tuple(np.random.default_rng(101).uniform(0.0, 2.0 * math.pi, 4))
    probes = [AttackFamilyPoint(c, ph) for c in (0.23, 0.45) for ph in ((0.0,) * 4, phases)]
    assert [len(rows) for rows in passes] == [104]
    met = {row.a.tobytes() for row in passes[0]}
    assert {p.to_spec().a.tobytes() for p in probes} <= met
    assert result.best_point.to_spec().a.tobytes() in met
    maximize(restarts=8, rng=np.random.default_rng(42))
    assert called == []
    # the patched stages are the ones objective() and cross_check run
    objective(AttackFamilyPoint(0.3))
    stages = {name for _, name in _CROSS_CHECK_STAGES}
    assert set(called) == stages - {"cross_check", "cross_overlaps"}
    stack = attack.SpecStack.of([AttackFamilyPoint(0.3).to_spec()])
    attack.cross_check(stack, attack.analyze_stack(stack))
    assert set(called) == stages


def test_maximize_builds_one_point_hashes_none_and_makes_one_escape_pass(monkeypatch):
    # the rows the restarts meet one after another, each once in order of
    # first occurrence: both restarts' search points, then their phase probes
    log = _evaluated(2, 42)
    points = [p for r in range(2) for p in _search_points(log, r)]
    points += [p for r in range(2) for p in _probes(log, r)]
    rows = [AttackFamilyPoint(c, ph).to_spec().a.tobytes() for c, ph in dict.fromkeys(map(_key, points))]
    assert len(rows) == 104
    built, hashed = [], []
    post_init, point_hash = AttackFamilyPoint.__post_init__, AttackFamilyPoint.__hash__
    monkeypatch.setattr(AttackFamilyPoint, "__post_init__", lambda p: built.append(p) or post_init(p))
    monkeypatch.setattr(AttackFamilyPoint, "__hash__", lambda p: hashed.append(p) or point_hash(p))
    passes = _record_passes(monkeypatch)
    result = maximize(restarts=2, rng=np.random.default_rng(42))
    assert len(built) == 1 and built[0] is result.best_point
    assert hashed == []
    assert [[row.a.tobytes() for row in specs] for specs in passes] == [rows]


def test_maximize_validates_arguments():
    with pytest.raises(ValueError):
        maximize(restarts=0)
    with pytest.raises(ValueError):
        maximize(bounds=(0.5, 0.2))


def _walk_bits(monkeypatch, seed, restarts=8):
    """The float.hex of every search value of each restart that
    maximize(restarts=8) walks at ``seed``, with the escape flag of each of
    its search points and the checked information of each of its phase
    probes and its optimum, each point analysed alone; then the run's trace,
    best c and converged flag."""
    walks = []
    walk = optimizer._walk
    monkeypatch.setattr(optimizer, "_walk", lambda *args: walks.append(walk(*args)) or walks[-1])
    result = maximize(restarts=restarts, rng=np.random.default_rng(seed))
    monkeypatch.undo()
    assert len(walks) == restarts
    bits = []
    for w in walks:
        bits += [v.hex() for v in w.values]
        bits += [str(attack.escape_check(AttackFamilyPoint(c, w.phases).to_spec())) for c in w.cs]
        # the phase probes, zero-phase and rotated at each c, then the optimum
        checked = [AttackFamilyPoint(c, ph) for c, _, _ in w.probes for ph in ((0.0,) * 4, w.phases)]
        checked.append(AttackFamilyPoint(w.cs[w.optimum], w.phases))
        bits += [objective(p).hex() for p in checked]
    bits += [v.hex() for _, v in result.trace] + [result.best_point.c.hex(), str(result.converged)]
    return bits


def test_restart_walks_match_the_frozen_digest(monkeypatch):
    digest = hashlib.sha256()
    for seed in (42, 7, 1492956812):
        digest.update("\n".join(_walk_bits(monkeypatch, seed)).encode())
    assert digest.hexdigest() == WALK_DIGEST

# ---------------------------------------------------------------------------
# batched restarts against the sequential loop


#: Injected faults: the amount by which the value at a family point, keyed
#: by (c, phases), is off, in light_information and in the probe values of
#: maximize()'s walks alike (_inject).
_SHIFTS = {}


def _key(point):
    """A family point as the search carries it: its c and phases."""
    return point.c, point.phases


def light_information(point):
    """Reference for the value maximize() reads at a point: the escape check
    and the closed form, without the Helstrom route."""
    spec = point.to_spec()
    if not attack.escape_check(spec):
        raise attack.SpecError("family point does not satisfy the detection constraints")
    pe = attack._closed_form(abs(spec.a[0, 0]), abs(spec.a[1, 0]))
    return attack.mutual_information(pe) + _SHIFTS.get(_key(point), 0.0)


def sequential_maximize(restarts=4, iters=MAX_ITERS, tol=1e-6, rng=None,
                        bounds=(0.0, INV_SQRT2), evaluated=None):
    """Reference: the restarts one after another, every point evaluated
    alone by light_information() when the search reaches it: the phase
    probes, the search points, and each restart's optimum at its end, which
    must keep its search value. ``evaluated`` collects (restart, point) of
    every evaluation, phase probes and optima included."""
    lo, hi = bounds
    rng = rng if rng is not None else np.random.default_rng(0)
    evaluated = evaluated if evaluated is not None else []
    evals = 0
    best_info = -1.0
    best_point = None
    trace = []
    bracket_ok = True

    def evaluate(point):
        evaluated.append((restart, point))
        return light_information(point)

    def f(c, phases):
        nonlocal evals, best_info, best_point
        point = AttackFamilyPoint(c, tuple(phases))
        value = evaluate(point)
        restart_calls.append((point, value))
        evals += 1
        if value > best_info:
            best_info = value
            best_point = point
        trace.append((evals, best_info))
        return value

    for restart in range(restarts):
        phases = (0.0, 0.0, 0.0, 0.0) if restart == 0 else tuple(rng.uniform(0.0, 2.0 * math.pi, 4))
        restart_calls = []
        for c in (0.23, 0.45):
            base = evaluate(AttackFamilyPoint(c))
            shifted = evaluate(AttackFamilyPoint(c, tuple(phases)))
            if abs(base - shifted) > 1e-10:
                raise attack.ConsistencyError(
                    f"objective is not phase-invariant at c={c}: {base} vs {shifted}"
                )
        a, b = lo, hi
        x1 = b - optimizer._GOLDEN * (b - a)
        x2 = a + optimizer._GOLDEN * (b - a)
        f1, f2 = f(x1, phases), f(x2, phases)
        steps = 0
        while (b - a) > BRACKET_TOL and steps < iters:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + optimizer._GOLDEN * (b - a)
                f2 = f(x2, phases)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - optimizer._GOLDEN * (b - a)
                f1 = f(x1, phases)
            steps += 1
        if (b - a) > BRACKET_TOL:
            bracket_ok = False
        f(a, phases)
        f(b, phases)
        optimum, value = None, -1.0
        for point, v in restart_calls:
            if v > value:
                optimum, value = point, v
        checked = evaluate(optimum)
        if checked != value:
            raise attack.ConsistencyError(
                f"search value {value!r} at c={optimum.c} checks as {checked!r}"
            )

    converged = (
        bracket_ok
        and abs(best_info - 1.0) <= tol
        and abs(best_point.c - 0.5) <= 10.0 * tol
    )
    return OptimizationResult(best_info, best_point, trace, converged)


def _result_bits(result):
    return (
        [(i, v.hex()) for i, v in result.trace],
        result.best_info.hex(),
        result.best_point.c.hex(),
        [float(p).hex() for p in result.best_point.phases],
        result.converged,
    )


@pytest.mark.parametrize("restarts", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [42, 101, 1492956812])
def test_lockstep_restarts_match_the_sequential_loop(restarts, seed):
    got = maximize(restarts=restarts, rng=np.random.default_rng(seed))
    ref = sequential_maximize(restarts=restarts, rng=np.random.default_rng(seed))
    assert _result_bits(got) == _result_bits(ref)


@pytest.mark.parametrize("bounds,iters", [((0.65, INV_SQRT2), MAX_ITERS), ((0.1, 0.6), 12)])
def test_lockstep_restarts_match_the_sequential_loop_on_constrained_runs(bounds, iters):
    got = maximize(restarts=3, iters=iters, bounds=bounds, rng=np.random.default_rng(5))
    ref = sequential_maximize(restarts=3, iters=iters, bounds=bounds, rng=np.random.default_rng(5))
    assert _result_bits(got) == _result_bits(ref)


def _inject(monkeypatch, points=(), shifts=None):
    """Make each family point of ``points`` fail to escape detection in both
    escape routes: every family stack row (c, phases) that is one of them
    gets its first ancilla state in place of its second. With ``shifts``, a
    {point: amount} of phase probes, make the value at each point off by its
    amount, in the probe values of maximize()'s walks and in
    light_information alike. Both faults are keyed by (c, phases)."""
    targets = {_key(point) for point in points}
    build = optimizer.family_stack

    def colliding(cs, phases, eps=None):
        stack = build(cs, phases, eps)
        rows_phases = np.broadcast_to(np.asarray(phases, dtype=float), (len(stack), 4)).tolist()
        keys = zip(np.asarray(cs, dtype=float).tolist(), map(tuple, rows_phases))
        rows = [i for i, key in enumerate(keys) if key in targets]
        if not rows:
            return stack
        eps = np.array(stack.eps)
        eps[rows, 1] = eps[rows, 0]
        return attack.SpecStack(stack.ancilla_dim, stack.a, eps)

    monkeypatch.setattr(optimizer, "family_stack", colliding)
    if shifts:
        for point, shift in shifts.items():
            monkeypatch.setitem(_SHIFTS, _key(point), shift)
        walk = optimizer._walk

        def shifted(*args):
            w = walk(*args)
            probes = [
                (c, base + _SHIFTS.get((c, (0.0,) * 4), 0.0), value + _SHIFTS.get((c, w.phases), 0.0))
                for c, base, value in w.probes
            ]
            return w._replace(probes=probes)

        monkeypatch.setattr(optimizer, "_walk", shifted)


def _evaluated(restarts, seed, **kwargs):
    log = []
    sequential_maximize(restarts=restarts, rng=np.random.default_rng(seed), evaluated=log, **kwargs)
    return log


def _probes(log, restart):
    """A restart's phase probes: zero-phase and rotated at c = 0.23, then at 0.45."""
    return [point for r, point in log if r == restart][:4]


def _search_points(log, restart):
    """The points a restart's golden-section search evaluates, in order."""
    return [point for r, point in log if r == restart][4:]


@pytest.mark.parametrize(
    "pick,error",
    [
        (lambda log: ([_search_points(log, 1)[9]], {}), attack.SpecError),
        # restart 0's second probe pair
        (lambda log: ([AttackFamilyPoint(0.45)], {}), attack.SpecError),
        (lambda log: ([_search_points(log, 0)[29], _search_points(log, 1)[0]], {}),
         attack.SpecError),
        (lambda log: ([], {_probes(log, 1)[1]: 1e-6}), attack.ConsistencyError),
        (lambda log: ([_search_points(log, 0)[29]], {_probes(log, 1)[3]: 1e-6}),
         attack.SpecError),
        (lambda log: ([_search_points(log, 1)[0]], {_probes(log, 1)[3]: 1e-6}),
         attack.ConsistencyError),
        (lambda log: ([_probes(log, 1)[3]], {_probes(log, 1)[1]: 1e-6}), attack.ConsistencyError),
        # a rotated probe that neither escapes nor keeps its value fails on
        # the escape check, which comes before the phase-invariance check
        (lambda log: ([_probes(log, 1)[1]], {_probes(log, 1)[1]: 1e-6}), attack.SpecError),
    ],
    ids=["restart-1-search", "restart-0-probe", "restart-0-late-restart-1-early",
         "restart-1-phase-variant", "restart-0-search-before-restart-1-probe",
         "restart-1-probe-before-its-search", "restart-1-probe-pair-before-the-next",
         "restart-1-probe-escape-before-its-phase-check"],
)
def test_lockstep_raises_the_error_the_sequential_loop_meets_first(monkeypatch, pick, error):
    _inject(monkeypatch, *pick(_evaluated(3, 9)))
    with pytest.raises(error) as ref:
        sequential_maximize(restarts=3, rng=np.random.default_rng(9))
    with pytest.raises(error) as got:
        maximize(restarts=3, rng=np.random.default_rng(9))
    assert str(got.value) == str(ref.value)


def test_a_failure_the_sequential_loop_never_reaches_leaves_the_result_unchanged(monkeypatch):
    clean = _result_bits(maximize(restarts=3, rng=np.random.default_rng(9)))
    never = AttackFamilyPoint(0.65)
    bounds = (0.65, INV_SQRT2)
    assert never not in [point for _, point in _evaluated(3, 9)]
    assert never in [point for _, point in _evaluated(3, 9, bounds=bounds)]
    _inject(monkeypatch, [never])
    assert _result_bits(maximize(restarts=3, rng=np.random.default_rng(9))) == clean
    # a search that does reach it fails on it
    with pytest.raises(attack.SpecError, match="does not satisfy the detection constraints"):
        maximize(restarts=3, bounds=bounds, rng=np.random.default_rng(9))


# ---------------------------------------------------------------------------
# batches of restarts


def _batches(log, restarts, bound):
    """The restarts of each batch, its distinct search points, and all its
    distinct points (search points and phase probes), from the sequential
    loop's ``log``: a batch closes once its distinct search points reach
    ``bound``."""
    batches, batch, searched, points = [], [], set(), set()
    for r in range(restarts):
        batch.append(r)
        searched.update(_search_points(log, r))
        points.update(point for r2, point in log if r2 == r)
        if len(searched) >= bound or r == restarts - 1:
            batches.append((batch, searched, points))
            batch, searched, points = [], set(), set()
    return batches


def _record_passes(monkeypatch):
    """The spec rows of every escape pass maximize() makes."""
    passes = []
    original = optimizer.escape_outcomes

    def recorded(stack):
        passes.append(list(stack))
        return original(stack)

    monkeypatch.setattr(optimizer, "escape_outcomes", recorded)
    return passes


_BATCH_RUNS = [
    (8, 42, {}),
    (12, 101, {"bounds": (0.1, 0.6), "iters": 12}),
    (12, 5, {"bounds": (0.65, INV_SQRT2), "iters": 12}),
]


@pytest.mark.parametrize("restarts,seed,kwargs", _BATCH_RUNS, ids=["unbounded", "inner", "upper"])
def test_restart_batches_match_the_sequential_loop(monkeypatch, restarts, seed, kwargs):
    log = _evaluated(restarts, seed, **kwargs)
    batches = _batches(log, restarts, optimizer.STACK_BOUND)
    assert len(batches) >= 3
    passes = _record_passes(monkeypatch)
    got = maximize(restarts=restarts, rng=np.random.default_rng(seed), **kwargs)
    ref = sequential_maximize(restarts=restarts, rng=np.random.default_rng(seed), **kwargs)
    assert _result_bits(got) == _result_bits(ref)
    assert [len(specs) for specs in passes] == [len(points) for _, _, points in batches]


@pytest.mark.parametrize("restarts,seed,kwargs", _BATCH_RUNS[:2], ids=["unbounded", "inner"])
def test_restart_batches_stop_at_the_first_failing_batch(monkeypatch, restarts, seed, kwargs):
    log = _evaluated(restarts, seed, **kwargs)
    (first, _, _), (second, _, _), (third, _, _), *_ = _batches(log, restarts, optimizer.STACK_BOUND)
    # the second batch fails on its last restart's fifth search point, the
    # third on its first restart's first
    _inject(monkeypatch, [_search_points(log, second[-1])[4], _search_points(log, third[0])[0]])
    passes = _record_passes(monkeypatch)
    with pytest.raises(attack.SpecError) as ref:
        sequential_maximize(restarts=restarts, rng=np.random.default_rng(seed), **kwargs)
    with pytest.raises(attack.SpecError) as got:
        maximize(restarts=restarts, rng=np.random.default_rng(seed), **kwargs)
    assert str(got.value) == str(ref.value)
    assert len(passes) == 2
    # no pass holds a point of a later batch: its restarts' phases are
    # drawn, but none of their search points or phase-rotated probes is met
    later = {p.to_spec().a.tobytes() for r, p in log if r > second[-1] and any(p.phases)}
    met = {spec.a.tobytes() for specs in passes for spec in specs}
    assert later and not later & met
    assert {p.to_spec().a.tobytes() for p in _search_points(log, first[0])} <= met


@pytest.mark.parametrize("bound", [1, 20, 28, 64, 200])
def test_restart_batches_stack_at_most_the_bound_and_one_restart(monkeypatch, bound):
    restarts, seed, kwargs = _BATCH_RUNS[1]
    monkeypatch.setattr(optimizer, "STACK_BOUND", bound)
    log = _evaluated(restarts, seed, **kwargs)
    passes = _record_passes(monkeypatch)
    got = maximize(restarts=restarts, rng=np.random.default_rng(seed), **kwargs)
    ref = sequential_maximize(restarts=restarts, rng=np.random.default_rng(seed), **kwargs)
    assert _result_bits(got) == _result_bits(ref)
    batches = _batches(log, restarts, bound)
    assert [len(specs) for specs in passes] == [len(points) for _, _, points in batches]
    largest = max(len(set(_search_points(log, r))) for r in range(restarts))
    searched = [len(points) for _, points, _ in batches]
    assert max(searched) <= bound + largest
    assert all(size >= bound for size in searched[:-1])


def test_restart_batches_check_the_shared_probes_in_every_batch(monkeypatch):
    # each batch's one escape pass holds its search points, the two
    # zero-phase probes that every restart shares, and its two restarts'
    # rotated probes; no full analysis runs
    passes = _record_passes(monkeypatch)
    maximize(restarts=8, rng=np.random.default_rng(42))
    shared = {AttackFamilyPoint(c).to_spec().a.tobytes() for c in (0.23, 0.45)}
    assert len(passes) == 4
    for specs in passes:
        met = [spec.a.tobytes() for spec in specs]
        assert len(met) == len(set(met))
        assert shared <= set(met)


# ---------------------------------------------------------------------------
# scan oracle


def scan(n: int = 10001, lo: float = 0.0, hi: float = INV_SQRT2) -> np.ndarray:
    """Dense closed-form scan of the objective; rows are (c, info)."""
    cs = np.linspace(lo, hi, n)
    closed = [attack._closed_form(c, math.sqrt(max(0.5 - c * c, 0.0))) for c in cs]
    return np.column_stack([cs, [attack.mutual_information(pe) for pe in closed]])


def test_dense_scan_has_unique_maximum_at_half():
    grid = scan(10_001)
    idx = int(np.argmax(grid[:, 1]))
    assert abs(grid[idx, 0] - 0.5) <= grid[1, 0] - grid[0, 0]
    diffs = np.sign(np.diff(grid[:, 1]))
    # strictly rises to the peak, strictly falls afterwards
    assert np.all(diffs[:idx] > 0)
    assert np.all(diffs[idx:] < 0)
    against = [closed_form_info(c) for c in grid[::1000, 0]]
    assert np.abs(np.array(against) - grid[::1000, 1]).max() <= 1e-12


# ---------------------------------------------------------------------------
# off-manifold probing


def random_feasible_search(samples, rng):
    """Probe feasible specs beyond the orthogonal-ancilla manifold.

    Draws random detection-passing specs, including degenerate amplitude
    patterns where some amplitudes vanish (which satisfy the constraints
    without full ancilla orthogonality), and reports the best information
    found through the full numeric analysis.
    """
    best = -1.0
    best_spec = None
    for k in range(samples):
        kind = k % 4
        if kind in (0, 1):
            spec = random_family_point(rng).to_spec()
        else:
            # Diagonal (kind 2) or anti-diagonal (kind 3) amplitudes only; the
            # single remaining constraint is orthogonality of the two active
            # ancilla states.
            eps = random_orthonormal(rng, 4, 4)
            a = np.zeros((2, 2), dtype=complex)
            cells = ((0, 0), (1, 1)) if kind == 2 else ((0, 1), (1, 0))
            for cell in cells:
                a[cell] = INV_SQRT2 * np.exp(1j * rng.uniform(0, 2 * math.pi))
            spec = attack.AttackSpec(2, a, eps)
        report = attack.analyze(spec)
        if report.escape_ok and report.info > best:
            best = report.info
            best_spec = spec
    return best, best_spec


def test_random_feasible_search_never_beats_the_manifold(rng):
    best, best_spec = random_feasible_search(60, rng)
    assert best <= 1.0 + 1e-12
    assert best <= 1.0 + 1e-6
    assert best_spec is not None


@pytest.mark.parametrize("restarts", [1, 2, 5])
def test_result_json_is_what_json_dumps_writes(restarts):
    odd = OptimizationResult(
        0.25, AttackFamilyPoint(0.3, (1.0, 2.0, 3.0, 4.0)),
        [(1, 0.0), (2, 5e-324), (3, 1e-300), (10**6, 0.123456789012345), (10**7, 1.0)],
    )
    # one float object repeated, then equal floats of other objects and signs
    shared = 0.123456789012345
    runs = [(1, shared), (2, shared), (3, float("0.123456789012345")), (4, -0.0), (5, 0.0), (6, 0.0)]
    results = [odd, dataclasses.replace(odd, trace=[]), dataclasses.replace(odd, trace=runs)]
    for seed in (0, 7, 42, 101, 1492956812):
        result = maximize(restarts=restarts, rng=np.random.default_rng(seed))
        results += [result, dataclasses.replace(result, trace=[])]
    for result in results:
        expected = json.dumps(result_to_dict(result), sort_keys=True, indent=2) + "\n"
        assert optimizer.result_to_json(result) == expected


def test_result_serialisation():
    result = maximize(restarts=1, rng=np.random.default_rng(6))
    data = result_to_dict(result)
    assert data["converged"] is True
    assert abs(data["best_info"] - 1.0) <= 1e-6
    assert len(data["trace"]) > 10
    assert data["best_point"]["c"] == pytest.approx(0.5, abs=1e-3)
