import math

import numpy as np
import pytest

from hbbqss import attack
from hbbqss.optimizer import (
    INV_SQRT2,
    AttackFamilyPoint,
    maximize,
    objective,
    random_family_point,
    random_feasible_search,
    result_to_dict,
    scan,
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
    match = "deviates from Helstrom" if shifted == "alice" else "announcement-set"
    with pytest.raises(attack.ConsistencyError, match=match):
        objective(AttackFamilyPoint(0.3, (0.1, 0.2, 0.3, 0.4)))
    assert calls == [8]  # one batched call, on the first evaluation


def test_objective_phase_invariance(rng):
    base = objective(AttackFamilyPoint(0.37))
    worst = 0.0
    for _ in range(100):
        phases = tuple(rng.uniform(0, 2 * math.pi, 4))
        worst = max(worst, abs(objective(AttackFamilyPoint(0.37, phases)) - base))
    assert worst <= 1e-10


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


def test_maximize_validates_arguments():
    with pytest.raises(ValueError):
        maximize(restarts=0)
    with pytest.raises(ValueError):
        maximize(bounds=(0.5, 0.2))


# ---------------------------------------------------------------------------
# scan oracle


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


def test_random_feasible_search_never_beats_the_manifold(rng):
    best, best_spec = random_feasible_search(60, rng)
    assert best <= 1.0 + 1e-12
    assert best <= 1.0 + 1e-6
    assert best_spec is not None


def test_result_serialisation():
    result = maximize(restarts=1, rng=np.random.default_rng(6))
    data = result_to_dict(result)
    assert data["converged"] is True
    assert abs(data["best_info"] - 1.0) <= 1e-6
    assert len(data["trace"]) > 10
    assert data["best_point"]["c"] == pytest.approx(0.5, abs=1e-3)
