import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _literals import CASE_CONDITIONALS
from hbbqss import attack, exploit, hbb, optimizer, qmath
from hbbqss.attack import (
    CASES,
    AttackSpec,
    Case,
    InfeasibleError,
    SpecError,
    analyze,
    conditional_states,
    detection_residuals,
    escape_check,
    global_state,
    helstrom,
    honest_spec,
    is_realizable,
    kki_spec,
    load_spec,
    mutual_information,
    nas_check,
    pe_closed_form,
    rho_pair,
    save_spec,
    spec_from_dict,
    spec_to_dict,
)
from hbbqss.qstate import Basis, Sign, basis_kets, phase_aligned_distance

R = 1.0 / math.sqrt(2.0)

# Frozen oracle values (independent closed-form evaluations).
PE_PURE_OVERLAP = 0.14644660940672627  # (1 - 1/sqrt 2)/2
INFO_AT_PE_PURE = 0.39912396330714384
S_AT_C06 = 0.37416573867739417  # sqrt(1/2 - 0.36)
PE_AT_C06 = 0.051001113587127
INFO_AT_C06 = 0.7093655097588324
MAG_GAP = 0.14214113720780752  # |sqrt(.6) - sqrt(.4)|


def circuit_spec():
    return exploit.example_spec()


def family_spec(c, rng=None, phases=(0.0, 0.0, 0.0, 0.0)):
    if rng is None:
        return optimizer.AttackFamilyPoint(c, phases).to_spec()
    return optimizer.random_family_point(rng, c=c).to_spec()


def unbalanced_spec():
    """Diagonal amplitudes sqrt(.6), sqrt(.4) with orthogonal ancilla states."""
    eps = np.zeros((4, 4), dtype=complex)
    eps[0, 0] = 1.0  # |00>
    eps[1, 1] = 1.0
    eps[2, 3] = 1.0
    eps[3, 2] = 1.0  # |10>
    a = np.array([[math.sqrt(0.6), 0.0], [0.0, math.sqrt(0.4)]], dtype=complex)
    return AttackSpec(2, a, eps)


# ---------------------------------------------------------------------------
# spec validation and serialisation


def test_spec_requires_unit_total_amplitude():
    with pytest.raises(SpecError, match="sum"):
        AttackSpec(1, np.eye(2), honest_spec().eps)


def test_spec_requires_normalised_ancilla_states():
    eps = np.eye(4, dtype=complex)
    eps[2] *= 2.0
    with pytest.raises(SpecError, match="norm"):
        AttackSpec(2, 0.5 * np.ones((2, 2)), eps)


def test_spec_requires_matching_dimensions():
    with pytest.raises(SpecError):
        AttackSpec(2, 0.5 * np.ones((2, 2)), np.eye(6))


def test_spec_json_roundtrip(tmp_path):
    spec = kki_spec()
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    loaded = load_spec(path)
    assert loaded.ancilla_dim == 4
    assert np.abs(loaded.a - spec.a).max() <= 1e-11
    assert np.abs(loaded.eps - spec.eps).max() <= 1e-11


def test_spec_json_schema_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"ancilla_dim\": 2, \"a\": [[1, 0]]}")
    with pytest.raises(SpecError, match="missing keys"):
        load_spec(bad)
    bad.write_text("not json")
    with pytest.raises(SpecError, match="not valid JSON"):
        load_spec(bad)
    with pytest.raises(SpecError, match="4 row-major"):
        spec_from_dict({"ancilla_dim": 1, "a": [[1, 0]], "eps": [[[1, 0], [0, 0]]] * 4})


def test_spec_to_dict_shape():
    d = spec_to_dict(circuit_spec())
    assert d["ancilla_dim"] == 2
    assert len(d["a"]) == 4 and len(d["a"][0]) == 2
    assert len(d["eps"]) == 4 and len(d["eps"][0]) == 4


# ---------------------------------------------------------------------------
# global_state


def test_global_state_honest_is_ghz_with_idle_ancilla():
    spec = honest_spec(ancilla_dim=2)
    psi = global_state(spec)
    expected = np.zeros(16, dtype=complex)
    expected[0] = R  # |000>|00>
    expected[0b1110] = R  # A=1, B=1, CE = |1>|0>
    assert np.abs(psi.vec - expected).max() <= 1e-12


def test_global_state_circuit_spec_amplitudes():
    psi = global_state(circuit_spec())
    expected = np.zeros(16, dtype=complex)
    expected[0b0000] = expected[0b0101] = expected[0b1010] = 0.5
    expected[0b1111] = -0.5
    assert np.abs(psi.vec - expected).max() <= 1e-12


def test_global_state_kki_normalised_and_perfect():
    spec = kki_spec()
    psi = global_state(spec)
    assert psi.norm == pytest.approx(1.0, abs=1e-12)
    ok, _ = nas_check(spec)
    assert ok


# ---------------------------------------------------------------------------
# conditional states


def test_conditional_states_circuit_spec_xx_case():
    table = conditional_states(circuit_spec(), Case.XX)
    for (m, n) in ((a, b) for a in "+-" for b in "+-"):
        weight = table.weight(Sign(m), Sign(n))
        assert weight == pytest.approx(0.25, abs=1e-12)
        phi = table.phi(Sign(m), Sign(n))
        expected = CASE_CONDITIONALS[(Case.XX, m, n)]
        assert phase_aligned_distance(phi, expected) <= 1e-12


def test_conditional_states_circuit_spec_yy_case():
    table = conditional_states(circuit_spec(), Case.YY)
    for (m, n) in ((a, b) for a in "+-" for b in "+-"):
        phi = table.phi(Sign(m), Sign(n))
        expected = CASE_CONDITIONALS[(Case.YY, m, n)]
        assert phase_aligned_distance(phi, expected) <= 1e-12


def test_conditional_states_honest_follow_the_table():
    table = conditional_states(honest_spec(), Case.XX)
    kets = basis_kets(Basis.X)
    for m in (Sign.PLUS, Sign.MINUS):
        for n in (Sign.PLUS, Sign.MINUS):
            assert table.weight(m, n) == pytest.approx(0.25, abs=1e-12)
            # Charlie's qubit holds exactly the table outcome for (m, n):
            # same signs give x+, different signs x- (E is trivial here)
            expected = kets[0] if m == n else kets[1]
            assert phase_aligned_distance(table.phi(m, n), expected) <= 1e-12


# ---------------------------------------------------------------------------
# detection residuals and escape


def test_residuals_vanish_for_circuit_spec():
    res = detection_residuals(circuit_spec())
    assert max(res.all_values) <= 1e-12
    assert len(res.all_values) == 24


def test_residuals_vanish_for_honest_spec():
    res = detection_residuals(honest_spec())
    assert max(res.all_values) <= 1e-12


def test_residuals_flag_unbalanced_amplitudes():
    res = detection_residuals(unbalanced_spec())
    gap_diag, gap_off = res.magnitude_gaps
    assert gap_diag == pytest.approx(MAG_GAP, abs=1e-9)
    assert gap_off <= 1e-12
    assert max(res.products) <= 1e-12
    # the case overlaps see the imbalance as well
    assert res.max_case_residual > 0.1


def test_escape_check_examples():
    assert escape_check(circuit_spec()) is True
    assert escape_check(honest_spec()) is True
    assert escape_check(unbalanced_spec()) is False


def test_residual_routes_agree_on_random_specs(rng):
    # bilinear Gram route versus explicit conditional-state construction
    for _ in range(25):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a /= np.sqrt((np.abs(a) ** 2).sum())
        eps = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        eps /= np.sqrt((np.abs(eps) ** 2).sum(axis=1))[:, None]
        spec = AttackSpec(2, a, eps)
        res = detection_residuals(spec)
        for case in CASES:
            table = conditional_states(spec, case)
            direct = []
            for same in attack.SAME_BRANCHES:
                for diff in attack.DIFF_BRANCHES:
                    u, v = table.phi(*same), table.phi(*diff)
                    direct.append(abs(np.vdot(u, v)) if u is not None and v is not None else 0.0)
            assert np.abs(np.array(direct) - np.array(res.per_case[case])).max() <= 1e-10


# ---------------------------------------------------------------------------
# rho pair and Helstrom discrimination


def test_rho_pair_honest_case_xx():
    # Given only Alice's outcome, honest Charlie's qubit is an equal mixture
    # of the two table-consistent states, i.e. maximally mixed; that is what
    # makes the honest error probability 1/2 and the information zero.
    rho_plus, rho_minus = rho_pair(honest_spec(), Case.XX)
    assert np.abs(rho_plus - 0.5 * np.eye(2)).max() <= 1e-12
    assert np.abs(rho_minus - 0.5 * np.eye(2)).max() <= 1e-12
    assert helstrom(rho_plus, rho_minus, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_rho_pair_handles_vanishing_branches():
    # identical ancilla states make half the conditional branches vanish;
    # the reweighted mixtures stay well defined and carry no information
    eps = np.zeros((4, 4), dtype=complex)
    eps[:, 0] = 1.0
    spec = AttackSpec(
        2, np.array([[R, 0.0], [0.0, R]], dtype=complex), eps
    )
    table = conditional_states(spec, Case.XX)
    assert table.weight(Sign.PLUS, Sign.MINUS) <= 1e-12
    assert table.phi(Sign.PLUS, Sign.MINUS) is None
    rho_plus, rho_minus = rho_pair(spec, Case.XX)
    assert abs(np.trace(rho_plus) - 1.0) <= 1e-10
    assert np.abs(rho_plus - rho_minus).max() <= 1e-12
    assert helstrom(rho_plus, rho_minus, 0.5, 0.5) == pytest.approx(0.5, abs=1e-10)


def test_rho_pair_circuit_spec_orthogonal_supports():
    rho_plus, rho_minus = rho_pair(circuit_spec(), Case.XX)
    for rho in (rho_plus, rho_minus):
        assert abs(np.trace(rho) - 1.0) <= 1e-10
        w, _ = qmath.hermitian_eigen(rho)
        assert w.min() >= -1e-10
        assert np.linalg.matrix_rank(rho, tol=1e-9) == 2
    assert np.abs(rho_plus @ rho_minus).max() <= 1e-12


def test_helstrom_orthogonal_states():
    z0 = np.diag([1.0, 0.0])
    z1 = np.diag([0.0, 1.0])
    assert helstrom(z0, z1, 0.5, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_helstrom_identical_states():
    rho = np.diag([0.7, 0.3])
    assert helstrom(rho, rho, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_helstrom_pure_state_overlap():
    k0 = np.array([1.0, 0.0])
    kx = np.array([R, R])
    pe = helstrom(np.outer(k0, k0), np.outer(kx, kx), 0.5, 0.5)
    assert pe == pytest.approx(PE_PURE_OVERLAP, abs=1e-12)


def test_helstrom_validates_priors():
    rho = np.eye(2) / 2
    with pytest.raises(ValueError):
        helstrom(rho, rho, 0.7, 0.5)
    with pytest.raises(ValueError):
        helstrom(rho, np.eye(3) / 3, 0.5, 0.5)


# ---------------------------------------------------------------------------
# closed form, information, perfect-attack conditions


def test_pe_closed_form_examples():
    assert pe_closed_form(circuit_spec()) == pytest.approx(0.0, abs=1e-12)
    assert pe_closed_form(honest_spec()) == pytest.approx(0.5, abs=1e-12)
    spec = family_spec(0.6)
    assert pe_closed_form(spec) == pytest.approx(PE_AT_C06, abs=1e-12)


def test_pe_closed_form_rejected_off_the_constraint_set():
    with pytest.raises(InfeasibleError):
        pe_closed_form(unbalanced_spec())


def test_mutual_information_examples():
    assert mutual_information(0.0) == 1.0
    assert mutual_information(0.5) == 0.0
    assert mutual_information(1.0) == 1.0
    assert mutual_information(PE_PURE_OVERLAP) == pytest.approx(INFO_AT_PE_PURE, abs=1e-12)
    assert mutual_information(PE_PURE_OVERLAP) == pytest.approx(0.399, abs=1e-3)
    with pytest.raises(ValueError):
        mutual_information(1.2)


def test_nas_check_examples():
    assert nas_check(circuit_spec())[0] is True
    assert nas_check(kki_spec())[0] is True
    ok, residuals = nas_check(honest_spec())
    assert ok is False
    # diagonal amplitudes miss 1/2 by 1/sqrt(2) - 1/2, the vanishing ones by 1/2
    gaps = residuals["amplitude_gaps"]
    assert gaps[0] == pytest.approx(R - 0.5, abs=1e-12)
    assert gaps[1] == pytest.approx(0.5, abs=1e-12)


def test_is_realizable_examples():
    assert is_realizable(circuit_spec())[0] is True
    assert is_realizable(honest_spec())[0] is True
    eps = np.eye(4, dtype=complex)
    lone = AttackSpec(2, np.array([[1.0, 0], [0, 0]]), eps)
    ok, diag = is_realizable(lone)
    assert ok is False
    assert diag["branch_norms"][0] == pytest.approx(1.0, abs=1e-12)
    assert diag["branch_norms"][1] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_circuit_spec():
    report = analyze(circuit_spec())
    assert report.escape_ok and report.nas_ok and report.realizable
    assert report.info == pytest.approx(1.0, abs=1e-9)
    assert max(report.pe_numeric.values()) <= 1e-9
    assert max(report.pe_announce.values()) <= 1e-9
    assert report.pe_closed_form == pytest.approx(0.0, abs=1e-9)


def test_analyze_honest_spec():
    report = analyze(honest_spec())
    assert report.escape_ok and not report.nas_ok
    assert report.info == pytest.approx(0.0, abs=1e-9)
    assert all(pe == pytest.approx(0.5, abs=1e-9) for pe in report.pe_numeric.values())


def test_analyze_partial_information_family_point():
    report = analyze(family_spec(0.6))
    assert report.escape_ok and not report.nas_ok
    assert report.info == pytest.approx(INFO_AT_C06, abs=1e-9)
    assert report.pe_closed_form == pytest.approx(PE_AT_C06, abs=1e-9)


def test_analyze_detectable_spec():
    report = analyze(unbalanced_spec())
    assert not report.escape_ok
    assert report.pe_closed_form is None
    assert max(report.pe_announce.values()) > 1e-6  # announcements are fallible
    assert report.info < 1.0


def test_analyze_report_json():
    data = attack.report_to_dict(analyze(kki_spec()))
    assert data["nas_ok"] is True
    assert set(data["case_residuals"]) == {"xx", "xy", "yx", "yy"}
    assert len(data["aggregate_products"]) == 6
    assert len(data["magnitude_gaps"]) == 2


# ---------------------------------------------------------------------------
# properties: closed form agreement, NAS sufficiency and necessity


def test_closed_form_matches_helstrom_on_random_specs(rng):
    for _ in range(30):
        spec = optimizer.random_family_point(rng).to_spec()
        pe = pe_closed_form(spec)
        report = analyze(spec)
        for case in CASES:
            assert abs(report.pe_numeric[case] - pe) <= 1e-9


def test_nas_sufficiency_sampled(rng):
    for _ in range(8):
        spec = optimizer.random_family_point(rng, c=0.5).to_spec()
        report = analyze(spec)
        assert report.escape_ok
        assert report.info >= 1.0 - 1e-9


def test_nas_necessity_sampled(rng):
    from hbbqss.cli import perturbed_spec

    for delta in (0.01, 0.05, 0.1):
        for kind in ("magnitude", "rotation"):
            spec = perturbed_spec(rng, delta, kind)
            report = analyze(spec)
            assert (not report.escape_ok) or report.info <= 1.0 - 1e-4


def alice_priors(table):
    """Probabilities of Alice's + and - outcomes in one case."""
    p_plus = sum(table.weight(Sign.PLUS, n) for n in (Sign.PLUS, Sign.MINUS))
    return p_plus, 1.0 - p_plus


def test_priors_are_equal_on_the_constraint_set(rng):
    spec = optimizer.random_family_point(rng).to_spec()
    for case in CASES:
        p_plus, p_minus = alice_priors(conditional_states(spec, case))
        assert p_plus == pytest.approx(0.5, abs=1e-10)
        assert p_minus == pytest.approx(0.5, abs=1e-10)


# ---------------------------------------------------------------------------
# session-level consistency of the analysis


def test_escaping_spec_survives_simulation(rng):
    spec = family_spec(0.6, rng=rng)
    strategy = exploit.spec_attack_strategy(spec)
    t = hbb.run_session(10_000, check_fraction=0.5, strategy=strategy, seed=31)
    assert t.check_error_rate == 0.0


def test_helstrom_bound_attained_in_simulation(rng):
    spec = family_spec(0.6, rng=rng)
    pe = analyze(spec).pe_numeric[Case.XX]
    strategy = exploit.spec_attack_strategy(spec)
    t = hbb.run_session(10_000, check_fraction=0.5, strategy=strategy, seed=33)
    wrong = sum(1 for g, k in zip(t.attacker_key_guess, t.key_alice) if g != k)
    n = len(t.key_alice)
    sigma = math.sqrt(pe * (1 - pe) / n)
    assert abs(wrong / n - pe) <= 3 * sigma


# ---------------------------------------------------------------------------
# one pass over the four cases, and the route-agreement assertions


def _counting(monkeypatch, name):
    calls = []
    original = getattr(attack, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(attack, name, counted)
    return calls


@pytest.mark.parametrize(
    "run",
    [lambda: analyze(kki_spec()), lambda: optimizer.objective(optimizer.AttackFamilyPoint(0.3))],
    ids=["analyze", "objective"],
)
def test_one_pass_builds_each_case_once(monkeypatch, run):
    tables = _counting(monkeypatch, "_case_tables")
    states = _counting(monkeypatch, "global_state")
    projections = _counting(monkeypatch, "project_qubit")
    residuals = _counting(monkeypatch, "detection_residuals")
    run()
    # one global state, projected for all four cases: Alice's two bases
    # twice each, then Bob's two outcomes in each of the eight branches
    assert len(tables) == 1 and len(states) == 1
    assert len(projections) == 4 + 16
    assert len(residuals) == 1


def _inflated_residuals(spec):
    res = detection_residuals(spec)
    return attack.DetectionResiduals(
        {c: (1.0, 1.0, 1.0, 1.0) for c in CASES}, res.products, res.magnitude_gaps
    )


_MIXTURES = attack._mixtures
_HELSTROM_OPERATORS = attack._helstrom_operators


def _yy_priors(tables):
    rho, totals = _MIXTURES(tables)
    totals[[t.case is Case.YY for t in tables], 0] = 0.6
    return rho, totals


def _blind_announcements(tables):
    deltas, priors = _HELSTROM_OPERATORS(tables)
    deltas[1::2] = 0.0  # the announcement sets look alike
    return deltas, priors


@pytest.mark.parametrize(
    "owner,name,fake,run",
    [
        # state-construction route sees overlaps the bilinear route does not
        (qmath, "cross_gram_is_zero", lambda s, d, tol: (False, 1.0), escape_check),
        (qmath, "cross_gram_is_zero", lambda s, d, tol: (False, 1.0), analyze),
        # bilinear route sees overlaps the constructed states do not
        (attack, "detection_residuals", _inflated_residuals, analyze),
        # announcement sets indistinguishable on an escaping spec
        (attack, "_helstrom_operators", _blind_announcements, analyze),
        # one case read with other priors than the rest
        (attack, "_mixtures", _yy_priors, analyze),
        # closed form off the Helstrom errors it is checked against
        (attack, "_closed_form", lambda c, s: 0.25,
         lambda spec: optimizer.objective(optimizer.AttackFamilyPoint(0.3))),
    ],
    ids=["escape_check-routes", "analyze-routes", "analyze-residuals",
         "analyze-announcement", "analyze-spread", "objective-closed-form"],
)
def test_injected_route_disagreement_raises(monkeypatch, owner, name, fake, run):
    monkeypatch.setattr(owner, name, fake)
    with pytest.raises(attack.ConsistencyError):
        run(honest_spec(2))


def test_info_is_the_mean_over_cases_off_the_escape_set():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    eps = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    spec = AttackSpec(2, a / np.linalg.norm(a), eps / np.linalg.norm(eps, axis=1, keepdims=True))
    report = analyze(spec)
    pes = [report.pe_numeric[c] for c in CASES]
    assert not report.escape_ok
    assert report.info == pytest.approx(np.mean([mutual_information(p) for p in pes]), abs=1e-15)
    # the four errors differ, so reading each case on its own tells more
    assert report.info > mutual_information(float(np.mean(pes))) + 0.04


def test_near_perfect_spec_gets_a_report():
    # NAS point with eps[0] turned toward eps[1]: residual 1e-6, announcement
    # error ~1e-12, below the residual's tolerance
    spec = exploit.example_spec()
    eps = spec.eps.copy()
    eps[0] = math.cos(1e-6) * eps[0] + math.sin(1e-6) * eps[1]
    report = analyze(AttackSpec(2, spec.a, eps))
    assert not report.escape_ok and not report.nas_ok
    assert report.pe_closed_form is None
    assert max(report.pe_announce.values()) <= 1e-9
    assert 1.0 - 1e-6 < report.info < 1.0


def test_escape_routes_tied_by_round_off_give_the_bilinear_flag():
    # NAS point turned by 2e-9 rad: both routes read 1.000e-9, the bilinear
    # one just above tol and the constructed-state one at or below it
    spec = exploit.example_spec()
    eps = spec.eps.copy()
    eps[0] = math.cos(2e-9) * eps[0] + math.sin(2e-9) * eps[1]
    spec = AttackSpec(2, spec.a, eps)
    report = analyze(spec)
    assert report.escape_ok == (report.residuals.max_case_residual <= attack.DEFAULT_TOL)
    assert escape_check(spec) == report.escape_ok


# ---------------------------------------------------------------------------
# Helstrom problems on span(eps)


def _full_route_pe(spec, case):
    """pe of one case from the full-dimension conditional states."""
    return helstrom(*rho_pair(spec, case), *alice_priors(conditional_states(spec, case)))


def _full_route_announce(spec, case):
    """Announcement-set error of one case from the full-dimension states."""
    table = conditional_states(spec, case)

    def mix(branches):
        weights = [table.weight(*b) for b in branches]
        rho = sum(w * np.outer(table.phi(*b), table.phi(*b).conj()) for w, b in zip(weights, branches))
        return rho / sum(weights), sum(weights)

    (rho_s, p_s), (rho_d, p_d) = mix(attack.SAME_BRANCHES), mix(attack.DIFF_BRANCHES)
    return helstrom(rho_s, rho_d, p_s / (p_s + p_d), p_d / (p_s + p_d))


@pytest.mark.parametrize("delta", [1e-7, 1e-10, 0.0])
@pytest.mark.parametrize("dim", [3, 4])
def test_reduced_route_agrees_with_full_on_near_dependent_eps(dim, delta):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    eps = rng.normal(size=(4, 2 * dim)) + 1j * rng.normal(size=(4, 2 * dim))
    eps /= np.linalg.norm(eps, axis=1, keepdims=True)
    eps[1] = eps[0] + delta * (rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim))
    eps[1] /= np.linalg.norm(eps[1])
    spec = AttackSpec(dim, a / np.linalg.norm(a), eps)
    report = analyze(spec)
    for case in CASES:
        assert abs(report.pe_numeric[case] - _full_route_pe(spec, case)) <= 1e-12
        assert abs(report.pe_announce[case] - _full_route_announce(spec, case)) <= 1e-12


def test_jacobi_sees_at_most_4x4_and_builds_no_eigenvectors(monkeypatch):
    calls = []
    original = qmath._jacobi

    def recorded(a, vectors):
        calls.append((a.shape[1], vectors))
        return original(a, vectors)

    monkeypatch.setattr(qmath, "_jacobi", recorded)
    analyze(_drawn_spec("random", 4, 0, 0.0))
    assert len(calls) == 1 and calls[0][0] == 4  # all eight problems in one sweep
    calls.clear()
    analyze(kki_spec())
    assert calls and not any(vectors for _, vectors in calls)


def test_state_outside_the_reduced_basis_raises(monkeypatch):
    original = qmath.orthonormal_span
    monkeypatch.setattr(qmath, "orthonormal_span", lambda vectors: original(vectors)[:, :-1])
    with pytest.raises(attack.ConsistencyError, match="lost norm"):
        analyze(kki_spec())


# ---------------------------------------------------------------------------
# report invariants over drawn specs

SPEC_KINDS = ("random", "sparse", "family", "rotated-family", "rotated-nas")


def _drawn_spec(kind, dim, seed, log_angle):
    rng = np.random.default_rng(seed)
    if kind in ("random", "sparse"):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if kind == "sparse":
            # one or two vanishing amplitudes
            a.flat[rng.choice(4, size=int(rng.integers(1, 3)), replace=False)] = 0.0
        eps = rng.normal(size=(4, 2 * dim)) + 1j * rng.normal(size=(4, 2 * dim))
        eps /= np.linalg.norm(eps, axis=1, keepdims=True)
        return AttackSpec(dim, a / np.linalg.norm(a), eps)
    c = 0.5 if kind == "rotated-nas" else None
    # four orthonormal ancilla states need 2 * ancilla_dim >= 4
    point = optimizer.random_family_point(rng, c=c, ancilla_dim=max(dim, 2))
    spec = point.to_spec()
    if kind == "family":
        return spec
    eps, angle = spec.eps.copy(), 10.0**log_angle
    eps[0] = math.cos(angle) * eps[0] + math.sin(angle) * eps[1]
    return AttackSpec(spec.ancilla_dim, spec.a, eps)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.sampled_from(SPEC_KINDS),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.floats(-10.0, -2.0),
)
def test_report_invariants_on_drawn_specs(kind, dim, seed, log_angle):
    spec = _drawn_spec(kind, dim, seed, log_angle)
    report = analyze(spec)
    pes = [report.pe_numeric[c] for c in CASES]
    if spec.ancilla_dim >= 3:
        # solved on span(eps); the full-dimension states are the oracle
        for case in CASES:
            assert abs(report.pe_numeric[case] - _full_route_pe(spec, case)) <= 1e-12
    assert all(0.0 <= p <= 0.5 for p in pes + list(report.pe_announce.values()))
    assert 0.0 <= report.info <= 1.0
    if report.escape_ok:
        assert max(pes) - min(pes) <= 1e-9
        assert max(abs(p - report.pe_closed_form) for p in pes) <= 1e-9
    if report.nas_ok:
        assert report.escape_ok
        assert report.info == pytest.approx(1.0, abs=1e-9)
