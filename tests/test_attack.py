import functools
import hashlib
import math
import pickle
import platform

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _literals import ANALYSIS_BITS_DIGEST, ANALYSIS_BITS_PLATFORM, CASE_CONDITIONALS
from hbbqss import attack, cli, exploit, hbb, optimizer, qmath, qstate
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


def entries(table):
    """(weight, state or None) of each outcome pair of a conditional state table."""
    return {b: (float(table.weights[k]), table.phi(*b)) for k, b in enumerate(attack.BRANCHES)}


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


def test_cases_hash_by_identity():
    for case in CASES:
        assert hash(case) == object.__hash__(case)
        assert Case.from_bases(*case.value) is case
        assert hash(Case.from_bases(*case.value)) == hash(case)
        clone = pickle.loads(pickle.dumps(case))
        assert clone is case and hash(clone) == hash(case)
    report = analyze(kki_spec())
    assert list(report.pe_numeric) == list(report.pe_announce) == list(CASES)
    assert {case: i for i, case in enumerate(CASES)}[Case.YX] == 2


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


@pytest.mark.parametrize("dim", [2.7, 2.0, True, np.True_, "2"])
def test_spec_rejects_an_ancilla_dim_that_is_not_an_integer(dim):
    with pytest.raises(SpecError, match="ancilla_dim must be an integer"):
        AttackSpec(dim, 0.5 * np.ones((2, 2)), np.eye(4))


def test_spec_accepts_a_numpy_integer_ancilla_dim():
    spec = AttackSpec(np.int64(2), 0.5 * np.ones((2, 2)), np.eye(4))
    assert type(spec.ancilla_dim) is int and spec.ancilla_dim == 2


def _first_error(build, items):
    """The message of the first SpecError that building ``items`` one by one
    with ``build`` raises, or None."""
    for item in items:
        try:
            build(*item)
        except SpecError as exc:
            return str(exc)
    return None


def _scale_ancilla_row(a, eps, i, x):
    k = int(x * 40) % 4
    eps[i, k] *= 1.0 - x


#: Corruptions of one spec of a stack, apply(a, eps, row, scale), each
#: breaking one of AttackSpec's checks by an amount set by ``scale``.
_CORRUPTIONS = {
    "nan-amplitude": lambda a, eps, i, x: a.__setitem__((i, 1, 0), complex(np.nan, x)),
    "inf-ancilla": lambda a, eps, i, x: eps.__setitem__((i, 3, 1), np.inf),
    "amplitude-sum": lambda a, eps, i, x: a.__setitem__(i, a[i] * (1.0 + x)),
    "ancilla-norm": _scale_ancilla_row,
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 3),
    st.integers(1, 6),
    st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from(sorted(_CORRUPTIONS)), st.floats(1e-6, 0.5)),
        max_size=4,
    ),
    st.integers(0, 2**32 - 1),
)
@example(2, 4, [(2, "amplitude-sum", 0.2), (1, "ancilla-norm", 0.3), (3, "nan-amplitude", 0.1)], 0)
@example(2, 4, [(3, "inf-ancilla", 0.1), (3, "amplitude-sum", 0.2)], 1)
@example(1, 3, [(1, "ancilla-norm", 0.01), (1, "amplitude-sum", 1e-6)], 2)
@example(3, 5, [(4, "ancilla-norm", 0.45), (4, "ancilla-norm", 0.1)], 3)
def test_a_spec_stack_raises_the_error_of_its_first_bad_spec(dim, n, corruptions, seed):
    specs = [_drawn_spec("random", dim, seed + i, 0.0) for i in range(n)]
    a = np.array([spec.a for spec in specs])
    eps = np.array([spec.eps for spec in specs])
    for row, kind, scale in corruptions:
        if row < n:
            _CORRUPTIONS[kind](a, eps, row, scale)
    expected = _first_error(AttackSpec, [(dim, a[i], eps[i]) for i in range(n)])
    assert _first_error(attack.SpecStack, [(dim, a, eps)]) == expected
    if expected is None:
        stack = attack.SpecStack(dim, a, eps)
        assert stack.a.tobytes() == a.tobytes() and stack.eps.tobytes() == eps.tobytes()


@pytest.mark.parametrize(
    "d,a,eps",
    [
        (2, np.full((3, 3, 2), 0.5), np.tile(np.eye(4), (3, 1, 1))),
        (2, np.full((3, 2, 2), 0.5), np.tile(np.eye(6)[:4], (3, 1, 1))),
        (2, np.full((3, 2, 2), 0.5), np.tile(np.eye(4)[:3], (3, 1, 1))),
        (3, np.full((2, 2, 2), 0.5), np.tile(np.eye(4), (2, 1, 1))),
        (0, np.full((2, 2, 2), 0.5), np.zeros((2, 4, 0))),
        (2.0, np.full((2, 2, 2), 0.5), np.tile(np.eye(4), (2, 1, 1))),
    ],
    ids=["amplitude-shape", "ancilla-dimension", "ancilla-count", "ancilla-dim-mismatch",
         "ancilla-dim-zero", "ancilla-dim-float"],
)
def test_a_spec_stack_of_the_wrong_shape_raises_what_its_first_spec_raises(d, a, eps):
    expected = _first_error(AttackSpec, [(d, a[i], eps[i]) for i in range(len(a))])
    assert expected is not None
    assert _first_error(attack.SpecStack, [(d, a, eps)]) == expected


def test_a_spec_stack_needs_one_ancilla_set_per_amplitude_array():
    with pytest.raises(SpecError, match="3 amplitude arrays for 2 ancilla state sets"):
        attack.SpecStack(2, np.full((3, 2, 2), 0.5), np.tile(np.eye(4), (2, 1, 1)))
    with pytest.raises(SpecError, match="a stack needs specs of one ancilla_dim"):
        attack.SpecStack.of([honest_spec(1), honest_spec(2)])


def test_a_spec_stack_reads_row_by_row_as_its_specs():
    specs = [honest_spec(2), exploit.example_spec(), family_spec(0.3)]
    stack = attack.SpecStack.of(specs)
    assert len(stack) == 3 and stack.ancilla_dim == 2 and stack.joint_dim == 4
    for row, spec in zip(stack, specs):
        assert row.eps.shape[-1] == spec.joint_dim
        assert row.a.tobytes() == spec.a.tobytes() and row.eps.tobytes() == spec.eps.tobytes()
        assert nas_check(row) == nas_check(spec)
    sub = stack.take([2, 0])
    assert sub.a.tobytes() == np.array([specs[2].a, specs[0].a]).tobytes()
    assert [_report_bits(r) for r in attack.analyze_stack(stack)] == [
        _report_bits(analyze(spec)) for spec in specs
    ]


def test_spec_json_roundtrip(tmp_path):
    spec = kki_spec()
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    loaded = load_spec(path)
    assert loaded.ancilla_dim == 4
    assert np.abs(loaded.a - spec.a).max() <= 1e-11
    assert np.abs(loaded.eps - spec.eps).max() <= 1e-11


#: The angle (rad) past which the NAS example spec, eps[0] turned toward
#: eps[1], no longer escapes detection.
_ESCAPE_BOUNDARY = 1.999999998947289e-9


def _turned_example(angle):
    spec = exploit.example_spec()
    eps = spec.eps.copy()
    eps[0] = math.cos(angle) * eps[0] + math.sin(angle) * eps[1]
    return AttackSpec(2, spec.a, eps)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(
    st.floats(-1e-11, 1e-11).map(lambda r: _turned_example(_ESCAPE_BOUNDARY * (1.0 + r))),
    st.tuples(
        st.sampled_from(("honest", "kki", "zero-branch", "family", "random")),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    ).map(lambda member: _pass_member(*member)),
))
@example(_turned_example(_ESCAPE_BOUNDARY * (1.0 - 5e-13)))  # flipped by 12-digit files
def test_spec_files_round_trip_bit_for_bit(tmp_path_factory, spec):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    save_spec(spec, path)
    loaded = load_spec(path)
    assert loaded.ancilla_dim == spec.ancilla_dim
    assert loaded.a.tobytes() == spec.a.tobytes()
    assert loaded.eps.tobytes() == spec.eps.tobytes()
    flags = [(r.escape_ok, r.nas_ok, r.realizable) for r in map(analyze, (spec, loaded))]
    assert flags[0] == flags[1]


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
    bad.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(SpecError, match="nests too deep"):
        load_spec(bad)


#: JSON values as ``json.loads`` returns them: unbounded ints, and floats
#: with inf and nan, which Python's json reads and writes.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(st.text(max_size=4), kids, max_size=5),
    max_leaves=30,
)


def _paths(node, path=()):
    """The path of every entry below ``node``, a JSON value."""
    kids = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, kid in kids:
        yield (*path, key)
        yield from _paths(kid, (*path, key))


def _honest_with(path, value) -> dict:
    """The honest spec's document with the entry at ``path`` replaced."""
    doc = spec_to_dict(honest_spec())
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.one_of(
        _JSON_VALUES,
        st.fixed_dictionaries({"ancilla_dim": _JSON_VALUES, "a": _JSON_VALUES, "eps": _JSON_VALUES}),
        st.builds(_honest_with, st.sampled_from(list(_paths(spec_to_dict(honest_spec())))), _JSON_VALUES),
    )
)
@example(_honest_with(("a", 0, 0), 10**400))
@example(_honest_with(("eps", 2, 1, 1), -(10**400)))
@example(_honest_with(("a", 3, 1), 1e300))
def test_spec_from_dict_of_any_json_document_gives_a_spec_or_a_spec_error(doc):
    try:
        spec = spec_from_dict(doc)
    except SpecError:
        return
    assert isinstance(spec, AttackSpec)


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
        weight = entries(table)[Sign(m), Sign(n)][0]
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
            assert entries(table)[m, n][0] == pytest.approx(0.25, abs=1e-12)
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
    assert entries(table)[Sign.PLUS, Sign.MINUS][0] <= 1e-12
    assert table.phi(Sign.PLUS, Sign.MINUS) is None
    rho_plus, rho_minus = rho_pair(spec, Case.XX)
    assert abs(np.trace(rho_plus) - 1.0) <= 1e-10
    assert np.abs(rho_plus - rho_minus).max() <= 1e-12
    assert helstrom(rho_plus, rho_minus, 0.5, 0.5) == pytest.approx(0.5, abs=1e-10)


def test_rho_pair_circuit_spec_orthogonal_supports():
    rho_plus, rho_minus = rho_pair(circuit_spec(), Case.XX)
    for rho in (rho_plus, rho_minus):
        assert abs(np.trace(rho) - 1.0) <= 1e-10
        w, _ = qmath.hermitian_eigen_stack(rho[None])
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
    p_plus = sum(entries(table)[Sign.PLUS, n][0] for n in (Sign.PLUS, Sign.MINUS))
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
    "run,builds",
    [
        (lambda: analyze(kki_spec()), 1),
        (lambda: optimizer.objective(optimizer.AttackFamilyPoint(0.3)), 1),
        (lambda: escape_check(kki_spec()), 0),
        (lambda: attack.analyze_stack(
            attack.SpecStack.of([family_spec(c) for c in (0.1, 0.3, 0.5)])
        ), 1),
    ],
    ids=["analyze", "objective", "escape_check", "analyze_stack"],
)
def test_one_pass_builds_each_case_once(monkeypatch, run, builds):
    tables = _counting(monkeypatch, "_case_tables")
    states = _counting(monkeypatch, "_global_vectors")
    projections = _counting(monkeypatch, "_project_stack")
    residuals = _counting(monkeypatch, "_residual_stack")
    run()
    # one stack of global states, projected for all four cases in two stacked
    # contractions: Alice's four kets, then Bob's two in all eight branches;
    # the escape flag reads the residuals alone and builds no state
    assert len(tables) == builds and len(states) == builds
    assert len(projections) == 2 * builds
    assert len(residuals) == 1


_RESIDUAL_STACK = attack._residual_stack


def _inflated_residuals(specs):
    return np.ones_like(_RESIDUAL_STACK(specs))


_MIXTURES = attack._mixtures
_HELSTROM_OPERATORS = attack._helstrom_operators


def _yy_priors(tables):
    rho, totals = _MIXTURES(tables)
    totals[:, tables.cases.index(Case.YY), 0] = 0.6
    return rho, totals


def _blind_announcements(tables):
    deltas, priors = _HELSTROM_OPERATORS(tables)
    deltas[1::2] = 0.0  # the announcement sets look alike
    return deltas, priors


_ROUTES_DISAGREE = "escape routes disagree"


@pytest.mark.parametrize(
    "owner,name,fake,run,message",
    [
        # state-construction route sees overlaps the bilinear route does not
        (qmath, "cross_overlaps", lambda s, d: 1.0, escape_check, _ROUTES_DISAGREE),
        (qmath, "cross_overlaps", lambda s, d: 1.0, analyze, _ROUTES_DISAGREE),
        # bilinear route sees overlaps the constructed states do not
        (attack, "_residual_stack", _inflated_residuals, analyze, _ROUTES_DISAGREE),
        # announcement sets indistinguishable on an escaping spec
        (attack, "_helstrom_operators", _blind_announcements, analyze,
         "announcement-set discrimination"),
        # one case read with other priors than the rest
        (attack, "_mixtures", _yy_priors, analyze, "per-case error probabilities spread"),
        # closed form off the Helstrom errors it is checked against
        (attack, "_closed_form", lambda c, s: 0.25,
         lambda spec: optimizer.objective(optimizer.AttackFamilyPoint(0.3)),
         "deviates from Helstrom"),
    ],
    ids=["escape_check-routes", "analyze-routes", "analyze-residuals",
         "analyze-announcement", "analyze-spread", "objective-closed-form"],
)
def test_injected_route_disagreement_raises(monkeypatch, capsys, owner, name, fake, run, message):
    monkeypatch.setattr(owner, name, fake)
    if name == "_closed_form":  # objective holds the closed form itself
        with pytest.raises(attack.ConsistencyError, match=message):
            run(honest_spec(2))
        return
    # the analysis reports the bilinear flag; verify holds its reports against
    # the other routes, and its row fails with the error cross_check raises
    result = run(honest_spec(2))
    flag = result if isinstance(result, bool) else result.escape_ok
    assert flag == (detection_residuals(honest_spec(2)).max_case_residual <= attack.DEFAULT_TOL)
    assert cli.main(["verify"]) == 1
    assert f"[FAIL] attack/closed-form-agreement: {message}" in capsys.readouterr().out


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


def _turned_circuit_spec(angle):
    """The NAS example spec with eps[0] turned toward eps[1] by ``angle`` rad."""
    spec = exploit.example_spec()
    eps = spec.eps.copy()
    eps[0] = math.cos(angle) * eps[0] + math.sin(angle) * eps[1]
    return AttackSpec(2, spec.a, eps)


def test_near_perfect_spec_gets_a_report():
    # NAS point with eps[0] turned toward eps[1]: residual 1e-6, announcement
    # error ~1e-12, below the residual's tolerance
    report = analyze(_turned_circuit_spec(1e-6))
    assert not report.escape_ok and not report.nas_ok
    assert report.pe_closed_form is None
    assert max(report.pe_announce.values()) <= 1e-9
    assert 1.0 - 1e-6 < report.info < 1.0


def test_escape_routes_tied_by_round_off_give_the_bilinear_flag():
    # NAS point turned by 2e-9 rad: both routes read 1.000e-9, the bilinear
    # one just above tol and the constructed-state one at or below it
    spec = _turned_circuit_spec(2e-9)
    report = analyze(spec)
    assert report.escape_ok == (report.residuals.max_case_residual <= attack.DEFAULT_TOL)
    assert escape_check(spec) == report.escape_ok


@functools.cache
def _boundary_spec(ancilla_dim):
    """The NAS example spec carried onto a C+E register of dimension
    2 * ancilla_dim by a seeded random unitary, so that every overlap sums
    over all its entries, with eps[0] turned toward eps[1] by the smallest
    angle, to a bisection's resolution, at which the bilinear residual
    exceeds DEFAULT_TOL."""
    rng = np.random.default_rng(ancilla_dim)
    n = 2 * ancilla_dim
    unitary, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    base = exploit.example_spec()
    eps = np.zeros((4, n), dtype=complex)
    eps[:, :4] = base.eps
    eps = eps @ unitary.T

    def turned(angle):
        rows = eps.copy()
        rows[0] = math.cos(angle) * eps[0] + math.sin(angle) * eps[1]
        return AttackSpec(ancilla_dim, base.a, rows)

    lo, hi = 0.0, 1e-8
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if detection_residuals(turned(mid)).max_case_residual > attack.DEFAULT_TOL:
            hi = mid
        else:
            lo = mid
    return turned(hi)


def test_route_tie_covers_any_summation_order_at_large_dimension(monkeypatch):
    # Each route's magnitude is an inner product of unit vectors of length n,
    # within gamma_n = n u / (1 - n u) of the exact value in any summation
    # order (Higham 2002, sec. 3.1). At n = 96 twice that is 2.1e-14, more
    # than a fixed tie of 1e-14 would allow.
    spec = _boundary_spec(48)
    nu = spec.joint_dim * 2.0**-53
    bound = 2.0 * nu / (1.0 - nu)
    assert bound > 1e-14
    worst = detection_residuals(spec).max_case_residual
    assert attack.DEFAULT_TOL < worst <= attack.DEFAULT_TOL + bound / 4
    report = analyze(spec)
    assert escape_check(spec) is False and report.escape_ok is False
    stack = attack.SpecStack.of([spec])
    attack.cross_check(stack, [report])
    # the state route read lower, as another summation order may round it:
    # within the bound the flag is the bilinear route's, beyond it the
    # routes disagree
    overlaps = qmath.cross_overlaps
    for shift in (0.75 * bound, 1.5 * bound):
        monkeypatch.setattr(
            qmath, "cross_overlaps", lambda s, d: np.maximum(overlaps(s, d) - shift, 0.0)
        )
        assert escape_check(spec) is False and analyze(spec).escape_ok is False
        if shift < bound:
            attack.cross_check(stack, [analyze(spec)])
        else:
            with pytest.raises(attack.ConsistencyError, match="escape routes disagree"):
                attack.cross_check(stack, [analyze(spec)])


# ---------------------------------------------------------------------------
# Helstrom problems on span(eps)


def _full_route_pe(spec, case):
    """pe of one case from the full-dimension conditional states."""
    return helstrom(*rho_pair(spec, case), *alice_priors(conditional_states(spec, case)))


def _full_route_announce(spec, case):
    """Announcement-set error of one case from the full-dimension states."""
    table = conditional_states(spec, case)

    def mix(branches):
        weights = [entries(table)[b][0] for b in branches]
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
@given(st.builds(
    _drawn_spec,
    st.sampled_from(SPEC_KINDS),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.floats(-10.0, -2.0),
))
# the specs whose escape routes tie by round-off, and the near-perfect spec
@example(_boundary_spec(2))
@example(_boundary_spec(48))
@example(_turned_circuit_spec(1e-6))
def test_report_invariants_on_drawn_specs(spec):
    report = analyze(spec)
    # the routes the analysis leaves out agree with its report
    attack.cross_check(attack.SpecStack.of([spec]), [report])
    assert escape_check(spec) == report.escape_ok
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


# ---------------------------------------------------------------------------
# Bit-level digest of the analysis outputs


def _bit_specs():
    """About 200 specs: the bundled ones, honest ones of ancilla_dim 1-4, the
    circuit spec, one whose conditional branches vanish, and seeded drawn
    specs of every kind (random, sparse amplitudes, family, NAS and family
    points with eps[0] turned by 1e-10 to 1e-2 rad), ancilla_dim 1-4."""
    specs = [cli.resolve_spec(name) for name in cli.BUNDLED_SPECS]
    specs += [honest_spec(dim) for dim in (1, 2, 3, 4)] + [exploit.example_spec()]
    eps = np.zeros((4, 4), dtype=complex)
    eps[:, 0] = 1.0
    specs.append(AttackSpec(2, np.array([[R, 0.0], [0.0, R]], dtype=complex), eps))
    for seed in range(190):
        kind = SPEC_KINDS[seed % len(SPEC_KINDS)]
        specs.append(_drawn_spec(kind, 1 + seed % 4, 7000 + seed, -10.0 + 8.0 * (seed % 19) / 18))
    return specs


def _hex_lines(values):
    for x in values:
        if isinstance(x, (bool, np.bool_)) or x is None:
            yield str(bool(x) if x is not None else None)
        elif isinstance(x, complex) or np.iscomplexobj(x):
            z = complex(x)
            yield f"{z.real.hex()} {z.imag.hex()}"
        else:
            yield float(x).hex()


def _report_bits(r) -> list[str]:
    """float.hex of every AttackReport float and flag."""
    return list(_hex_lines(
        [v for c in CASES for v in r.residuals.per_case[c]]
        + list(r.residuals.products) + list(r.residuals.magnitude_gaps)
        + [r.escape_ok] + [r.pe_numeric[c] for c in CASES]
        + [r.pe_announce[c] for c in CASES]
        + [r.pe_closed_form, r.info, r.nas_ok, r.realizable, attack.DEFAULT_TOL]
    ))


def _analysis_bits(spec) -> list[str]:
    """float.hex of every AttackReport float and flag, of every case's
    conditional weights and states, and of HelstromAttack's eight
    projectors; a failing step is recorded by its error class."""
    lines = []
    try:
        lines += _report_bits(analyze(spec))
    except (attack.ConsistencyError, InfeasibleError) as exc:
        lines.append(type(exc).__name__)
    for case in CASES:
        for (weight, phi) in entries(conditional_states(spec, case)).values():
            lines += _hex_lines([weight])
            lines += ["None"] if phi is None else _hex_lines(phi)
    try:
        povm = exploit.HelstromAttack(spec)._povm
        lines += _hex_lines(np.concatenate([p.ravel() for c in CASES for p in povm[c]]))
    except (SpecError, ValueError) as exc:
        lines.append(type(exc).__name__)
    return lines


def _bits_platform() -> str:
    """The numpy version, BLAS build, machine and CPU SIMD extensions that
    decide how the last ulp of the analysis rounds."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
        simd = " ".join(config["SIMD Extensions"]["found"])
    except (TypeError, KeyError):  # numpy before 1.26 reports no dicts
        blas = simd = "unknown"
    return f"numpy {np.__version__}; {blas}; {platform.machine()}; SIMD {simd}"


@pytest.mark.skipif(
    _bits_platform() != ANALYSIS_BITS_PLATFORM,
    reason="the frozen bits hold on the platform that recorded them; "
    "test_stacked_analysis_matches_the_one_vector_route runs everywhere",
)
def test_analysis_bits_match_the_frozen_digest():
    text = "\n".join(
        f"spec {i}\n" + "\n".join(_analysis_bits(spec)) for i, spec in enumerate(_bit_specs())
    )
    assert hashlib.sha256(text.encode()).hexdigest() == ANALYSIS_BITS_DIGEST


def _one_vector_projection(tensor, ket):
    """Reference: one bra contracted by np.dot as a (1, k) row, renormalised
    by a real divisor; None for a branch that does not occur."""
    amp = np.dot(np.conj(ket).reshape(1, -1), tensor.reshape(ket.shape[0], -1))
    prob = float((np.abs(amp) ** 2).sum())
    if prob <= qstate.ZERO_BRANCH_TOL:
        return prob, None
    return prob, amp.reshape(-1) / np.sqrt(prob)


def _one_vector_table(spec, case):
    """Reference: a case's (weight, state or None) per outcome pair, one
    projection at a time."""
    psi = global_state(spec).vec.reshape(2, -1)
    rows = []
    for ket_a in basis_kets(case.alice_basis):
        p_a, after_a = _one_vector_projection(psi, ket_a)
        for ket_b in basis_kets(case.bob_basis):
            if after_a is None:
                rows.append((0.0, None))
                continue
            p_b, after_b = _one_vector_projection(after_a.reshape(2, -1), ket_b)
            rows.append((p_a * p_b, after_b))
    return rows


def _one_vector_residuals(spec, case):
    """Reference: a case's four residuals, each bilinear form a 1-D matmul."""
    gram = spec.eps.conj() @ spec.eps.T
    rows_i, rows_j = (np.array(index) for index in zip(*attack.EPS_ORDER))
    bra_a = np.conj(np.array(basis_kets(case.alice_basis)))[:, None, rows_i]
    bra_b = np.conj(np.array(basis_kets(case.bob_basis)))[None, :, rows_j]
    coeff = bra_a * bra_b * spec.a[rows_i, rows_j]
    signs = (Sign.PLUS, Sign.MINUS)
    coeffs = {(m, n): coeff[k, l] for k, m in enumerate(signs) for l, n in enumerate(signs)}
    weights = {b: float((np.conj(c) @ gram @ c).real) for b, c in coeffs.items()}
    vals = []
    for same, diff in attack.CONSTRAINT_PAIRS:
        cross = complex(np.conj(coeffs[same]) @ gram @ coeffs[diff])
        w = weights[same] * weights[diff]
        vals.append(abs(cross) / math.sqrt(w) if w > 1e-24 else 0.0)
    return vals


def test_stacked_analysis_matches_the_one_vector_route():
    """The stacked projections and bilinear forms give every conditional
    weight, state and residual bit for bit as the one-vector-at-a-time
    route does, on this machine's numpy and BLAS."""
    for spec in _bit_specs():
        residuals = detection_residuals(spec)
        for case in CASES:
            got = list(entries(conditional_states(spec, case)).values())
            for (weight, phi), (ref_weight, ref_phi) in zip(got, _one_vector_table(spec, case)):
                assert weight.hex() == ref_weight.hex()
                assert (phi is None) == (ref_phi is None)
                if phi is not None:
                    assert phi.tobytes() == ref_phi.tobytes()
            ref = _one_vector_residuals(spec, case)
            assert [v.hex() for v in residuals.per_case[case]] == [v.hex() for v in ref]


def test_stacked_pass_gives_every_spec_its_result_alone():
    """analyze_stack over the ~200 digest specs, one stack per ancilla_dim
    1-4, gives every spec the report it gets alone, bit for bit, and the
    stacked projections give every global state the conditional tables it
    gets alone."""
    specs = _bit_specs()
    for dim in sorted({spec.joint_dim for spec in specs}):
        group = [spec for spec in specs if spec.joint_dim == dim]
        stacked = attack.analyze_stack(attack.SpecStack.of(group))
        assert [_report_bits(r) for r in stacked] == [_report_bits(analyze(s)) for s in group]
        tables = attack._case_tables(attack._global_vectors(attack.SpecStack.of(group)))
        alone = [
            attack._case_tables(attack._global_vectors(attack.SpecStack.of([spec])))
            for spec in group
        ]
        assert tables.cases == CASES and all(ref.cases == CASES for ref in alone)
        for name in ("weights", "states", "occurs"):
            got = getattr(tables, name)
            assert len(got) == len(group)
            assert got.tobytes() == np.concatenate([getattr(ref, name) for ref in alone]).tobytes()


def _pass_member(kind, dim, seed):
    """A spec of one kind a pass may mix: honest_spec, kki_spec, one whose
    identical ancilla states leave conditional branches that never occur,
    or a drawn family point or random (non-escaping) spec."""
    if kind == "honest":
        return honest_spec(dim)
    if kind == "kki":
        return kki_spec()
    if kind == "zero-branch":
        eps = np.zeros((4, 2 * dim), dtype=complex)
        eps[:, 0] = 1.0
        return AttackSpec(dim, np.array([[R, 0.0], [0.0, R]], dtype=complex), eps)
    return _drawn_spec(kind, dim, seed, 0.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(
    st.tuples(
        st.sampled_from(("honest", "kki", "zero-branch", "family", "random")),
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
    ),
    min_size=2, max_size=6,
))
def test_stacked_passes_give_each_spec_its_flag_and_report_alone(members):
    specs = [_pass_member(*member) for member in members]
    for dim in {spec.joint_dim for spec in specs}:
        group = [spec for spec in specs if spec.joint_dim == dim]
        stack = attack.SpecStack.of(group)
        stacked = attack.analyze_stack(stack)
        assert [_report_bits(r) for r in stacked] == [_report_bits(analyze(s)) for s in group]
        attack.cross_check(stack, stacked)
        flags = [escape_check(spec) for spec in group]
        assert attack.escape_outcomes(stack) == flags == [r.escape_ok for r in stacked]
        case_vals = attack._residual_stack(stack)
        alone = [attack._residual_stack(attack.SpecStack.of([spec])) for spec in group]
        assert case_vals.tobytes() == np.concatenate(alone).tobytes()


def _alice_plus_spec(dim=2):
    """Alice's qubit left in |+>: her - outcome never occurs in the X basis."""
    eps = np.eye(2 * dim, dtype=complex)[[0, 1, 0, 1]]
    return AttackSpec(dim, np.full((2, 2), 0.5, dtype=complex), eps)


def test_stacked_pass_raises_what_the_first_failing_spec_raises_alone(monkeypatch):
    infeasible = _alice_plus_spec()
    with pytest.raises(InfeasibleError, match="Alice outcome - never occurs in case xx"):
        analyze(infeasible)
    # the first spec fails at the last stage, the second at an earlier one:
    # the stacked pass meets the second's error first, but analysing the
    # specs in turn raises the first's
    first = honest_spec(2)
    report = attack._report

    def failing(spec, *args):
        if np.array_equal(spec.a, first.a) and np.array_equal(spec.eps, first.eps):
            raise attack.ConsistencyError("first spec fails")
        return report(spec, *args)

    monkeypatch.setattr(attack, "_report", failing)
    with pytest.raises(attack.ConsistencyError, match="first spec fails"):
        attack.analyze_stack(attack.SpecStack.of([family_spec(0.3), first, infeasible]))
    with pytest.raises(InfeasibleError, match="never occurs in case xx"):
        attack.analyze_stack(attack.SpecStack.of([family_spec(0.3), infeasible, first]))


def _counting_passes(monkeypatch, fail_stacked=False):
    """Record the joint_dim of every spec of every analysis pass, wrapping
    ``_analysis_pass`` at every module binding; with ``fail_stacked``, a
    pass of more than one spec raises ConsistencyError."""
    passes = []
    original = attack._analysis_pass

    def counted(specs, *args):
        passes.append([spec.eps.shape[-1] for spec in specs])
        if fail_stacked and len(specs) > 1:
            raise attack.ConsistencyError("injected: the stacked pass fails")
        return original(specs, *args)

    for module in (attack, optimizer):
        if getattr(module, "_analysis_pass", None) is original:
            monkeypatch.setattr(module, "_analysis_pass", counted)
    return passes


def test_a_failing_pass_runs_each_of_its_specs_alone_once(monkeypatch):
    passes = _counting_passes(monkeypatch)
    with pytest.raises(InfeasibleError, match="Alice outcome - never occurs in case xx"):
        attack.analyze_stack(attack.SpecStack.of([kki_spec(), honest_spec(4), _alice_plus_spec(4)]))
    # the kki spec's span group (span dimension 4) passed, so it is not
    # analysed again; the other two share span dimension 2
    assert passes == [[8], [8, 8], [8], [8]]

    report = attack._report

    def failing(spec, *args):
        if abs(abs(spec.a[0, 0]) - 0.45) <= 1e-12:
            raise attack.ConsistencyError("injected at c=0.45")
        return report(spec, *args)

    monkeypatch.setattr(attack, "_report", failing)
    passes.clear()
    with pytest.raises(attack.ConsistencyError, match="injected at c=0.45"):
        analyze(optimizer.AttackFamilyPoint(0.45).to_spec())
    # a failing stack of family points fails together, then each runs alone once
    outcomes = attack.report_outcomes(optimizer.family_stack([0.2, 0.45, 0.6], (0.0,) * 4))
    assert [isinstance(outcome, Exception) for outcome in outcomes] == [False, True, False]
    assert passes == [[4], [4, 4, 4], [4], [4], [4]]
    # maximize() makes no analysis pass, so the fault never reaches it
    passes.clear()
    clean = optimizer.maximize(restarts=2, rng=np.random.default_rng(101))
    assert clean.converged and passes == []


def test_a_pass_that_fails_only_when_stacked_raises_its_error(monkeypatch):
    passes = _counting_passes(monkeypatch, fail_stacked=True)
    with pytest.raises(attack.ConsistencyError, match="the stacked pass fails"):
        attack.analyze_stack(attack.SpecStack.of([family_spec(0.3), family_spec(0.5)]))
    assert passes == [[4, 4], [4], [4]]
    passes.clear()
    # maximize() makes no analysis pass, so the fault never reaches it
    assert optimizer.maximize(restarts=2, rng=np.random.default_rng(101)).converged
    assert passes == []


def _compared(result):
    """A route's result for one spec: a report as its bits, an error as its
    type and message, an escape flag as it is."""
    if isinstance(result, Exception):
        return type(result), str(result)
    return _report_bits(result) if isinstance(result, attack.AttackReport) else result


def _alone(run, spec):
    """:func:`_compared` of ``run(spec)``, or of the error it raises."""
    try:
        return _compared(run(spec))
    except (ValueError, RuntimeError) as exc:
        return _compared(exc)


def _recording(monkeypatch, name, sizes):
    """Append to ``sizes`` the number of specs of each pass of ``attack.<name>``."""
    original = getattr(attack, name)

    def recorded(stack, spans):
        sizes.append(len(stack))
        return original(stack, spans)

    monkeypatch.setattr(attack, name, recorded)


def test_the_two_outcome_routes_give_each_spec_what_it_gets_alone(monkeypatch):
    rng = np.random.default_rng(19)
    family = [optimizer.random_family_point(rng, c, 3).to_spec() for c in (0.3, 0.45, 0.5)]
    honest, infeasible, failing = honest_spec(3), _alice_plus_spec(3), family[1]
    # on C+E of dimension 6 the span reduction runs: the family specs span 4
    # dimensions, honest_spec and the Alice-plus spec 2
    specs = [family[0], honest, infeasible, failing, family[2]]
    stack = attack.SpecStack.of(specs)
    assert [qmath.orthonormal_span(spec.eps).shape[1] for spec in specs] == [4, 2, 2, 4, 4]
    report = attack._report

    def report_fails(spec, *args):
        if np.array_equal(spec.a, failing.a) and np.array_equal(spec.eps, failing.eps):
            raise attack.ConsistencyError("injected in _report")
        return report(spec, *args)

    monkeypatch.setattr(attack, "_report", report_fails)
    alone = [_alone(analyze, spec) for spec in specs]
    sizes = []
    _recording(monkeypatch, "_analysis_pass", sizes)
    got = [_compared(result) for result in attack.report_outcomes(stack)]
    assert got == alone
    assert got[2] == (InfeasibleError, "Alice outcome - never occurs in case xx")
    assert got[3] == (attack.ConsistencyError, "injected in _report")
    assert all(isinstance(got[i], list) for i in (0, 1, 4))
    # both span groups fail, and each of their specs then runs alone once
    assert sizes == [3, 1, 1, 1, 2, 1, 1]

    # the escape route is the residual route alone: each spec gets the flag
    # escape_check gives it alone; a fault in the constructed states never
    # reaches the route
    alone = [_alone(escape_check, spec) for spec in specs]
    _inject_case_table_fault(monkeypatch, honest)
    sizes.clear()
    _recording_residuals(monkeypatch, sizes)
    got = attack.escape_outcomes(stack)
    assert got == alone
    assert all(isinstance(flag, bool) for flag in got)
    assert sizes == [5]


def _inject_case_table_fault(monkeypatch, spec):
    """Make the constructed conditional states raise on every stack of
    global states that holds ``spec``'s."""
    tables = attack._case_tables
    vec = global_state(spec).vec

    def tables_fail(vecs, *args):
        if any(np.array_equal(row, vec) for row in vecs):
            raise attack.ConsistencyError("injected in the conditional states")
        return tables(vecs, *args)

    monkeypatch.setattr(attack, "_case_tables", tables_fail)


def _recording_residuals(monkeypatch, sizes):
    """Append to ``sizes`` the number of specs of each residual pass."""
    residual_stack = attack._residual_stack
    monkeypatch.setattr(
        attack, "_residual_stack", lambda stack: sizes.append(len(stack)) or residual_stack(stack)
    )


def test_the_escape_route_runs_a_stack_as_one_group_and_computes_no_span(monkeypatch):
    rng = np.random.default_rng(23)
    specs = [optimizer.random_family_point(rng, c, 3).to_spec() for c in np.linspace(0.05, 0.65, 62)]
    honest = honest_spec(3)
    specs[17:17] = [honest, _alice_plus_spec(3)]
    stack = attack.SpecStack.of(specs)
    alone = [_alone(escape_check, spec) for spec in specs]
    _inject_case_table_fault(monkeypatch, honest)
    spans, sizes = [], []
    original = qmath.orthonormal_span
    monkeypatch.setattr(qmath, "orthonormal_span", lambda vectors: spans.append(1) or original(vectors))
    _recording_residuals(monkeypatch, sizes)
    got = attack.escape_outcomes(stack)
    assert got == alone
    assert sum(got) == 63 and not got[18]  # Alice's + spec does not escape
    assert spans == []
    assert sizes == [64]
