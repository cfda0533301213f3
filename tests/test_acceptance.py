"""Acceptance suite: one test per shipped guarantee, one line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or `hbbqss verify` for the equivalent built-in checks.
"""

import math
from itertools import product

import numpy as np
import pytest

from _literals import CASE_CONDITIONALS, DETECTION_TARGETS_XX, INFO_TARGETS_XX
from test_optimizer import scan
from hbbqss import attack, exploit, hbb, optimizer
from hbbqss.attack import CASES, Case, analyze, global_state
from hbbqss.cli import perturbed_spec
from hbbqss.exploit import detection_decode, entangle_circuit, example_spec, info_decode
from hbbqss.hbb import Role, infer_alice, run_session, required_announcement
from hbbqss.qstate import Outcome, Sign, ghz_state, phase_aligned_distance, tensor_with_ancilla

RESULTS = []


def report(criterion: str, detail: str):
    line = f"ACCEPTANCE {criterion}: PASS ({detail})"
    RESULTS.append(line)
    print("\n" + line)


def test_criterion_1_correlation_table_reproduction():
    t = run_session(10_000, check_fraction=1.0, seed=314159)
    sifted = [r for r in t.rounds if r.role is Role.CHECK]
    mismatches = sum(
        1 for r in sifted if infer_alice(r.outcome_b, r.announced_c) != r.outcome_a
    )
    assert mismatches == 0
    assert t.check_error_rate == 0.0
    report("1 table reproduction", f"{len(sifted)} sifted rounds, 0 mismatches")


def test_criterion_2_circuit_attack_end_to_end():
    t = run_session(
        10_000, check_fraction=0.5, strategy=exploit.full_attack_strategy(), seed=271828
    )
    assert t.check_error_rate == 0.0
    assert len(t.attacker_key_guess) > 0
    agreement = sum(
        1 for g, k in zip(t.attacker_key_guess, t.key_alice) if g == k
    ) / len(t.key_alice)
    assert agreement == 1.0
    assert hbb.info_rate(t) == 1.0
    report("2 circuit attack", "error 0, key agreement 100%")


def test_criterion_3_closed_form_vs_helstrom():
    rng = np.random.default_rng(161803)
    worst = 0.0
    for _ in range(100):
        spec = optimizer.random_family_point(rng).to_spec()
        pe = attack.pe_closed_form(spec)
        rep = analyze(spec)
        worst = max(worst, max(abs(rep.pe_numeric[c] - pe) for c in CASES))
    assert worst <= 1e-9
    report("3 closed form", f"100 specs x 4 cases, max deviation {worst:.2e}")


def test_criterion_4_perfect_attack_conditions():
    rng = np.random.default_rng(577215)
    perfect = [example_spec(), attack.kki_spec()]
    perfect += [optimizer.random_family_point(rng, c=0.5).to_spec() for _ in range(20)]
    deficit = 0.0
    for spec in perfect:
        rep = analyze(spec)
        assert attack.nas_check(spec)[0]
        assert rep.escape_ok
        deficit = max(deficit, abs(1.0 - rep.info))
    assert deficit <= 1e-9

    degraded = 0
    samples = 0
    for delta in (0.01, 0.05, 0.1):
        for kind in ("magnitude", "rotation"):
            for _ in range(5):
                rep = analyze(perturbed_spec(rng, delta, kind))
                samples += 1
                if (not rep.escape_ok) or rep.info <= 1.0 - 1e-4:
                    degraded += 1
    assert samples == 30 and degraded == 30
    report(
        "4 perfect-attack conditions",
        f"{len(perfect)} perfect specs at info deficit {deficit:.2e}, 30/30 perturbed degraded",
    )


def test_criterion_5_optimizer_maximum():
    result = optimizer.maximize(restarts=3, rng=np.random.default_rng(42))
    assert result.converged
    assert abs(result.best_info - 1.0) <= 1e-6
    assert abs(result.best_point.c - 0.5) <= 1e-3
    grid = scan(10_001)
    idx = int(np.argmax(grid[:, 1]))
    assert abs(grid[idx, 0] - 0.5) <= grid[1, 0] - grid[0, 0]
    report(
        "5 optimizer",
        f"info {result.best_info:.9f} at c {result.best_point.c:.6f}, scan peak at {grid[idx, 0]:.6f}",
    )


def test_criterion_6_circuit_equivalences():
    worst = 0.0
    psi0 = tensor_with_ancilla(ghz_state(), "E", 2)
    worst = max(
        worst,
        phase_aligned_distance(entangle_circuit(psi0).vec, global_state(example_spec()).vec),
    )
    for (m, n), target in DETECTION_TARGETS_XX.items():
        out = exploit._decoder(Role.CHECK, Case.XX)[0] @ CASE_CONDITIONALS[(Case.XX, m, n)]
        worst = max(worst, phase_aligned_distance(out, target))
    for (m, n), target in INFO_TARGETS_XX.items():
        out = exploit._decoder(Role.KEY, Case.XX)[0] @ CASE_CONDITIONALS[(Case.XX, m, n)]
        worst = max(worst, phase_aligned_distance(out, target))
    assert worst <= 1e-12
    report("6 circuit equivalences", f"max phase-aligned deviation {worst:.2e}")


def test_criterion_7_decoder_tables():
    checked = 0
    for case in CASES:
        for m, n in product("+-", "+-"):
            phi = CASE_CONDITIONALS[(case, m, n)]
            alice_bit = Sign(m).bit
            required = required_announcement(
                Outcome(Sign(m), case.alice_basis),
                Outcome(Sign(n), case.bob_basis),
            ).bit
            assert detection_decode(phi, case) == required
            assert info_decode(phi, case) == alice_bit
            det_mass = _class_mass(exploit._decoder(Role.CHECK, case)[0], phi, exploit.ANNOUNCEMENT_MAP[case][required])
            info_mass = _class_mass(exploit._decoder(Role.KEY, case)[0], phi, exploit.SECRET_MAP[case][alice_bit])
            assert det_mass == pytest.approx(1.0, abs=1e-12)
            assert info_mass == pytest.approx(1.0, abs=1e-12)
            checked += 1
    assert checked == 16
    report("7 decoder tables", "16 conditional states, both decoders deterministic and exact")


def _class_mass(transform, phi, labels):
    probs = np.abs(transform @ phi) ** 2
    return float(sum(probs[int(l, 2)] for l in labels))


def test_criterion_8_baseline_separation():
    t = run_session(
        10_000, check_fraction=0.5, strategy=exploit.intercept_resend_strategy(), seed=141421
    )
    checks = sum(1 for r in t.rounds if r.role is Role.CHECK)
    expected = 0.25  # pinned by the branch enumeration oracle (test_exploit)
    sigma = math.sqrt(expected * (1 - expected) / checks)
    assert abs(t.check_error_rate - expected) <= 3 * sigma
    assert t.check_error_rate > 0.05
    report(
        "8 baseline separation",
        f"check error {t.check_error_rate:.4f} vs oracle 0.25 over {checks} checks",
    )


def test_criterion_9_determinism(tmp_path):
    transcripts = []
    reports = []
    optimizations = []
    for run in range(2):
        t = run_session(2_000, 0.5, strategy=exploit.full_attack_strategy(), seed=8128)
        transcripts.append(hbb.transcript_to_json(t).encode())
        reports.append(attack.report_to_json(analyze(attack.kki_spec())).encode())
        result = optimizer.maximize(restarts=2, rng=np.random.default_rng(8128))
        optimizations.append(optimizer.result_to_json(result).encode())
    assert transcripts[0] == transcripts[1]
    assert reports[0] == reports[1]
    assert optimizations[0] == optimizations[1]
    report("9 determinism", "transcripts, reports and optimizations byte-identical")


def test_zz_acceptance_summary():
    print("\n" + "=" * 72)
    for line in RESULTS:
        print(line)
    print("=" * 72)
    assert len(RESULTS) == 9
