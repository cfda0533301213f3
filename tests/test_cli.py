import hashlib
import json

import numpy as np
import pytest

from hbbqss import attack, cli, exploit, optimizer, qmath, qstate
from hbbqss.attack import Case
from hbbqss.cli import main
from _literals import GENERATED_SPECS, OUTPUT_DIGESTS, SIMULATE_DIGESTS


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_on_a_clean_build(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == len(cli.VERIFY_CHECKS)
    assert "[FAIL]" not in out


def test_verify_catches_a_corrupted_phase_gate(monkeypatch, capsys):
    # flipping the phase i -> -i silently breaks the y-basis decoders
    monkeypatch.setattr(qstate, "S_MATRIX", np.conj(qstate.S_MATRIX))
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] exploit/decoder-soundness" in out


def test_verify_catches_a_corrupted_announcement_table(monkeypatch, capsys):
    corrupted = dict(exploit.ANNOUNCEMENT_MAP)
    corrupted[Case.XX] = {0: ("00", "11"), 1: ("10", "01")}  # swapped rows
    monkeypatch.setattr(exploit, "ANNOUNCEMENT_MAP", corrupted)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] exploit/decoder-soundness" in out


# ---------------------------------------------------------------------------
# simulate


def test_simulate_circuit_attack_summary(tmp_path, capsys):
    out = tmp_path / "t.json"
    rc = main(
        ["simulate", "--attacker", "hbb-circuit", "--rounds", "2000", "--seed", "9",
         "--out", str(out)]
    )
    assert rc == 0
    assert "error=0.0000 info=1.0000" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["check_error_rate"] == 0.0
    assert data["attacker"] == "hbb-circuit"


def test_simulate_honest_csv(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = main(["simulate", "--rounds", "200", "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("round_id,basis_a")
    assert len(lines) == 201


def test_simulate_outputs_are_byte_identical_for_equal_seeds(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        main(["simulate", "--attacker", "intercept-resend", "--rounds", "500",
              "--seed", "4", "--out", str(p)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("attacker,fmt", sorted(SIMULATE_DIGESTS))
def test_simulate_matches_the_frozen_digests(tmp_path, attacker, fmt):
    if attacker in cli.BUNDLED_SPECS:
        who = ["--attacker", "spec", "--spec", attacker]
    else:
        who = ["--attacker", attacker]
    out = tmp_path / f"t.{fmt}"
    argv = ["simulate", "--seed", "42", "--rounds", "2000", "--format", fmt, "--out", str(out)]
    assert main(argv + who) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_DIGESTS[attacker, fmt]


def _generated_spec(kind: str, ancilla_dim: int, seed: int) -> attack.AttackSpec:
    rng = np.random.default_rng(seed)
    if kind == "family":
        return optimizer.random_family_point(rng, ancilla_dim=ancilla_dim).to_spec()
    if kind == "nas":
        return optimizer.random_family_point(rng, c=0.5, ancilla_dim=ancilla_dim).to_spec()
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    eps = rng.normal(size=(4, 2 * ancilla_dim)) + 1j * rng.normal(size=(4, 2 * ancilla_dim))
    return attack.AttackSpec(
        ancilla_dim, a / np.linalg.norm(a), eps / np.linalg.norm(eps, axis=1, keepdims=True)
    )


def _output_bytes(name: str, tmp_path, capsys) -> bytes:
    command, _, arg = name.partition(" ")
    out = tmp_path / "out"
    if command == "analyze" and arg in GENERATED_SPECS:
        attack.save_spec(_generated_spec(*GENERATED_SPECS[arg]), tmp_path / "spec.json")
        arg = str(tmp_path / "spec.json")
    argv = [command] + (["--spec", arg] if command == "analyze" else arg.split())
    if command != "verify":
        argv += ["--out", str(out)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    return stdout.encode() if command == "verify" else out.read_bytes()


@pytest.mark.parametrize("name", list(OUTPUT_DIGESTS))
def test_outputs_match_the_frozen_digests(tmp_path, capsys, name):
    digest = hashlib.sha256(_output_bytes(name, tmp_path, capsys)).hexdigest()
    assert digest == OUTPUT_DIGESTS[name]


def test_simulate_with_bundled_spec(tmp_path, capsys):
    out = tmp_path / "t.json"
    rc = main(
        ["simulate", "--attacker", "spec", "--spec", "kki", "--rounds", "1000",
         "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    assert "error=0.0000 info=1.0000" in capsys.readouterr().out


def test_simulate_requires_spec_only_with_spec_attacker(capsys):
    assert main(["simulate", "--attacker", "spec", "--rounds", "10"]) == 2
    assert "required exactly when" in capsys.readouterr().err
    assert main(["simulate", "--attacker", "none", "--spec", "kki", "--rounds", "10"]) == 2


def test_simulate_refuses_unrealizable_spec(tmp_path, capsys):
    # diagonal amplitudes with non-orthogonal branch vectors: branch norms 1, 0
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(
        json.dumps(
            {
                "ancilla_dim": 1,
                "a": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                "eps": [[[1.0, 0.0], [0.0, 0.0]]] * 4,
            }
        )
    )
    rc = main(["simulate", "--attacker", "spec", "--spec", str(spec_path), "--rounds", "10"])
    assert rc == 2
    assert "not realizable" in capsys.readouterr().err


def test_simulate_reports_schema_problems(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ancilla_dim": 2}')
    rc = main(["simulate", "--attacker", "spec", "--spec", str(bad), "--rounds", "10"])
    assert rc == 2
    assert "missing keys" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_bundled_kki(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["analyze", "--spec", "kki", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["nas_ok"] is True
    assert report["escape_ok"] is True
    assert report["info"] == pytest.approx(1.0, abs=1e-9)
    assert "nas_ok=True" in capsys.readouterr().out


def test_analyze_bundled_honest(tmp_path):
    out = tmp_path / "r.json"
    assert main(["analyze", "--spec", "honest.json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["escape_ok"] is True
    assert report["nas_ok"] is False
    assert report["info"] == pytest.approx(0.0, abs=1e-9)


def test_analyze_unknown_spec_name(capsys):
    assert main(["analyze", "--spec", "no-such-spec"]) == 2
    assert "no bundled spec" in capsys.readouterr().err


def test_analyze_near_perfect_spec(tmp_path, capsys):
    # a NAS point with eps[0] turned toward eps[1] by 1e-6 rad
    spec = exploit.example_spec()
    eps = spec.eps.copy()
    eps[0] = np.cos(1e-6) * eps[0] + np.sin(1e-6) * eps[1]
    path = tmp_path / "near.json"
    attack.save_spec(attack.AttackSpec(2, spec.a, eps), path)
    assert main(["analyze", "--spec", str(path), "--out", str(tmp_path / "r.json")]) == 0
    assert "escape_ok=False nas_ok=False" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name,value",
    [("cross_gram_is_zero", lambda s, d, tol: (False, 1.0)), ("_JACOBI_MAX_SWEEPS", 1)],
    ids=["ConsistencyError", "ConvergenceError"],
)
def test_numerical_failures_exit_4_with_one_line(tmp_path, monkeypatch, capsys, name, value):
    spec = tmp_path / "family.json"
    attack.save_spec(optimizer.random_family_point(np.random.default_rng(3)).to_spec(), spec)
    monkeypatch.setattr(qmath, name, value)
    assert main(["analyze", "--spec", str(spec), "--out", str(tmp_path / "r.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["analyze", "--spec", "kki", "--out", str(tmp / "missing" / "r.json")],
        lambda tmp: ["analyze", "--spec", str(tmp), "--out", str(tmp / "r.json")],
    ],
    ids=["missing-out-dir", "spec-is-a-directory"],
)
def test_unusable_paths_exit_2_with_one_line(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "option,value",
    [("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"), ("--tol", "0"), ("--iters", "-5")],
)
def test_optimize_rejects_bad_tolerance_and_iterations(tmp_path, capsys, option, value):
    out = tmp_path / "o.json"
    assert main(["optimize", "--restarts", "1", option, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert option.lstrip("-") in err
    assert not out.exists()


def test_analyze_outputs_are_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        main(["analyze", "--spec", "hbb_section4", "--out", str(p)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_rows_and_invariants(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--grid", "21", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "c,s,pe_closed,pe_numeric,info,max_residual"
    assert len(lines) == 23  # grid plus the explicitly inserted optimum
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        assert abs(float(row[2]) - float(row[3])) <= 1e-9
        assert float(row[5]) <= 1e-9
    # endpoints: no information at c=0 and at the honest endpoint
    assert float(rows[0][4]) == pytest.approx(0.0, abs=1e-9)
    assert float(rows[-1][4]) == pytest.approx(0.0, abs=1e-9)


def test_sweep_contains_the_perfect_point(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--grid", "41", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    by_c = {float(r[0]): r for r in rows}
    assert 0.5 in by_c
    assert float(by_c[0.5][4]) == pytest.approx(1.0, abs=1e-9)
    assert float(by_c[0.5][2]) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# optimize


def test_optimize_command(tmp_path, capsys):
    out = tmp_path / "o.json"
    rc = main(["optimize", "--restarts", "2", "--seed", "11", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["converged"] is True
    assert data["best_info"] == pytest.approx(1.0, abs=1e-6)
    assert data["best_point"]["c"] == pytest.approx(0.5, abs=1e-3)
    assert "converged=True" in capsys.readouterr().out


def test_optimize_outputs_are_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        main(["optimize", "--restarts", "2", "--seed", "11", "--out", str(p)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# config plumbing


def test_bundled_specs_resolve():
    for name in cli.BUNDLED_SPECS:
        spec = cli.resolve_spec(name)
        assert isinstance(spec, attack.AttackSpec)


def test_run_config_validation():
    with pytest.raises(ValueError):
        cli.RunConfig(command="simulate", attacker="spec", spec_path=None)
    cfg = cli.RunConfig(command="simulate")
    assert cfg.rounds == 10000 and cfg.check_fraction == 0.5 and cfg.seed == 42


def test_console_entry_point(tmp_path):
    import shutil
    import subprocess
    import sys

    exe = shutil.which("hbbqss")
    if exe is None:
        pytest.skip("console script not installed")
    out = tmp_path / "t.json"
    proc = subprocess.run(
        [exe, "simulate", "--attacker", "hbb-circuit", "--rounds", "300",
         "--seed", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "error=0.0000" in proc.stdout
    assert out.exists()
