import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from hbbqss import attack, cli, exploit, hbb, optimizer, qmath, qstate
from hbbqss.attack import Case
from hbbqss.cli import main
from _literals import GENERATED_SPECS, OUTPUT_DIGESTS, SIMULATE_DIGESTS
from test_attack import _boundary_spec


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
    assert "decoders exact" not in out


def test_verify_catches_a_corrupted_correlation_table(monkeypatch, capsys):
    key, alice = next(iter(hbb._ALICE.items()))
    flipped = qstate.Sign.MINUS if alice.sign is qstate.Sign.PLUS else qstate.Sign.PLUS
    monkeypatch.setitem(hbb._ALICE, key, qstate.Outcome(flipped, alice.basis))
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] hbb/correlation-reproduction" in out


def test_verify_fails_a_nan_deviation(monkeypatch, capsys):
    monkeypatch.setattr(qstate, "phase_aligned_distance", lambda u, v: math.nan)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] exploit/circuit-state-preparation" in out
    assert "[FAIL] exploit/decoder-transforms" in out


def test_verify_catches_perturbed_specs_that_attack_perfectly(monkeypatch, capsys):
    # every "perturbed" spec is the perfect attack itself
    monkeypatch.setattr(cli, "perturbed_spec", lambda rng, delta, kind: exploit.example_spec())
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] attack/nas-necessity: 12 of 12 perturbed specs attack perfectly" in out
    assert "degraded" not in out


@pytest.mark.parametrize("row", cli.VERIFY_CHECKS, ids=[row[0] for row in cli.VERIFY_CHECKS])
def test_verify_passes_a_deviation_at_its_tolerance_and_fails_one_ulp_above(
    monkeypatch, capsys, row
):
    name, _, tol = row
    for deviation, code, verdict in ((tol, 0, "PASS"), (math.nextafter(tol, math.inf), 1, "FAIL")):
        monkeypatch.setattr(cli, "VERIFY_CHECKS", ((name, lambda: (deviation, "stub"), tol),))
        assert main(["verify"]) == code
        assert capsys.readouterr().out.startswith(f"[{verdict}] {name}: stub")


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
    elif attacker in GENERATED_SPECS:
        _save_spec_12(_generated_spec(*GENERATED_SPECS[attacker]), tmp_path / "spec.json")
        who = ["--attacker", "spec", "--spec", str(tmp_path / "spec.json")]
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


def _save_spec_12(spec: attack.AttackSpec, path) -> None:
    """Write ``spec`` as spec files were written when the frozen digests of
    the generated specs were recorded: every float at 12 significant digits."""
    def pairs(arr):
        return [[float(f"{z.real:.12g}"), float(f"{z.imag:.12g}")] for z in arr]

    doc = {"ancilla_dim": spec.ancilla_dim, "a": pairs(spec.a.reshape(4)),
           "eps": [pairs(row) for row in spec.eps]}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _output_bytes(name: str, tmp_path, capsys) -> bytes:
    command, _, arg = name.partition(" ")
    out = tmp_path / "out"
    if command == "analyze" and arg in GENERATED_SPECS:
        _save_spec_12(_generated_spec(*GENERATED_SPECS[arg]), tmp_path / "spec.json")
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


class _SessionReached(Exception):
    pass


def _reached(n_rounds, *args, **kwargs):
    raise _SessionReached(n_rounds)


@pytest.mark.parametrize("rounds", ["0", "-3", str(cli.MAX_ROUNDS + 1), "100000000000"])
def test_simulate_rejects_rounds_out_of_range_with_one_line(tmp_path, capsys, monkeypatch, rounds):
    # the bound is checked before any session work: no strategy is built
    monkeypatch.setattr(hbb, "run_session", _reached)
    monkeypatch.setattr(cli, "_build_strategy", lambda args: pytest.fail("strategy built"))
    out = tmp_path / "t.json"
    assert main(["simulate", "--rounds", rounds, "--attacker", "hbb-circuit", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --rounds must be between 1 and {cli.MAX_ROUNDS}, got {rounds}\n"
    assert not out.exists()


def test_simulate_accepts_rounds_up_to_the_bound(tmp_path, monkeypatch):
    # the session itself is not run
    monkeypatch.setattr(hbb, "run_session", _reached)
    with pytest.raises(_SessionReached) as reached:
        main(["simulate", "--rounds", str(cli.MAX_ROUNDS), "--out", str(tmp_path / "t.json")])
    assert reached.value.args == (cli.MAX_ROUNDS,)


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


def test_spec_strategy_checks_realizability_once(monkeypatch):
    calls = Counter()
    for name in ("_realizable", "_global_vectors"):
        original = getattr(attack, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (attack, exploit):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    args = cli.build_parser().parse_args(["simulate", "--attacker", "spec", "--spec", "kki"])
    assert isinstance(cli._build_strategy(args), exploit.HelstromAttack)
    # the unitary's check and targets and the attacker's measurements share
    # one global state
    assert calls["_realizable"] == 1
    assert calls["_global_vectors"] == 1


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


def _turned_spec(theta):
    """The circuit attack's spec with eps_10 turned toward eps_00 by ``theta``
    radians: its branch overlap is sin(theta) / 4."""
    doc = attack.spec_to_dict(exploit.example_spec())
    doc["eps"][2] = [[math.sin(theta), 0.0], [0.0, 0.0], [math.cos(theta), 0.0], [0.0, 0.0]]
    return doc


@pytest.mark.parametrize("theta,realizable", [(2e-9, True), (8e-9, False)])
def test_simulate_runs_every_spec_that_analyze_finds_realizable(tmp_path, capsys, theta, realizable):
    # overlaps 5e-10 and 2e-9, either side of attack.DEFAULT_TOL: the spec
    # attacker decides realizability once, at the tolerance analyze reports
    spec = tmp_path / "turned.json"
    spec.write_text(json.dumps(_turned_spec(theta)))
    out = tmp_path / "report.json"
    assert main(["analyze", "--spec", str(spec), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["realizable"] is realizable
    capsys.readouterr()
    rc = main(["simulate", "--attacker", "spec", "--spec", str(spec), "--rounds", "300",
               "--out", str(tmp_path / "t.json")])
    if realizable:
        assert rc == 0 and "error=0.0000" in capsys.readouterr().out
    else:
        assert rc == 2 and "spec is not realizable" in capsys.readouterr().err


def test_simulate_reports_schema_problems(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ancilla_dim": 2}')
    rc = main(["simulate", "--attacker", "spec", "--spec", str(bad), "--rounds", "10"])
    assert rc == 2
    assert "missing keys" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze


def _honest_doc_with(path, value):
    """The honest spec's document with the entry at ``path`` replaced."""
    doc = attack.spec_to_dict(attack.honest_spec())
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize(
    "path,value",
    [
        (("ancilla_dim",), 1.9),
        (("ancilla_dim",), "1"),
        (("ancilla_dim",), True),
        (("a", 0, 0), "0.7071067811865476"),
        (("a", 3, 1), False),
        (("a", 0, 0), 10**400),
    ],
    ids=["dim-float", "dim-string", "dim-bool", "re-string", "im-bool", "re-too-large-for-a-float"],
)
def test_analyze_rejects_spec_fields_that_are_not_json_numbers(tmp_path, capsys, path, value):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_honest_doc_with(path, value)))
    out = tmp_path / "r.json"
    assert main(["analyze", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


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
    "name,value,message",
    [
        # every trace norm 2: each Helstrom error reads -1/2
        ("trace_norm_stack", lambda deltas: np.full(len(deltas), 2.0), "Helstrom probability"),
        ("_JACOBI_MAX_SWEEPS", 1, "numerical check failed"),
    ],
    ids=["ConsistencyError", "ConvergenceError"],
)
def test_numerical_failures_exit_4_with_one_line(
    tmp_path, monkeypatch, capsys, name, value, message
):
    spec = tmp_path / "family.json"
    attack.save_spec(optimizer.random_family_point(np.random.default_rng(3)).to_spec(), spec)
    monkeypatch.setattr(qmath, name, value)
    assert main(["analyze", "--spec", str(spec), "--out", str(tmp_path / "r.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_analyze_reports_the_bilinear_flag_where_the_routes_disagree(tmp_path, monkeypatch, capsys):
    # the bilinear residual lies just above DEFAULT_TOL; the constructed-state
    # route, read lower by 1.5 times the tie bound, would flag an escape
    spec = _boundary_spec(48)
    path = tmp_path / "boundary.json"
    attack.save_spec(spec, path)
    nu = spec.joint_dim * 2.0**-53
    shift = 1.5 * 2.0 * nu / (1.0 - nu)
    overlaps = qmath.cross_overlaps
    monkeypatch.setattr(
        qmath, "cross_overlaps", lambda s, d: np.maximum(overlaps(s, d) - shift, 0.0)
    )
    out = tmp_path / "r.json"
    assert main(["analyze", "--spec", str(path), "--out", str(out)]) == 0
    assert "escape_ok=False" in capsys.readouterr().out
    report = attack.analyze(spec)
    assert json.loads(out.read_text())["escape_ok"] is report.escape_ok is False
    assert report.residuals.max_case_residual > attack.DEFAULT_TOL
    with pytest.raises(attack.ConsistencyError, match="escape routes disagree"):
        attack.cross_check(attack.SpecStack.of([spec]), [report])


def test_analysis_routes_run_no_cross_check_and_verify_runs_them(tmp_path, monkeypatch, capsys):
    checks = _counting_stacks(monkeypatch, attack, "cross_check")
    overlaps = _counting_stacks(monkeypatch, qmath, "cross_overlaps")
    specs = [attack.kki_spec(), attack.honest_spec(3), exploit.example_spec()]
    for spec in specs:
        attack.analyze(spec)
        attack.escape_check(spec)
    attack.analyze_stack(optimizer.family_stack([0.1, 0.3, 0.5], (0.0,) * 4))
    assert main(["analyze", "--spec", "kki", "--out", str(tmp_path / "r.json")]) == 0
    assert main(["sweep", "--grid", "200", "--out", str(tmp_path / "s.csv")]) == 0
    assert checks == [] and overlaps == []
    # verify's three analysing rows cross-check each stack they analyse: 40
    # family points; the two perfect specs alone and 10 family points; 12
    # perturbed specs
    assert main(["verify"]) == 0
    capsys.readouterr()
    assert checks == overlaps == [40, 1, 1, 10, 12]


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


@pytest.mark.parametrize("grid", ["1", str(cli.MAX_GRID + 1), "100000000000"])
def test_sweep_rejects_a_grid_out_of_range_with_one_line(tmp_path, capsys, grid):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--grid", grid, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --grid must be between 2 and") and err.count("\n") == 1
    assert not out.exists()


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


@pytest.mark.parametrize("restarts", ["0", str(cli.MAX_RESTARTS + 1), "100000000000"])
def test_optimize_rejects_restarts_out_of_range(tmp_path, capsys, monkeypatch, restarts):
    # the bound is checked before any work starts
    monkeypatch.setattr(optimizer, "maximize", lambda **kwargs: pytest.fail("maximize ran"))
    out = tmp_path / "o.json"
    assert main(["optimize", "--restarts", restarts, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --restarts must be between 1 and") and err.count("\n") == 1
    assert not out.exists()


def test_search_values_off_by_1e8_change_optimize_and_break_the_objective_identity(
    tmp_path, monkeypatch
):
    # optimize reads every value through this binding, so the fault moves
    # its output without a failure; the property test that search values
    # equal objective() bit for bit catches it at the optimum
    clean = tmp_path / "clean.json"
    assert main(["optimize", "--restarts", "2", "--seed", "11", "--out", str(clean)]) == 0
    monkeypatch.setattr(optimizer, "_closed_form", lambda c, s: attack._closed_form(c, s) + 1e-8)
    out = tmp_path / "o.json"
    assert main(["optimize", "--restarts", "2", "--seed", "11", "--out", str(out)]) == 0
    assert out.read_bytes() != clean.read_bytes()
    best = optimizer.maximize(restarts=2, rng=np.random.default_rng(11)).best_point
    factors = optimizer._phase_factors(best.phases).tolist()
    assert optimizer._search_value(best.c, factors) != optimizer.objective(best)


def test_a_helstrom_route_off_by_1e8_fails_verify_and_leaves_optimize_unchanged(
    tmp_path, monkeypatch, capsys
):
    clean = tmp_path / "clean.json"
    assert main(["optimize", "--restarts", "2", "--seed", "11", "--out", str(clean)]) == 0
    original = attack._helstrom_errors

    def off(deltas, priors):
        return [pe + 1e-8 if i % 2 == 0 else pe for i, pe in enumerate(original(deltas, priors))]

    monkeypatch.setattr(attack, "_helstrom_errors", off)
    out = tmp_path / "o.json"
    assert main(["optimize", "--restarts", "2", "--seed", "11", "--out", str(out)]) == 0
    assert out.read_bytes() == clean.read_bytes()
    capsys.readouterr()
    assert main(["verify"]) == 1
    assert "[FAIL] attack/closed-form-agreement: max closed-form vs Helstrom deviation 1.0" in (
        capsys.readouterr().out
    )


def _counting_stacks(monkeypatch, owner, name="analyze_stack"):
    passes = []
    original = getattr(owner, name)

    def counted(stack, *args):
        passes.append(len(stack))
        return original(stack, *args)

    monkeypatch.setattr(owner, name, counted)
    return passes


def test_optimize_and_sweep_analyse_their_points_in_stacked_passes(tmp_path, monkeypatch):
    # point by point, optimize --restarts 2 makes 112 evaluations; the two
    # restarts walk 100 distinct search points, the first 50 staying under
    # STACK_BOUND, so they form one batch: one escape pass over the 100
    # search points and the four distinct phase probes, and no full analysis
    full = _counting_stacks(monkeypatch, attack, "_analysis_pass")
    light = _counting_stacks(monkeypatch, optimizer, "escape_outcomes")
    assert main(["optimize", "--restarts", "2", "--seed", "101", "--out", str(tmp_path / "o")]) == 0
    assert full == []
    assert light == [104]
    # sweep --grid 5 analyses its 6 rows in one pass
    passes = _counting_stacks(monkeypatch, attack)
    assert main(["sweep", "--grid", "5", "--out", str(tmp_path / "s.csv")]) == 0
    assert passes == [6]


# ---------------------------------------------------------------------------
# config plumbing


def test_bundled_specs_resolve():
    for name in cli.BUNDLED_SPECS:
        spec = cli.resolve_spec(name)
        assert isinstance(spec, attack.AttackSpec)


def test_run_config_validation(capsys):
    args = cli.build_parser().parse_args(["simulate"])
    assert args.rounds == 10000 and args.check_fraction == 0.5 and args.seed == 42
    assert args.attacker == "none" and args.spec_path is None and args.out_format == "json"
    args = cli.build_parser().parse_args(["optimize"])
    assert (args.restarts, args.iters, args.tol, args.seed) == (4, optimizer.MAX_ITERS, 1e-6, 42)
    assert cli.build_parser().parse_args(["sweep"]).grid == 41
    assert main(["simulate", "--attacker", "spec", "--rounds", "10"]) == 2
    assert capsys.readouterr().err == (
        "error: --spec is required exactly when --attacker spec is chosen\n"
    )


def test_main_calls_in_turn_each_get_their_own_defaults(monkeypatch):
    cli._parser.cache_clear()
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    seen = []
    for name in ("cmd_simulate", "cmd_optimize"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
    assert main(["optimize", "--seed", "7"]) == 0
    assert main(["simulate"]) == 0
    assert main(["optimize"]) == 0
    assert len(built) == 1  # one parser for the process
    assert seen[0] == {**vars(build().parse_args(["optimize"])), "seed": 7}
    assert seen[1] == vars(build().parse_args(["simulate"]))
    assert seen[2] == vars(build().parse_args(["optimize"])) and seen[2]["seed"] == 42


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
