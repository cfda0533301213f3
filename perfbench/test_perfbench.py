"""Tests of the benchmark's own code: checkers, spec generator and tracer.

Outside the repository's test paths; run them with

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import checks
import common
import workloads
from tracer import PER_LAYER, Tracer

cli = common.import_cli()
from hbbqss import attack, hbb  # noqa: E402  (import_cli puts the checkout's src first)


def run(op: workloads.Op) -> tuple[workloads.OpResult, str]:
    result = workloads.run_op(cli, op)
    assert result.error is None and result.code == 0, result
    return result, op.out.read_text()


@pytest.fixture(scope="module")
def population(tmp_path_factory):
    wl = workloads.AnalysisWorkload(5, tmp_path_factory.mktemp("analysis"))
    wl.setup()
    return wl


def test_ghz_table_is_the_protocol_table():
    assert checks.GHZ_TABLE == hbb.CORRELATION_TABLE


def test_benchmark_json_lists_every_metric():
    doc = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == PER_LAYER
    import run

    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_session_checker_rejects_a_flipped_consistent_flag(tmp_path, fmt):
    wl = workloads.SessionWorkload(3, tmp_path)
    wl.setup()
    op = wl._op("hbb-circuit", fmt, 17)
    result, text = run(op)
    wl.check(op, result, text)
    if fmt == "json":
        doc = json.loads(text)
        row = next(r for r in doc["rounds"] if r["role"] == "check")
        row["consistent"] = not row["consistent"]
        bad = json.dumps(doc)
    else:
        lines = text.splitlines()
        k = next(i for i, line in enumerate(lines) if ",check," in line)
        lines[k] = lines[k].rsplit(",", 1)[0] + ",False"
        bad = "\n".join(lines) + "\n"
    with pytest.raises(checks.CheckError, match="consistent"):
        wl.check(op, result, bad)


def test_session_checker_rejects_a_wrong_key_guess(tmp_path):
    wl = workloads.SessionWorkload(3, tmp_path)
    wl.setup()
    op = wl._op("spec-kki", "json", 5)
    result, text = run(op)
    doc = json.loads(text)
    doc["attacker_key_guess"][0] ^= 1
    doc["key_reconstructed"][0] ^= 1
    with pytest.raises(checks.CheckError, match="wrong key guesses"):
        wl.check(op, result, json.dumps(doc))


def test_report_checker_rejects_a_moved_pe_numeric(population):
    kind, path = population.groups[0][0]
    op = population._op(kind, path)
    result, text = run(op)
    population.check(op, result, text)
    doc = json.loads(text)
    doc["pe_numeric"]["xy"] += 1e-6
    with pytest.raises(checks.CheckError, match="pe_numeric"):
        population.check(op, result, json.dumps(doc))


def test_optimize_checker_rejects_converged_false(tmp_path):
    wl = workloads.OptimizeWorkload(3, tmp_path)
    op = wl._optimize(8)
    result, text = run(op)
    wl.check(op, result, text)
    doc = json.loads(text)
    doc["converged"] = False
    with pytest.raises(checks.CheckError, match="converge"):
        wl.check(op, result, json.dumps(doc))


def test_sweep_checker_rejects_a_dropped_row(tmp_path):
    wl = workloads.OptimizeWorkload(3, tmp_path)
    op = wl._sweep(5)
    result, text = run(op)
    wl.check(op, result, text)
    lines = text.splitlines()
    del lines[3]
    with pytest.raises(checks.CheckError, match="sweep rows"):
        wl.check(op, result, "\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "kind,want,dim",
    [("family", "escaping", d) for d in (2, 3, 4)]
    + [("nas", "nas", d) for d in (2, 3, 4)]
    + [("non-escaping", "non-escaping", d) for d in (1, 2, 3, 4)],
)
def test_generator_classes_hold_under_numpy(kind, want, dim):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        a, eps, facts = workloads.generate_spec(rng, kind, dim)
        assert facts.kind == want and facts.off_boundary()
        if kind == "nas":
            assert np.allclose(np.abs(a), 0.5)
        if kind != "non-escaping":
            assert np.allclose(eps.conj() @ eps.T, np.eye(4))


def test_near_perfect_specs_are_classified_and_rejected(population):
    for path in population.near_perfect:
        facts = population.facts[path]
        assert facts.kind == "near-perfect"
        assert facts.max_residual >= checks.BOUNDARY_MARGIN * checks.FLAG_TOL
        with pytest.raises(attack.ConsistencyError):
            attack.analyze(attack.load_spec(path))


def test_kept_failing_ops_fail_as_expected(tmp_path, population):
    ops = [op for op in workloads.OptimizeWorkload(3, tmp_path).round_ops(0) if op.expect_error]
    ops += [op for op in population.round_ops(0) if op.expect_error]
    assert [op.kind for op in ops] == ["optimize", "near-perfect"]
    for op in ops:
        assert op.failed_as_expected(workloads.run_op(cli, op))


def test_every_population_spec_passes_its_checks(population):
    ops = population.round_ops(0) + population.round_ops(1)
    for op in ops:
        if op.kind == "near-perfect":
            continue
        result, text = run(op)
        population.check(op, result, text)


def test_tracer_binds_every_name_and_measures_self_time(tmp_path):
    wl = workloads.SessionWorkload(4, tmp_path)
    wl.setup()
    tracer = Tracer()
    original = hbb.measure_qubit
    first = tracer.begin_op()
    assert hbb.measure_qubit is not original
    import hbbqss.exploit

    assert hbbqss.exploit.measure_qubit is hbb.measure_qubit
    op = wl._op("intercept-resend", "json", 9)
    result = workloads.run_op(cli, op)
    tracer.end_op(first, op.kind, 300)
    assert hbb.measure_qubit is original
    assert result.error is None
    m = tracer.metrics(bytes_written=op.out.stat().st_size)
    assert set(m) == {name for name, _, _ in PER_LAYER} - {"trace.overhead_pct"}
    assert m["hbb.rounds_per_s.intercept-resend"] == m["hbb.rounds_per_s"] > 0
    assert m["exploit.intercept.calls_per_op"] == 300
    dur, own = tracer.durations()
    roots = np.frombuffer(tracer.parent, dtype=np.intc) < 0
    assert math.isclose(own.sum(), dur[roots].sum(), rel_tol=1e-9)
    assert 0.9 * 1e3 * dur[roots].sum() <= m["cli.simulate.ms_per_op"] <= 1e3 * dur[roots].sum()
