"""Command-line front end tying the modules into reproducible experiments.

Commands:

* ``verify``   — run the built-in checks, the rows of ``VERIFY_CHECKS``: each
  measures a deviation and passes iff it is at most the row's tolerance
  (a NaN deviation fails); nonzero exit on failure.
* ``simulate`` — run a protocol session and export the transcript.

  Transcript JSON schema: an object with keys ``n_rounds``,
  ``check_fraction``, ``seed``, ``attacker``, ``check_error_rate``,
  ``key_alice``, ``key_reconstructed``, ``attacker_key_guess`` and
  ``rounds``; each round holds ``round_id``, ``basis_a/b/c``, ``sifted``,
  ``role``, ``outcome_a/b``, ``announced_c`` and ``consistent``.
* ``analyze``  — full attack analysis of a spec file, exported as JSON. The
  report's ``info`` is the mean over the four equiprobable basis cases of
  I(pe) = 1 + pe log2 pe + (1 - pe) log2 (1 - pe) at each case's Helstrom
  error pe.
* ``sweep``    — CSV sweep of the detection-passing family over c.
* ``optimize`` — numeric information maximisation, exported as JSON.

Attack spec JSON schema: ``{"ancilla_dim": d, "a": [[re, im] x4 row-major],
"eps": [[[re, im] x (2 d)] x4]}``. The bundled specs ``honest``,
``hbb_section4`` and ``kki`` may be named in place of a path.

Exit codes: 0 success; 1 a ``verify`` check failed; 2 invalid input (spec,
option or argument, or a spec or output path that cannot be read or
written); 3 the attacker broke the session contract; 4 a numerical check
failed (a Helstrom error out of range, a state off span(eps), weights not
summing to 1, an ``optimize`` value that depends on the phases, or no
convergence), while disagreeing routes fail ``verify``. Codes 2 and 4 print
one ``error:`` line on stderr, code 3 one ``session aborted:`` line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import attack, exploit, hbb, optimizer, qmath, qstate

BUNDLED_SPECS = ("honest", "hbb_section4", "kki")

_DEFAULT_SEED = 42


def resolve_spec(name_or_path: str) -> attack.AttackSpec:
    """Load a spec from a path, or from the bundled set by bare name."""
    p = Path(name_or_path)
    if p.exists():
        return attack.load_spec(p)
    stem = name_or_path.removesuffix(".json")
    if stem in BUNDLED_SPECS:
        ref = resources.files("hbbqss").joinpath(f"specs/{stem}.json")
        return attack.spec_from_dict(json.loads(ref.read_text()))
    raise attack.SpecError(
        f"no spec file at {name_or_path!r} and no bundled spec of that name "
        f"(bundled: {', '.join(BUNDLED_SPECS)})"
    )


# ---------------------------------------------------------------------------
# verify

# Known-good post-decoder states for the x,x case, one row per conditional
# in attack.BRANCHES order, used by the circuit equivalence check: detection
# decoding maps the four conditionals onto these Bell-type forms,
# information decoding onto the second set.
_R = 1.0 / math.sqrt(2.0)
_DECODED_XX = {
    hbb.Role.CHECK: _R * np.array(
        [[0, 1, 1, 0], [1, 0, 0, -1], [1, 0, 0, 1], [0, -1, 1, 0]], complex
    ),
    hbb.Role.KEY: _R * np.array(
        [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, -1, 1, 0]], complex
    ),
}

#: Largest deviation of an exact state, transform or announcement mass from
#: its target: round-off in products of amplitudes of magnitude at most 1.
EXACT_TOL = 1e-12

#: Information gap (bits) within which a perturbed spec that escapes
#: detection counts as still attacking perfectly.
_PERFECT_INFO_GAP = 1e-4

#: Largest information deficit (bits) of a perfect spec below one full bit.
_NAS_INFO_TOL = 1e-9


def _worst(values) -> float:
    """The largest of ``values``, NaN if one is NaN (max() may drop it)."""
    return float(np.max(list(values)))


def _check_correlation_reproduction() -> tuple[float, str]:
    t = hbb.run_session(10000, check_fraction=1.0, seed=20240517)
    # read off the correlation table itself, not the rows' ``consistent``,
    # which the session takes from its row table built at import
    mismatches = sum(
        1 for r in t.rounds if r.role is hbb.Role.CHECK and hbb.infer_alice(r.outcome_b, r.announced_c) != r.outcome_a
    )
    return float(mismatches), f"{mismatches} correlation-table mismatches over {t.n_rounds} rounds"


def _stack_of(points) -> attack.SpecStack:
    """The family stack of ``points``, each with its own ancilla states."""
    return optimizer.family_stack(*zip(*((p.c, p.phases, p.eps) for p in points)))


def _analyzed(stack: attack.SpecStack) -> list[attack.AttackReport]:
    """The stack's reports, held by ``attack.cross_check`` to the other routes."""
    reports = attack.analyze_stack(stack)
    attack.cross_check(stack, reports)
    return reports


def _check_closed_form_agreement() -> tuple[float, str]:
    rng = np.random.default_rng(7)
    points = [optimizer.random_family_point(rng) for _ in range(40)]
    reports = _analyzed(_stack_of(points))
    worst = _worst(
        math.inf if r.pe_closed_form is None else abs(r.pe_numeric[c] - r.pe_closed_form)
        for r in reports
        for c in attack.CASES
    )
    return worst, f"max closed-form vs Helstrom deviation {worst:.3e}"


def _check_circuit_state_preparation() -> tuple[float, str]:
    psi0 = qstate.tensor_with_ancilla(qstate.ghz_state(), "E", 2)
    produced = exploit.entangle_circuit(psi0)
    expected = attack.global_state(exploit.example_spec())
    dev = qstate.phase_aligned_distance(produced.vec, expected.vec)
    return dev, f"state preparation deviation {dev:.3e}"


def _check_decoder_transforms() -> tuple[float, str]:
    case = attack.Case.XX
    table = attack.conditional_states(exploit.example_spec(), case)
    worst = _worst(
        qstate.phase_aligned_distance(exploit._decoder(role, case)[0] @ table[m, n][1], t)
        for role, targets in _DECODED_XX.items()
        for (m, n), t in zip(attack.BRANCHES, targets)
    )
    return worst, f"max transform deviation {worst:.3e}"


def _check_decoder_soundness() -> tuple[float, str]:
    spec = exploit.example_spec()
    bad = 0
    defects = []
    for case in attack.CASES:
        table = attack.conditional_states(spec, case)
        for (m, n), (_, phi) in table.items():
            alice = qstate.Outcome(m, case.alice_basis)
            bob = qstate.Outcome(n, case.bob_basis)
            required = hbb.required_announcement(alice, bob).bit
            bad += exploit.detection_decode(phi, case) != required
            bad += exploit.info_decode(phi, case) != alice.bit
            # The announcement must also be deterministic, not a lucky argmax.
            transform, bits = exploit._decoder(hbb.Role.CHECK, case)
            probs = np.abs(transform @ phi) ** 2
            defects.append(abs(1.0 - sum(p for p, bit in zip(probs, bits) if bit == required)))
    worst_mass = _worst(defects)
    verdict = f"{bad} decoder mismatches" if bad else "decoders exact"
    # each mismatch adds a whole unit, far above EXACT_TOL
    return bad + worst_mass, f"{verdict}, mass defect {worst_mass:.3e}"


def _check_nas_sufficiency() -> tuple[float, str]:
    rng = np.random.default_rng(11)
    points = [optimizer.random_family_point(rng, c=0.5) for _ in range(10)]
    specs = (exploit.example_spec(), attack.kki_spec())
    stacks = [attack.SpecStack.of([spec]) for spec in specs] + [_stack_of(points)]
    reports = [r for stack in stacks for r in _analyzed(stack)]
    worst = _worst(1.0 - r.info if r.nas_ok and r.escape_ok else math.inf for r in reports)
    return worst, f"max information deficit {worst:.3e} over {len(reports)} specs"


def _check_nas_necessity() -> tuple[float, str]:
    rng = np.random.default_rng(13)
    specs = [
        perturbed_spec(rng, delta, kind)
        for delta in (0.01, 0.05, 0.1)
        for kind in ("magnitude", "rotation")
        for _ in range(2)
    ]
    reports = _analyzed(attack.SpecStack.of(specs))
    violations = sum(r.escape_ok and r.info > 1.0 - _PERFECT_INFO_GAP for r in reports)
    if violations:
        return float(violations), f"{violations} of {len(specs)} perturbed specs attack perfectly"
    return 0.0, f"all {len(specs)} perturbed specs degraded"


def _check_optimizer_maximum() -> tuple[float, str]:
    result = optimizer.maximize(restarts=2, rng=np.random.default_rng(5))
    dev = abs(result.best_info - 1.0) if result.converged else math.inf
    return dev, f"max info {result.best_info:.9f} at c {result.best_point.c:.6f}"


def perturbed_spec(rng: np.random.Generator, delta: float, kind: str) -> attack.AttackSpec:
    """A perfect-attack spec nudged off the optimum by ``delta``."""
    point = optimizer.random_family_point(rng, c=0.5)
    eps = np.array(point.eps)
    a = point.to_spec().a.copy()
    if kind == "magnitude":
        a[0, 0] = (0.5 + delta) * a[0, 0] / abs(a[0, 0])
        rest = math.sqrt((1.0 - abs(a[0, 0]) ** 2) / 3.0)
        for (i, j) in ((0, 1), (1, 0), (1, 1)):
            a[i, j] = rest * a[i, j] / abs(a[i, j])
    elif kind == "rotation":
        eps[0] = math.cos(delta) * eps[0] + math.sin(delta) * eps[1]
    else:
        raise ValueError(f"unknown perturbation {kind!r}")
    return attack.AttackSpec(2, a, eps)


#: The built-in checks: each row names a measurement, which returns its
#: deviation and a detail line, and the tolerance the deviation is held to.
#: Counts are held to 0; a flag that fails makes the deviation infinite.
VERIFY_CHECKS = (
    ("hbb/correlation-reproduction", _check_correlation_reproduction, 0.0),
    ("attack/closed-form-agreement", _check_closed_form_agreement, optimizer.CLOSED_FORM_TOL),
    ("exploit/circuit-state-preparation", _check_circuit_state_preparation, EXACT_TOL),
    ("exploit/decoder-transforms", _check_decoder_transforms, EXACT_TOL),
    ("exploit/decoder-soundness", _check_decoder_soundness, EXACT_TOL),
    ("attack/nas-sufficiency", _check_nas_sufficiency, _NAS_INFO_TOL),
    ("attack/nas-necessity", _check_nas_necessity, 0.0),
    ("optimizer/maximum", _check_optimizer_maximum, optimizer.CONVERGENCE_TOL),
)


def cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    for name, measure, tol in VERIFY_CHECKS:
        try:
            deviation, detail = measure()
        except Exception as exc:  # noqa: BLE001 - each failure is itemised
            failures += 1
            print(f"[FAIL] {name}: {exc}")
            continue
        if deviation <= tol:  # the one comparison: a NaN deviation fails
            print(f"[PASS] {name}: {detail}")
        else:
            failures += 1
            print(f"[FAIL] {name}: {detail} (deviation {deviation:.3e}, tolerance {tol:.1e})")
    if failures:
        print(f"verify: {failures} of {len(VERIFY_CHECKS)} checks failed")
        return 1
    print(f"verify: all {len(VERIFY_CHECKS)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# simulate / analyze / sweep / optimize


def _build_strategy(args: argparse.Namespace):
    if (args.attacker == "spec") != (args.spec_path is not None):
        raise ValueError("--spec is required exactly when --attacker spec is chosen")
    if args.attacker == "none":
        return None
    if args.attacker == "hbb-circuit":
        return exploit.full_attack_strategy()
    if args.attacker == "intercept-resend":
        return exploit.intercept_resend_strategy()
    if args.attacker == "spec":
        return exploit.spec_attack_strategy(resolve_spec(args.spec_path))
    raise ValueError(f"unknown attacker {args.attacker!r}")


#: Most ``simulate --rounds``, set by peak memory: the transcript is written
#: as text built in memory, about 0.85 KB a round at the peak of a JSON
#: write. The run times and peak memory that set it are in CHANGES.md.
MAX_ROUNDS = 1_000_000


def cmd_simulate(args: argparse.Namespace) -> int:
    if not 1 <= args.rounds <= MAX_ROUNDS:
        raise ValueError(f"--rounds must be between 1 and {MAX_ROUNDS}, got {args.rounds}")
    strategy = _build_strategy(args)
    transcript = hbb.run_session(
        args.rounds, args.check_fraction, strategy=strategy, seed=args.seed
    )
    out = Path(args.out_path or f"transcript.{args.out_format}")
    if args.out_format == "json":
        out.write_text(hbb.transcript_to_json(transcript))
    else:
        out.write_text(hbb.transcript_to_csv(transcript))
    err = transcript.check_error_rate
    err_s = "n/a" if err is None else f"{err:.4f}"
    if transcript.attacker_key_guess:
        info_s = f"{hbb.info_rate(transcript):.4f}"
    else:
        info_s = "n/a"
    print(f"error={err_s} info={info_s} rounds={args.rounds} out={out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    spec = resolve_spec(args.spec_path)
    report = attack.analyze(spec)
    out = Path(args.out_path or "report.json")
    out.write_text(attack.report_to_json(report))
    print(
        f"escape_ok={report.escape_ok} nas_ok={report.nas_ok} "
        f"realizable={report.realizable} info={report.info:.6f} out={out}"
    )
    return 0


#: Largest ``sweep --grid``, set by run time: the points go through stacked
#: analyses, and the CSV rows are held in memory. The run times and peak
#: memory that set it are in CHANGES.md.
MAX_GRID = 100_000


def cmd_sweep(args: argparse.Namespace) -> int:
    if not 2 <= args.grid <= MAX_GRID:
        raise ValueError(f"--grid must be between 2 and {MAX_GRID}, got {args.grid}")
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=",", lineterminator="\n")
    writer.writerow(["c", "s", "pe_closed", "pe_numeric", "info", "max_residual"])
    # a uniform grid can never contain the irrational-fraction optimum, so
    # the perfect-attack point is added explicitly
    grid = np.unique(np.append(np.linspace(0.0, optimizer.INV_SQRT2, args.grid), 0.5))
    bound = attack.STACK_BOUND
    for start in range(0, len(grid), bound):
        cs = grid[start:start + bound].tolist()
        stack = optimizer.family_stack(cs, (0.0, 0.0, 0.0, 0.0))  # so s = |a01| exactly
        for c, s, report in zip(cs, np.abs(stack.a[:, 0, 1]).tolist(), attack.analyze_stack(stack)):
            writer.writerow(
                [
                    f"{c:.12g}",
                    f"{s:.12g}",
                    f"{report.pe_closed_form:.12g}",
                    f"{max(report.pe_numeric.values()):.12g}",
                    f"{report.info:.12g}",
                    f"{max(report.residuals.all_values):.12g}",
                ]
            )
    out = Path(args.out_path or "sweep.csv")
    out.write_text(buf.getvalue())
    print(f"rows={len(grid)} out={out}")
    return 0


#: Most ``optimize --restarts``, set by run time: the restarts are checked in
#: batches of about attack.STACK_BOUND search points, so time grows with the
#: count, and memory with the trace, 52 evaluations per restart. The run
#: times and peak memory that set it are in CHANGES.md.
MAX_RESTARTS = 5_000


def cmd_optimize(args: argparse.Namespace) -> int:
    if not 1 <= args.restarts <= MAX_RESTARTS:
        raise ValueError(f"--restarts must be between 1 and {MAX_RESTARTS}, got {args.restarts}")
    result = optimizer.maximize(
        restarts=args.restarts,
        iters=args.iters,
        tol=args.tol,
        rng=np.random.default_rng(args.seed),
    )
    out = Path(args.out_path or "optimize.json")
    out.write_text(optimizer.result_to_json(result))
    print(
        f"best_info={result.best_info:.9f} c={result.best_point.c:.6f} "
        f"converged={result.converged} out={out}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbbqss",
        description="Simulate and cryptanalyse the HBB GHZ-state secret-sharing protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", help="run the built-in correctness checks")

    sim = sub.add_parser("simulate", help="run a protocol session")
    sim.add_argument("--rounds", type=int, default=10000)
    sim.add_argument("--check-fraction", type=float, default=0.5)
    sim.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    sim.add_argument(
        "--attacker",
        choices=("none", "hbb-circuit", "intercept-resend", "spec"),
        default="none",
    )
    sim.add_argument("--spec", dest="spec_path", default=None, help="spec file or bundled name")
    sim.add_argument("--out", dest="out_path", default=None)
    sim.add_argument("--format", dest="out_format", choices=("json", "csv"), default="json")

    ana = sub.add_parser("analyze", help="analyse an attack spec")
    ana.add_argument("--spec", dest="spec_path", required=True)
    ana.add_argument("--out", dest="out_path", default=None)

    swp = sub.add_parser("sweep", help="sweep the detection-passing family")
    swp.add_argument("--grid", type=int, default=41)
    swp.add_argument("--out", dest="out_path", default=None)

    opt = sub.add_parser("optimize", help="maximise the attacker information")
    opt.add_argument("--restarts", type=int, default=4)
    opt.add_argument("--iters", type=int, default=optimizer.MAX_ITERS)
    opt.add_argument("--tol", type=float, default=optimizer.CONVERGENCE_TOL)
    opt.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    opt.add_argument("--out", dest="out_path", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        handler = {
            "verify": cmd_verify,
            "simulate": cmd_simulate,
            "analyze": cmd_analyze,
            "sweep": cmd_sweep,
            "optimize": cmd_optimize,
        }[args.command]
        return handler(args)
    except (attack.SpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except hbb.SessionAbort as exc:
        print(f"session aborted: {exc}", file=sys.stderr)
        return 3
    except (attack.ConsistencyError, qmath.ConvergenceError) as exc:
        print(f"error: numerical check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
