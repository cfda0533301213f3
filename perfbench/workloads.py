"""The three workloads: their generated inputs, op schedules and checks.

One op is one ``hbbqss.cli.main(argv)`` call. Each workload hands out whole
rounds of ops; every round holds the same op kinds in the same numbers, in
an order drawn from the workload seed, so a slow spell of a shared machine
hits every kind alike and the share of failed ops is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from common import SRC

CHECK_FRACTION = 0.5
SESSION_ROUNDS = 300
SESSION_ATTACKERS = ("none", "hbb-circuit", "spec-kki", "spec-family", "intercept-resend")
OPTIMIZE_RESTARTS = 2
#: Optimizer seeds the workload seed draws from. The rounding fault recorded
#: in CHANGES.md (a closed-form error of -1.1e-16 near c = 1/2 makes
#: ``optimize`` exit 2) strikes about one seed in 140 (11 of 1500 tried), so
#: a seed drawn freely would fail on some runs only and no run could hold a
#: fixed share of failed ops. All 120 pool seeds were run when the benchmark
#: was written and none hits the fault; the fault itself runs in every round
#: on the fixed seed below.
OPTIMIZE_SEEDS = tuple(int(s) for s in np.random.default_rng(2008).integers(0, 2**31 - 1, 120))
#: A seed on which ``optimize`` hits that fault every time: the kept failing
#: op of the ``optimize`` workload, independent of the workload seed.
OPTIMIZE_FAULT_SEED = 1492956812
OPTIMIZE_FAULT = "error probability must lie in [0, 1]"
SWEEP_GRIDS = (5, 7)
BUNDLED = ("honest", "hbb_section4", "kki")

#: One analysis round: (spec class, ancilla_dim) per generated spec; with the
#: three bundled specs and one near-perfect spec a round holds 19 ops. The
#: Jacobi cost grows with ancilla_dim, so op times cluster by dimension; the
#: counts per dimension (3, 4, 6, 5 and the near-perfect one) put the median
#: inside the dim-3 cluster and the 90th percentile inside the dim-4 one,
#: never in the gap between two clusters.
ANALYSIS_ROUND = (
    [("family", d) for d in (2, 3, 3, 4)]
    + [("nas", d) for d in (2, 3, 4)]
    + [("non-escaping", d) for d in (1, 1, 2, 3, 3, 3, 4, 4)]
)
#: Distinct population groups written at set-up; round r uses group r mod this.
ANALYSIS_GROUPS = 4

#: Near-perfect specs: NAS points with eps[0] turned toward eps[1] by these
#: angles (rad). They come from a fixed generator, not from the workload
#: seed, because ``analyze`` rejects every one of them (see README).
NEAR_PERFECT = ((2, 5e-8), (3, 2e-7), (4, 2e-6), (2, 1e-5))
NEAR_PERFECT_SEED = 1999


@dataclass
class Op:
    """One CLI call; ``args`` holds everything but ``--out``."""

    kind: str
    args: list[str]
    out: Path
    meta: dict = field(default_factory=dict)
    #: How the op is known to fail: the name of the exception that escapes
    #: ``cli.main``, or the message ``cli.main`` prints when it exits with 2.
    expect_error: str | None = None

    def argv(self, out: Path | None = None) -> list[str]:
        return self.args + ["--out", str(out or self.out)]

    def failed_as_expected(self, result: OpResult) -> bool:
        if self.expect_error is None:
            return False
        if result.error is not None:
            return type(result.error).__name__ == self.expect_error
        return result.code == 2 and self.expect_error in result.stderr


@dataclass
class OpResult:
    start: float
    seconds: float
    stdout: str
    stderr: str
    error: BaseException | None
    code: int | None


def run_op(cli, op: Op, out: Path | None = None) -> OpResult:
    """Run one op in process, its output captured; only the call is timed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    error, code = None, None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv(out))
        except (Exception, SystemExit) as exc:  # counted and reported by the caller
            error = exc
        seconds = time.perf_counter() - t0
    return OpResult(t0, seconds, stdout.getvalue(), stderr.getvalue(), error, code)


def random_orthonormal(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    g = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    q, _ = np.linalg.qr(g)
    return q.T[:count].copy()


def family_amplitudes(c: float, phases) -> np.ndarray:
    s = math.sqrt(max(0.5 - c * c, 0.0))
    ph = np.exp(1j * np.asarray(phases))
    return np.array([[c * ph[0], s * ph[1]], [s * ph[2], c * ph[3]]])


def family_spec(rng, c: float, dim: int):
    """A detection-passing point: orthonormal ancillas, |a00| = |a11| = c."""
    return family_amplitudes(c, rng.uniform(0.0, 2.0 * math.pi, 4)), random_orthonormal(rng, 2 * dim, 4)


def nonescaping_spec(rng, dim: int):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    eps = rng.normal(size=(4, 2 * dim)) + 1j * rng.normal(size=(4, 2 * dim))
    return a / np.linalg.norm(a), eps / np.linalg.norm(eps, axis=1, keepdims=True)


def near_perfect_spec(rng, dim: int, angle: float):
    a, eps = family_spec(rng, 0.5, dim)
    eps[0] = math.cos(angle) * eps[0] + math.sin(angle) * eps[1]
    return a, eps


_GENERATED_CLASS = {"family": "escaping", "nas": "nas", "non-escaping": "non-escaping"}


def generate_spec(rng, kind: str, dim: int):
    """Draw a spec of the named class whose flags all sit off the boundary."""
    for _ in range(100):
        if kind == "family":
            c = float(rng.uniform(0.05, 0.65))
            if abs(c - 0.5) < 0.02:
                continue
            a, eps = family_spec(rng, c, dim)
        elif kind == "nas":
            a, eps = family_spec(rng, 0.5, dim)
        else:
            a, eps = nonescaping_spec(rng, dim)
        facts = checks.spec_facts(a, eps)
        if facts.kind == _GENERATED_CLASS[kind] and facts.off_boundary():
            return a, eps, facts
    raise RuntimeError(f"could not draw a {kind} spec of ancilla_dim {dim}")


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc) + "\n")


class Workload:
    """Inputs, rounds and checks of one workload; see the subclasses."""

    name = ""
    #: Ops re-run after the timed phase to confirm byte-identical output.
    repeats = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Write the generated input files."""

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warmup_op(self) -> Op:
        raise NotImplementedError

    def check(self, op: Op, result: OpResult, text: str) -> None:
        """Check one op's written output; raises checks.CheckError."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over the whole run; raises checks.CheckError."""

    def _order(self, r: int, ops: list) -> list:
        perm = np.random.default_rng([self.seed, 7, r]).permutation(len(ops))
        return [ops[int(i)] for i in perm]

    def _draw_seed(self, *key: int) -> int:
        return int(np.random.default_rng([self.seed, *key]).integers(0, 2**31 - 1))


class SessionWorkload(Workload):
    """``simulate`` ops: the five attackers, JSON and CSV transcripts."""

    name = "session"
    repeats = 3

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.family_c = float(rng.uniform(0.2, 0.4))
        a, eps = family_spec(rng, self.family_c, 2)
        self.family_path = self.workdir / "family.json"
        write_json(self.family_path, checks.spec_doc(a, eps))
        self.tallies: dict[str, list[tuple[str, checks.SessionTally]]] = {
            k: [] for k in SESSION_ATTACKERS
        }

    def _op(self, kind: str, fmt: str, seed: int) -> Op:
        args = ["simulate", "--rounds", str(SESSION_ROUNDS), "--check-fraction", str(CHECK_FRACTION),
                "--seed", str(seed), "--format", fmt]
        if kind.startswith("spec-"):
            spec = "kki" if kind == "spec-kki" else str(self.family_path)
            args += ["--attacker", "spec", "--spec", spec]
        else:
            args += ["--attacker", kind]
        meta = {"rounds": SESSION_ROUNDS, "seed": seed, "format": fmt}
        return Op(kind, args, self.workdir / f"transcript.{fmt}", meta)

    def round_ops(self, r: int) -> list[Op]:
        # Two passes over one attacker order with formats alternating op by
        # op, so each attacker writes one JSON and one CSV transcript a round.
        order = self._order(r, list(SESSION_ATTACKERS))
        kinds = order + order
        return [
            self._op(kind, "json" if k % 2 == 0 else "csv", self._draw_seed(2, r, k))
            for k, kind in enumerate(kinds)
        ]

    def warmup_op(self) -> Op:
        return self._op("spec-family", "json", self._draw_seed(3))

    def check(self, op: Op, result: OpResult, text: str) -> None:
        tally = checks.check_session(
            text, op.meta["format"], result.stdout, op.kind,
            op.meta["rounds"], op.meta["seed"], CHECK_FRACTION,
        )
        self.tallies[op.kind].append((op.meta["format"], tally))

    def finish(self) -> None:
        # Only JSON transcripts carry the attacker's key guesses.
        family = [t for fmt, t in self.tallies["spec-family"] if fmt == "json"]
        disagree, keyed = sum(t.key_disagree for t in family), sum(t.key_rounds for t in family)
        p = 0.5 * (1.0 - 4.0 * self.family_c * math.sqrt(0.5 - self.family_c**2))
        checks.require(
            checks.within_sigma(disagree, keyed, p),
            f"family point c={self.family_c:.4f}: key disagreement {disagree}/{keyed}, expected {p:.4f}",
        )
        ir = [t for _, t in self.tallies["intercept-resend"]]
        errors, total = sum(t.check_errors for t in ir), sum(t.checks for t in ir)
        checks.require(
            checks.within_sigma(errors, total, 0.25),
            f"intercept-resend check error {errors}/{total}, expected 1/4",
        )


class AnalysisWorkload(Workload):
    """``analyze`` ops over a seeded population of specs written at set-up."""

    name = "analysis"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.facts: dict[str, checks.SpecFacts] = {}
        self.groups: list[list[tuple[str, str]]] = []
        for g in range(ANALYSIS_GROUPS):
            group = []
            for k, (kind, dim) in enumerate(ANALYSIS_ROUND):
                a, eps, facts = generate_spec(rng, kind, dim)
                path = self.workdir / f"spec-{g}-{k}.json"
                write_json(path, checks.spec_doc(a, eps))
                self.facts[str(path)] = facts
                group.append((f"{kind}-{dim}", str(path)))
            self.groups.append(group)
        for name in BUNDLED:
            doc = json.loads((SRC / "hbbqss" / "specs" / f"{name}.json").read_text())
            self.facts[name] = checks.spec_facts(*checks.spec_arrays(doc))
        fixed = np.random.default_rng(NEAR_PERFECT_SEED)
        self.near_perfect = []
        for k, (dim, angle) in enumerate(NEAR_PERFECT):
            a, eps = near_perfect_spec(fixed, dim, angle)
            path = self.workdir / f"near-perfect-{k}.json"
            write_json(path, checks.spec_doc(a, eps))
            self.facts[str(path)] = checks.spec_facts(a, eps)
            self.near_perfect.append(str(path))

    def _op(self, kind: str, spec: str) -> Op:
        expect = "ConsistencyError" if kind == "near-perfect" else None
        return Op(kind, ["analyze", "--spec", spec], self.workdir / "report.json", {"spec": spec}, expect)

    def round_ops(self, r: int) -> list[Op]:
        ops = [self._op(f"bundled-{name}", name) for name in BUNDLED]
        ops += [self._op(kind, path) for kind, path in self.groups[r % ANALYSIS_GROUPS]]
        ops.append(self._op("near-perfect", self.near_perfect[r % len(self.near_perfect)]))
        return self._order(r, ops)

    def warmup_op(self) -> Op:
        return self._op("bundled-kki", "kki")

    def check(self, op: Op, result: OpResult, text: str) -> None:
        checks.check_report(json.loads(text), self.facts[op.meta["spec"]])


class OptimizeWorkload(Workload):
    """``optimize`` ops with random-phase restarts, between coarse ``sweep`` ops."""

    name = "optimize"

    def _sweep(self, grid: int) -> Op:
        return Op("sweep", ["sweep", "--grid", str(grid)], self.workdir / "sweep.csv", {"grid": grid})

    def _optimize(self, seed: int, expect_error: str | None = None) -> Op:
        args = ["optimize", "--restarts", str(OPTIMIZE_RESTARTS), "--seed", str(seed)]
        return Op("optimize", args, self.workdir / "optimize.json", {"seed": seed}, expect_error)

    def round_ops(self, r: int) -> list[Op]:
        # Two pool-seed optimize ops, the failing one and one sweep, so the
        # median falls among the optimize ops rather than in the gap between
        # the two kinds.
        order = np.random.default_rng([self.seed, 2]).permutation(len(OPTIMIZE_SEEDS))
        ops = [self._optimize(OPTIMIZE_SEEDS[order[(2 * r + k) % len(order)]]) for k in range(2)]
        ops.append(self._optimize(OPTIMIZE_FAULT_SEED, OPTIMIZE_FAULT))
        ops.append(self._sweep(SWEEP_GRIDS[r % len(SWEEP_GRIDS)]))
        return self._order(r, ops)

    def warmup_op(self) -> Op:
        return self._sweep(SWEEP_GRIDS[0])

    def check(self, op: Op, result: OpResult, text: str) -> None:
        if op.kind == "sweep":
            checks.check_sweep(text, op.meta["grid"])
        else:
            checks.check_optimize(json.loads(text))


WORKLOADS = {w.name: w for w in (SessionWorkload, AnalysisWorkload, OptimizeWorkload)}


def prepare(cli, name: str, seed: int, workdir: Path) -> Workload:
    """Write a workload's inputs and run its untimed warm-up op.

    This is the set-up that ``setup_s`` times, in ``probe.py``, and the one
    the timed ops of ``run.py`` start from.
    """
    workload = WORKLOADS[name](seed, workdir)
    workload.setup()
    warm = run_op(cli, workload.warmup_op())
    if warm.error is not None or warm.code != 0:
        raise SystemExit(f"perfbench: warm-up op failed: {warm.error!r} (exit {warm.code})")
    return workload
