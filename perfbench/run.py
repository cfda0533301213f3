"""Benchmark of the hbbqss commands, driven in process.

    python3 perfbench/run.py --workload session --seed 1 --seconds 30 --trace 0

One op is one ``hbbqss.cli.main(argv)`` call, made by one client in a
closed loop on one thread. Ops run in whole rounds until ``--seconds`` of
wall time have passed; every op's output is checked against computations
made apart from the program. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
The line before it holds the same metrics from unscaled wall times. See
README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import common

common.pin_threads()

import numpy as np  # noqa: E402  (numpy must load after the thread pins)
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 120
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """(wall, scaled) seconds from launching a fresh interpreter to its ``ready`` line.

    Each probe reports the speed kernel's time right after its set-up, in
    its own process; that factor scales its wall time (see speed.py).
    """
    wall, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        with tempfile.TemporaryDirectory(dir=common.OUT, prefix="probe-") as workdir:
            cmd = [sys.executable, str(common.BENCH / "probe.py"),
                   "--workload", workload, "--seed", str(seed), "--dir", workdir]
            t0 = time.perf_counter()
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=common.ROOT) as proc:
                try:
                    line = proc.stdout.readline()
                    t1 = time.perf_counter()
                    kernel_s = proc.stdout.read()
                    code = proc.wait(timeout=PROBE_TIMEOUT_S)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
            if line.strip() != "ready" or code != 0:
                raise SystemExit(f"perfbench: set-up probe failed with exit status {code}")
            wall.append(t1 - t0)
            scaled.append((t1 - t0) * speed.REFERENCE_S / float(kernel_s))
    return wall, scaled


class Tally:
    """Counts, timings and the first failures of the ops of one run.

    Op k, untraced or traced, ran from ``starts[k]`` to ``ends[k]`` in
    round ``rounds[k]``.
    """

    def __init__(self):
        self.round = 0
        self.rounds: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.traced: list[bool] = []
        self.passed: list[bool] = []
        self.problems: list[str] = []
        self.bytes_written = 0

    def execute(self, cli, op, out=None, traced=False):
        result = workloads.run_op(cli, op, out)
        self.attempted += 1
        self.starts.append(result.start)
        self.ends.append(result.start + result.seconds)
        self.rounds.append(self.round)
        self.traced.append(traced)
        self.passed.append(False)
        return result

    def passes(self) -> None:
        self.passed[-1] = True

    def fails(self, problem: str | None = None) -> None:
        self.failed += 1
        if problem is not None:
            self.problems.append(problem)


def run_checked(cli, workload, op, tally: Tally) -> bytes | None:
    """Run one op, check its output; returns the bytes it wrote if it passed."""
    op.out.unlink(missing_ok=True)
    result = tally.execute(cli, op)
    if result.error is not None or result.code != 0:
        if op.failed_as_expected(result):
            tally.fails()
        elif result.error is not None:
            tally.fails(f"{op.kind} {op.args}: {type(result.error).__name__}: {result.error}")
        else:
            tally.fails(f"{op.kind} {op.args}: exit status {result.code}: {result.stderr.strip()[-200:]}")
        return None
    data = op.out.read_bytes()
    try:
        workload.check(op, result, data.decode())
    except Exception as exc:  # a failed check of any kind marks the run incorrect
        tally.fails(f"{op.kind} {op.args}: {type(exc).__name__}: {exc}")
        return None
    tally.passes()
    return data


def run_traced(cli, op, tally: Tally, tracer, expected: bytes | None) -> None:
    """Re-run an op under the tracer; its output must match the untraced one."""
    out = op.out.with_name(f"traced-{op.out.name}")
    out.unlink(missing_ok=True)
    first = tracer.begin_op()
    try:
        result = tally.execute(cli, op, out, traced=True)
    finally:
        tracer.end_op(first, op.kind, op.meta.get("rounds", 0))
    if expected is None:  # the untraced op failed and was reported there
        tally.fails()
    elif result.error is not None or result.code != 0:
        tally.fails(f"traced {op.kind} {op.args}: {result.error!r} (exit {result.code})")
    elif out.read_bytes() != expected:
        tally.fails(f"traced {op.kind} {op.args}: output differs from the untraced run")
    else:
        tally.bytes_written += len(expected)
        tally.passes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cli = common.import_cli()
    common.OUT.mkdir(parents=True, exist_ok=True)
    # A traced run reports no set-up time, so it skips the set-up probes.
    setup_wall, setup_scaled = ([], []) if args.trace else measure_setup(args.workload, args.seed)

    workdir = Path(tempfile.mkdtemp(dir=common.OUT, prefix=f"{args.workload}-"))
    try:
        workload = workloads.prepare(cli, args.workload, args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None

        tally = Tally()
        first_outputs: list[tuple] = []
        deadline = time.perf_counter() + args.seconds
        r = 0
        with speed.Sampler() as sampler:
            while r == 0 or time.perf_counter() < deadline:
                tally.round = r
                for op in workload.round_ops(r):
                    data = run_checked(cli, workload, op, tally)
                    if data is not None and len(first_outputs) < workload.repeats:
                        first_outputs.append((op, data))
                    if tracer is not None:
                        run_traced(cli, op, tally, tracer, data)
                r += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            workload.finish()
        except Exception as exc:  # a failed run-level check marks the run incorrect
            tally.problems.append(f"{args.workload} run check: {type(exc).__name__}: {exc}")
        for op, data in first_outputs:
            again = op.out.with_name(f"repeat-{op.out.name}")
            result = workloads.run_op(cli, op, again)
            if result.error is not None or again.read_bytes() != data:
                tally.problems.append(f"{op.kind} {op.args}: a repeat with the same seed wrote other bytes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Op times leave out the kernel samples taken while the ops ran.
    starts, ends = np.array(tally.starts), np.array(tally.ends)
    op_seconds = (ends - starts - sampler.paused(starts, ends)).tolist()
    factors = sampler.factors(starts, ends)
    plain = [k for k, traced in enumerate(tally.traced) if not traced]

    def end_to_end(scales: list[float], setup: list[float]) -> dict[str, float]:
        times = [op_seconds[k] * scales[k] for k in plain]
        # Every round holds the same ops, so each round is a whole sample of
        # the workload; the median round discounts rounds a slow spell hit.
        passed: dict[int, int] = defaultdict(int)
        seconds: dict[int, float] = defaultdict(float)
        for k, t in zip(plain, times):
            passed[tally.rounds[k]] += tally.passed[k]
            seconds[tally.rounds[k]] += t
        return {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": statistics.median(passed[i] / seconds[i] for i in seconds),
            "op_p50_ms": 1e3 * statistics.median(times),
            "op_p90_ms": 1e3 * statistics.quantiles(times, n=10)[8],
        }

    if tracer is not None:
        traced = [k for k, t in enumerate(tally.traced) if t]

        def per_layer(scales: list[float]) -> dict[str, float]:
            values = tracer.metrics(tally.bytes_written, [scales[k] for k in traced], sampler.paused)
            traced_s = sum(op_seconds[k] * scales[k] for k in traced)
            plain_s = sum(op_seconds[k] * scales[k] for k in plain)
            values["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
            return values

        values, unscaled = per_layer(factors), per_layer([1.0] * len(factors))
        tracer.save(common.OUT / f"trace-{args.workload}.npz")
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        values, unscaled = end_to_end(factors, setup_scaled), end_to_end([1.0] * len(factors), setup_wall)
        units = END_TO_END_UNITS

    for message in tally.problems[:10]:
        print(f"perfbench: {message}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {tally.attempted} ops in {r} rounds, "
        f"{tally.failed} failed, {len(tally.problems)} problems; "
        f"median speed factor {statistics.median(factors):.3f}",
        file=sys.stderr,
    )
    # The same metrics from wall times, before scaling, so that each
    # reported figure can be set against the time it was scaled from.
    print(json.dumps({"unscaled": {name: unscaled[name] for name in units}}))
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
