"""In-memory spans around every call into the public functions of hbbqss.

Each public function of a layer module is wrapped once and the wrapper is
bound at every module attribute that holds the function: ``hbb``,
``attack``, ``exploit`` and ``optimizer`` import functions by name, so
patching only the defining module would miss their calls. The
``intercept`` and ``respond`` methods of the three attacker classes are
wrapped on the classes. A span is (function, start, end, parent span);
self time is a span's duration minus the durations of its children, which
run one after another on the one thread and so never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "hbb", "qstate", "exploit", "attack", "qmath", "optimizer")
STRATEGY_CLASSES = ("CircuitAttack", "HelstromAttack", "InterceptResend")
ATTACKERS = ("none", "hbb-circuit", "spec-kki", "spec-family", "intercept-resend")
QSTATE_FUNCS = ("measure_qubit", "project_qubit", "apply_operator", "apply_gate", "insert_register")
ATTACK_FUNCS = (
    "analyze", "escape_check", "conditional_states", "detection_residuals",
    "helstrom", "pe_closed_form", "global_state",
)
STRATEGY_BUILDERS = (
    "exploit.spec_attack_strategy", "exploit.full_attack_strategy", "exploit.intercept_resend_strategy",
)

#: Argument readings kept per call: the matrix size handed to the
#: eigensolver and whether an objective evaluation is cross-checked.
ARG_PROBES = {
    "qmath.hermitian_eigen": lambda args, kwargs: len(args[0]),
    "optimizer.objective": lambda args, kwargs: int(kwargs.get("cross_check", args[1] if len(args) > 1 else True)),
}


def _per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    ms = lambda name: (name, "ms", "lower")  # noqa: E731
    calls = lambda name: (name, "calls/op", "lower")  # noqa: E731
    out = [ms("cli.self_ms_per_op"), ms("cli.resolve_spec.ms_per_op"),
           ("cli.bytes_written_per_op", "B/op", "lower")]
    out += [ms(f"cli.{cmd}.ms_per_op") for cmd in ("simulate", "analyze", "optimize", "sweep")]
    out += [ms("hbb.run_session.ms_per_op"), ms("hbb.run_session.self_ms_per_op"),
            ("hbb.rounds_per_s", "1/s", "higher")]
    out += [(f"hbb.rounds_per_s.{a}", "1/s", "higher") for a in ATTACKERS]
    out += [ms("hbb.transcript_to_json.ms_per_op"), ms("hbb.transcript_to_csv.ms_per_op")]
    for f in QSTATE_FUNCS:
        out += [calls(f"qstate.{f}.calls_per_op"), ms(f"qstate.{f}.self_ms_per_op")]
    for f in ("intercept", "respond", "decode"):
        out += [calls(f"exploit.{f}.calls_per_op"), ms(f"exploit.{f}.self_ms_per_op")]
    out.append(ms("exploit.strategy_build.ms_per_op"))
    for f in ATTACK_FUNCS:
        out += [calls(f"attack.{f}.calls_per_op"), ms(f"attack.{f}.self_ms_per_op")]
    out += [ms("attack.report_to_json.ms_per_op"), ms("attack.load_spec.ms_per_op")]
    out += [calls("qmath.hermitian_eigen.calls_per_op"), ms("qmath.hermitian_eigen.self_ms_per_op"),
            ("qmath.hermitian_eigen.mean_dim", "dim", "lower"), calls("qmath.trace_norm.calls_per_op")]
    for f in ("cross_gram_is_zero", "orthonormal_completion"):
        out += [calls(f"qmath.{f}.calls_per_op"), ms(f"qmath.{f}.self_ms_per_op")]
    out += [ms("optimizer.maximize.ms_per_call"),
            ("optimizer.objective.calls_per_solution", "calls", "lower"),
            ("optimizer.objective.cross_checked_per_solution", "calls", "lower"),
            ms("optimizer.objective.ms_per_call"),
            ("trace.overhead_pct", "%", "lower")]
    return out


PER_LAYER = _per_layer_spec()


class Tracer:
    """Wraps the program's public functions; spans are kept until :meth:`save`."""

    def __init__(self):
        package = importlib.import_module("hbbqss")
        layer_modules = {layer: importlib.import_module(f"hbbqss.{layer}") for layer in LAYERS}
        owners = [package, *layer_modules.values()]
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.values: dict[str, list[int]] = {name: [] for name in ARG_PROBES}
        self.ops: list[tuple[str, int, int, int]] = []  # (kind, rounds, first span, end span)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        for layer, module in layer_modules.items():
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}")
                self._patches += [
                    (owner, name, fn, wrapper)
                    for owner in owners
                    for name, value in vars(owner).items()
                    if value is fn
                ]
        for cls_name in STRATEGY_CLASSES:
            cls = getattr(layer_modules["exploit"], cls_name)
            for meth in ("intercept", "respond"):
                fn = vars(cls)[meth]
                self._patches.append((cls, meth, fn, self._wrap(fn, f"exploit.{meth}")))

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends, stack = self.fid, self.parent, self.start, self.end, self._stack
        probe = ARG_PROBES.get(name)
        values = self.values.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            if probe is not None:
                values.append(probe(args, kwargs))
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def begin_op(self) -> int:
        self.install()
        return len(self.fid)

    def end_op(self, first: int, kind: str, rounds: int) -> None:
        self.uninstall()
        self.ops.append((kind, rounds, first, len(self.fid)))

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            fid=np.frombuffer(self.fid, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            op_kind=np.array([k for k, *_ in self.ops]),
            op_span=np.array([(a, b) for *_, a, b in self.ops], dtype=np.int64).reshape(-1, 2),
        )

    def durations(self, scales=None, paused=None) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) of every span, in seconds.

        ``scales`` holds one speed factor per traced op (see speed.py); each
        op's spans are multiplied by its factor. ``paused(start, end)`` is
        the time the speed samples took within each span, left out of it.
        """
        parent = np.frombuffer(self.parent, dtype=np.intc)
        start, end = np.frombuffer(self.start), np.frombuffer(self.end)
        dur = end - start
        if paused is not None:
            dur = dur - paused(start, end)
        if scales is not None:
            factor = np.ones_like(dur)
            for (_, _, a, b), f in zip(self.ops, scales):
                factor[a:b] = f
            dur = dur * factor
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur, dur - child

    def metrics(self, bytes_written: int, scales=None, paused=None) -> dict[str, float]:
        """Every per-layer metric but ``trace.overhead_pct``, over the traced ops."""
        fid = np.frombuffer(self.fid, dtype=np.intc)
        dur, self_time = self.durations(scales, paused)
        n_names = len(self.names)
        calls = np.bincount(fid, minlength=n_names)
        total = np.bincount(fid, weights=dur, minlength=n_names)
        own = np.bincount(fid, weights=self_time, minlength=n_names)
        index: dict[str, list[int]] = {}
        for i, name in enumerate(self.names):
            index.setdefault(name, []).append(i)
        n_ops = max(len(self.ops), 1)

        def sum_of(arr, *names):
            return float(sum(arr[i] for name in names for i in index.get(name, ())))

        m: dict[str, float] = {}
        cli_ids = [i for i, name in enumerate(self.names) if name.startswith("cli.")]
        m["cli.self_ms_per_op"] = 1e3 * float(own[cli_ids].sum()) / n_ops
        m["cli.resolve_spec.ms_per_op"] = 1e3 * sum_of(total, "cli.resolve_spec") / n_ops
        m["cli.bytes_written_per_op"] = bytes_written / n_ops
        for cmd in ("simulate", "analyze", "optimize", "sweep"):
            m[f"cli.{cmd}.ms_per_op"] = 1e3 * sum_of(total, f"cli.cmd_{cmd}") / n_ops

        m["hbb.run_session.ms_per_op"] = 1e3 * sum_of(total, "hbb.run_session") / n_ops
        m["hbb.run_session.self_ms_per_op"] = 1e3 * sum_of(own, "hbb.run_session") / n_ops
        in_session = np.isin(fid, index["hbb.run_session"])
        session_s = np.array([dur[a:b][in_session[a:b]].sum() for _, _, a, b in self.ops])
        rounds = np.array([r for _, r, _, _ in self.ops], dtype=float)
        kinds = np.array([k for k, *_ in self.ops])

        def rate(mask) -> float:
            secs = float(session_s[mask].sum())
            return float(rounds[mask].sum()) / secs if secs > 0.0 else 0.0

        m["hbb.rounds_per_s"] = rate(rounds > 0)
        for attacker in ATTACKERS:
            m[f"hbb.rounds_per_s.{attacker}"] = rate(kinds == attacker)
        for fmt in ("json", "csv"):
            m[f"hbb.transcript_to_{fmt}.ms_per_op"] = 1e3 * sum_of(total, f"hbb.transcript_to_{fmt}") / n_ops

        groups = {f"qstate.{f}": [f"qstate.{f}"] for f in QSTATE_FUNCS}
        groups["exploit.intercept"] = ["exploit.intercept"]
        groups["exploit.respond"] = ["exploit.respond"]
        groups["exploit.decode"] = ["exploit.detection_decode", "exploit.info_decode"]
        groups.update({f"attack.{f}": [f"attack.{f}"] for f in ATTACK_FUNCS})
        groups.update({f"qmath.{f}": [f"qmath.{f}"] for f in ("hermitian_eigen", "cross_gram_is_zero",
                                                               "orthonormal_completion")})
        for label, names in groups.items():
            m[f"{label}.calls_per_op"] = sum_of(calls, *names) / n_ops
            m[f"{label}.self_ms_per_op"] = 1e3 * sum_of(own, *names) / n_ops
        m["exploit.strategy_build.ms_per_op"] = 1e3 * sum_of(total, *STRATEGY_BUILDERS) / n_ops
        m["attack.report_to_json.ms_per_op"] = 1e3 * sum_of(total, "attack.report_to_json") / n_ops
        m["attack.load_spec.ms_per_op"] = 1e3 * sum_of(total, "attack.load_spec") / n_ops
        dims = self.values["qmath.hermitian_eigen"]
        m["qmath.hermitian_eigen.mean_dim"] = float(np.mean(dims)) if dims else 0.0
        m["qmath.trace_norm.calls_per_op"] = sum_of(calls, "qmath.trace_norm") / n_ops

        solutions = sum_of(calls, "optimizer.maximize")
        evaluations = sum_of(calls, "optimizer.objective")
        m["optimizer.maximize.ms_per_call"] = 1e3 * sum_of(total, "optimizer.maximize") / solutions if solutions else 0.0
        m["optimizer.objective.calls_per_solution"] = evaluations / solutions if solutions else 0.0
        checked = sum(self.values["optimizer.objective"])
        m["optimizer.objective.cross_checked_per_solution"] = checked / solutions if solutions else 0.0
        m["optimizer.objective.ms_per_call"] = (
            1e3 * sum_of(total, "optimizer.objective") / evaluations if evaluations else 0.0
        )
        return m
