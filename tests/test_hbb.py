import csv
import gc
import hashlib
import io
import json
import math
import re
import sys
import weakref
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _literals import (
    ABORTED_SESSION_NEXT_DRAWS,
    MT19937_SESSION,
    OFF_STREAM_PROBE_DIGEST,
    SESSION_NEXT_DRAWS,
)
from hbbqss import attack, exploit, hbb, optimizer, qstate
from hbbqss.hbb import (
    CSV_COLUMNS,
    Role,
    SessionAbort,
    CORRELATION_TABLE,
    infer_alice,
    info_rate,
    run_session,
    sift,
    required_announcement,
    transcript_to_csv,
    transcript_to_dict,
    transcript_to_json,
)
from hbbqss.qstate import Basis, Outcome, Sign, StateVector

X, Y = Basis.X, Basis.Y


# ---------------------------------------------------------------------------
# sifting


@pytest.mark.parametrize(
    "bases,expected",
    [
        ((X, X, X), True),
        ((X, X, Y), False),
        ((X, Y, X), False),
        ((Y, X, X), False),
        ((X, Y, Y), True),
        ((Y, X, Y), True),
        ((Y, Y, X), True),
        ((Y, Y, Y), False),
    ],
)
def test_sift_odd_x_rule(bases, expected):
    assert sift(bases) is expected


def _completion_basis(first: Basis, second: Basis) -> Basis:
    """The unique third basis choice that makes the round sift."""
    n_x = sum(1 for b in (first, second) if b is Basis.X)
    return Basis.X if n_x % 2 == 0 else Basis.Y


def test_completion_basis_always_sifts():
    for a in (X, Y):
        for b in (X, Y):
            c = _completion_basis(a, b)
            assert sift((a, b, c))


# ---------------------------------------------------------------------------
# correlation table


def test_correlation_table_is_complete():
    assert len(CORRELATION_TABLE) == 16
    for (a, b), c in CORRELATION_TABLE.items():
        # the table never pairs announcements that would fail sifting
        bases = (Basis(a[0]), Basis(b[0]), Basis(c[0]))
        assert sift(bases)


@pytest.mark.parametrize(
    "bob,charlie,alice",
    [
        ("x+", "x+", "x+"),
        ("y+", "y-", "x+"),
        ("x-", "y+", "y+"),
        ("y-", "y+", "x+"),
        ("x+", "y-", "y+"),
        ("x-", "x+", "x-"),
    ],
)
def test_infer_alice_examples(bob, charlie, alice):
    got = infer_alice(Outcome.from_label(bob), Outcome.from_label(charlie))
    assert got == Outcome.from_label(alice)


def test_infer_alice_inverts_the_table():
    for (a, b), c in CORRELATION_TABLE.items():
        got = infer_alice(Outcome.from_label(b), Outcome.from_label(c))
        assert got == Outcome.from_label(a)


def test_required_announcement_matches_literal():
    for (a, b), c in CORRELATION_TABLE.items():
        got = required_announcement(Outcome.from_label(a), Outcome.from_label(b))
        assert got == Outcome.from_label(c)


def _alice_by_parity(bob: Outcome, charlie: Outcome) -> list[Outcome]:
    """Alice's outcomes in the completion basis whose table row maps Bob to Charlie."""
    basis = _completion_basis(bob.basis, charlie.basis)
    return [
        Outcome(sign, basis)
        for sign in Sign
        if CORRELATION_TABLE[f"{basis.value}{sign.value}", bob.label] == charlie.label
    ]


def test_lookup_tables_are_the_correlation_table():
    outcomes = [Outcome(sign, basis) for basis in (X, Y) for sign in Sign]
    for first in outcomes:
        for second in outcomes:
            labels = (first.label, second.label)
            assert hbb._REQUIRED[first, second] == Outcome.from_label(CORRELATION_TABLE[labels])
            assert [hbb._ALICE[first, second]] == _alice_by_parity(first, second)
    assert len(hbb._REQUIRED) == len(hbb._ALICE) == 16
    assert attack._CASE_OF_BASES == {c.value: c for c in attack.Case}
    for a in (X, Y):
        for b in (X, Y):
            assert attack.Case.from_bases(a, b).value == (a, b)


@pytest.mark.parametrize(
    "call",
    [
        lambda: required_announcement(Outcome(Sign.PLUS, Basis.Z), Outcome.from_label("x+")),
        lambda: required_announcement(Outcome.from_label("x+"), "x+"),
        lambda: infer_alice(["x+"], Outcome.from_label("x+")),
    ],
)
def test_lookups_keep_their_input_checks(call):
    with pytest.raises(ValueError, match="expected an x/y outcome"):
        call()


@pytest.mark.parametrize("bases", [(Basis.Z, X), (X, None), ([X], Y)])
def test_case_from_bases_rejects_non_protocol_bases(bases):
    with pytest.raises(ValueError, match="no case for bases"):
        attack.Case.from_bases(*bases)


def test_infer_alice_rejects_wrong_basis_announcement():
    # for Bob x+ with Charlie announced in x, Alice's basis is forced to x,
    # so a y announcement from Charlie cannot appear in those table rows
    with pytest.raises(ValueError):
        infer_alice(Outcome.from_label("x+"), Outcome(Sign.PLUS, Basis.Z))


# ---------------------------------------------------------------------------
# honest sessions


def test_honest_session_has_no_errors():
    t = run_session(4000, check_fraction=0.5, seed=101)
    assert t.check_error_rate == 0.0
    assert t.attacker_key_guess is None
    assert t.key_alice == t.key_reconstructed
    assert len(t.rounds) == 4000


def test_honest_sift_rate_is_half():
    n = 10_000
    t = run_session(n, check_fraction=0.5, seed=7)
    sifted = sum(1 for r in t.rounds if r.sifted)
    sigma = math.sqrt(0.25 / n)
    assert abs(sifted / n - 0.5) <= 3 * sigma


def test_honest_inference_matches_alice_on_every_check_round():
    t = run_session(10_000, check_fraction=1.0, seed=42)
    checked = 0
    for r in t.rounds:
        if r.role is Role.CHECK:
            checked += 1
            assert infer_alice(r.outcome_b, r.announced_c) == r.outcome_a
            assert r.consistent is True
    assert checked > 4000


def test_roles_partition_rounds():
    t = run_session(2000, check_fraction=0.3, seed=5)
    for r in t.rounds:
        if not r.sifted:
            assert r.role is Role.DISCARDED
            assert r.announced_c is None and r.consistent is None
        else:
            assert r.role in (Role.CHECK, Role.KEY)


def test_check_fraction_extremes():
    t_all = run_session(500, check_fraction=1.0, seed=1)
    assert all(r.role is not Role.KEY for r in t_all.rounds)
    t_none = run_session(500, check_fraction=0.0, seed=1)
    assert all(r.role is not Role.CHECK for r in t_none.rounds)
    assert t_none.check_error_rate is None


def test_run_session_validates_arguments():
    with pytest.raises(ValueError):
        run_session(0, 0.5)
    with pytest.raises(ValueError):
        run_session(10, 1.5)


# ---------------------------------------------------------------------------
# determinism


def test_equal_seeds_give_identical_transcripts():
    a = transcript_to_json(run_session(1500, 0.5, seed=99))
    b = transcript_to_json(run_session(1500, 0.5, seed=99))
    assert a.encode() == b.encode()
    c = transcript_to_json(run_session(1500, 0.5, seed=100))
    assert a != c


# ---------------------------------------------------------------------------
# strategy contract


class ProbeStrategy:
    """Honest-looking attacker that records what it learns and when."""

    name = "probe"
    ancilla_dim = 1

    def __init__(self):
        self.events = []

    def intercept(self, state, rng):
        self.events.append(("intercept", None))
        return state

    def announce_basis(self, round_id, rng):
        self.events.append(("announce", round_id))
        return Basis.X

    def respond(self, ctx, rng):
        self.events.append(("respond", ctx.round_id, ctx.alice_basis))
        if ctx.role is Role.CHECK:
            # anything in the forged basis is contract-compliant
            return Outcome(Sign.PLUS, ctx.own_basis)
        return 0


def test_alice_basis_revealed_only_after_commitment():
    probe = ProbeStrategy()
    run_session(300, check_fraction=0.5, strategy=probe, seed=11)
    announced = set()
    for event in probe.events:
        if event[0] == "announce":
            announced.add(event[1])
        elif event[0] == "respond":
            # the round's forged basis was committed before the reveal
            assert event[1] in announced


def test_respond_only_called_on_sifted_rounds():
    probe = ProbeStrategy()
    t = run_session(300, check_fraction=0.5, strategy=probe, seed=12)
    responded = {e[1] for e in probe.events if e[0] == "respond"}
    sifted = {r.round_id for r in t.rounds if r.sifted}
    assert responded <= sifted


def test_probe_events_follow_the_round_order():
    probe = ProbeStrategy()
    t = run_session(300, check_fraction=0.5, strategy=probe, seed=11)
    expected = []
    for r in t.rounds:
        expected += [("intercept", None), ("announce", r.round_id)]
        if r.sifted:
            expected.append(("respond", r.round_id, r.bases[0]))
    assert probe.events == expected


class HookRecorder(ProbeStrategy):
    """The probe, keeping the rng of every hook call and each context."""

    def __init__(self):
        super().__init__()
        self.rngs = []
        self.contexts = []

    def intercept(self, state, rng):
        self.rngs.append(rng)
        return super().intercept(state, rng)

    def announce_basis(self, round_id, rng):
        self.rngs.append(rng)
        return super().announce_basis(round_id, rng)

    def respond(self, ctx, rng):
        self.rngs.append(rng)
        self.contexts.append(ctx)
        return super().respond(ctx, rng)


def test_every_hook_call_gets_the_callers_generator_and_an_immutable_context():
    for rng in (np.random.default_rng(11), np.random.Generator(np.random.MT19937(11))):
        probe = HookRecorder()
        t = run_session(300, check_fraction=0.5, strategy=probe, rng=rng)
        assert len(probe.rngs) == len(probe.events)
        assert all(hook_rng is rng for hook_rng in probe.rngs)
        assert np.random.default_rng(probe.rngs[0]) is rng
        sifted = [r for r in t.rounds if r.sifted]
        assert [(c.round_id, c.role, c.alice_basis, c.bob_basis, c.own_basis) for c in probe.contexts] == [
            (r.round_id, r.role, *r.bases) for r in sifted
        ]
    assert hbb.RespondContext._fields == ("round_id", "role", "alice_basis", "bob_basis", "own_basis", "state")
    ctx = probe.contexts[0]
    assert type(ctx) is hbb.RespondContext and hbb.RespondContext(*ctx) == ctx
    with pytest.raises(AttributeError):
        ctx.role = Role.KEY


def test_round_records_are_immutable_with_their_fields_in_order():
    t = run_session(50, check_fraction=0.5, seed=3)
    assert hbb.RoundRecord._fields == (
        "round_id", "bases", "outcome_a", "outcome_b", "announced_c", "sifted", "role", "consistent"
    )
    for r in t.rounds:
        assert type(r) is hbb.RoundRecord and hbb.RoundRecord(*r) == r
        with pytest.raises(AttributeError):
            r.consistent = None


class AncillaReader(ProbeStrategy):
    """A strategy with a three-level ancilla and no ``ancilla_state`` hook."""

    name = "ancilla-reader"
    ancilla_dim = 3

    def intercept(self, state, rng):
        self.events.append(("intercept", state))
        return state


def test_strategy_ancilla_starts_in_its_first_basis_state():
    reader = AncillaReader()
    assert not hasattr(reader, "ancilla_state")
    run_session(40, check_fraction=0.5, strategy=reader, seed=8)
    expected = np.kron(qstate.ghz_state().vec, [1.0, 0.0, 0.0])
    states = [e[1] for e in reader.events if e[0] == "intercept"]
    assert len(states) == 40
    for state in states:
        assert state.labels == ("A", "B", "C", "E") and state.dims == (2, 2, 2, 3)
        assert np.array_equal(state.vec, expected)


class NormBreaker(ProbeStrategy):
    """Scales the state it is handed from a given round on."""

    name = "norm-breaker"

    def __init__(self, from_round, factor=1.5):
        super().__init__()
        self.from_round = from_round
        self.factor = factor
        self.intercepts = 0

    def intercept(self, state, rng):
        super().intercept(state, rng)
        self.intercepts += 1
        if self.intercepts <= self.from_round:
            return state
        return StateVector(state.labels, state.dims, self.factor * state.vec)


@pytest.mark.parametrize("k", [0, 7, 150])
def test_intercept_breaking_the_norm_aborts_at_that_round(k):
    breaker = NormBreaker(k)
    with pytest.raises(SessionAbort, match="normalisation"):
        run_session(300, check_fraction=0.5, strategy=breaker, seed=4)
    assert breaker.intercepts == k + 1
    assert [e[1] for e in breaker.events if e[0] == "announce"] == list(range(k))


def test_intercept_norm_is_checked_at_the_measurement_tolerance():
    # 5e-10 off is not measurable (qmath.STRUCT_TOL = 1e-10): the contract
    # check must abort the session rather than let measurement raise
    with pytest.raises(SessionAbort, match="normalisation"):
        run_session(50, check_fraction=0.5, strategy=NormBreaker(3, 1.0 + 5e-10), seed=4)
    # 5e-11 off is measurable, and the session runs
    run_session(50, check_fraction=0.5, strategy=NormBreaker(3, 1.0 + 5e-11), seed=4)


def _poisoned(value, state):
    """``state`` with its first nonzero amplitude replaced by ``value``."""
    vec = state.vec.copy()
    vec[np.flatnonzero(vec)[0]] = value
    return StateVector(state.labels, state.dims, vec)


class PoisonedCircuit(exploit.CircuitAttack):
    """A circuit attacker whose own intercept hook writes ``value`` into one
    amplitude: its sessions run round by round."""

    def __init__(self, value):
        super().__init__()
        self.value = value

    def intercept(self, state, rng):
        return _poisoned(self.value, super().intercept(state, rng))


class PoisonedRoots(hbb._TableAttack):
    """A table attacker whose own roots hold the circuit's state with
    ``value`` in one amplitude: its sessions take the scan with PCG64."""

    name = "poisoned-roots"
    ancilla_dim = 2

    def __init__(self, value):
        interact = lambda state: _poisoned(value, exploit.entangle_circuit(state))  # noqa: E731
        super().__init__(partial(exploit._one_root, interact, None))


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937], ids=["pcg64", "mt19937"])
@pytest.mark.parametrize("attacker", [PoisonedCircuit, PoisonedRoots], ids=["own-hook", "own-roots"])
def test_an_intercepted_state_with_a_non_finite_amplitude_aborts(attacker, bit_generator, value):
    # a NaN norm compares False with the tolerance either way round, so the
    # check must fail what it cannot show to be within it
    rng = np.random.Generator(bit_generator(5))
    with pytest.raises(SessionAbort, match=rf"^intercept broke normalisation \(norm {value}\)$"):
        run_session(300, 0.5, attacker(value), rng=rng)


class NoStateInterceptor(ProbeStrategy):
    """Hands back None for the intercepted state."""

    name = "no-state"

    def intercept(self, state, rng):
        super().intercept(state, rng)
        return None


def test_intercept_returning_no_state_aborts():
    with pytest.raises(SessionAbort, match="not a StateVector"):
        run_session(50, check_fraction=0.5, strategy=NoStateInterceptor(), seed=4)


class InterceptScribbler(ProbeStrategy):
    name = "intercept-scribbler"

    def intercept(self, state, rng):
        state.vec[0] = 0.0
        return state


class RespondScribbler(exploit.CircuitAttack):
    """The circuit attacker, writing into the post-measurement state while ``scribble``."""

    scribble = True

    def respond(self, ctx, rng):
        if self.scribble:
            ctx.state.vec[:] = 0.0
        return super().respond(ctx, rng)


def test_writing_into_a_shared_state_raises_and_changes_nothing():
    reference = transcript_to_json(run_session(300, 0.5, strategy=exploit.CircuitAttack(), seed=31))
    with pytest.raises(ValueError, match="read-only"):
        run_session(300, 0.5, strategy=InterceptScribbler(), seed=31)
    scribbler = RespondScribbler()
    with pytest.raises(ValueError, match="read-only"):
        run_session(300, 0.5, strategy=scribbler, seed=31)
    scribbler.scribble = False
    assert transcript_to_json(run_session(300, 0.5, strategy=scribbler, seed=31)) == reference
    assert transcript_to_json(run_session(300, 0.5, strategy=exploit.CircuitAttack(), seed=31)) == reference


class PlainCircuit(exploit.CircuitAttack):
    """The circuit attacker, subclassed with no hook overridden: its
    sessions take the scan."""


BUILT_IN_ATTACKERS = {
    "none": lambda: None,
    "hbb-circuit": exploit.CircuitAttack,
    "circuit-subclass": PlainCircuit,
    "intercept-resend": exploit.InterceptResend,
    "spec-kki": lambda: exploit.HelstromAttack(attack.kki_spec()),
    "spec-family": lambda: exploit.HelstromAttack(
        optimizer.random_family_point(np.random.default_rng(5), c=0.3).to_spec()
    ),
}


@pytest.mark.parametrize("attacker", sorted(BUILT_IN_ATTACKERS))
def test_a_session_leaves_no_reference_cycles(attacker):
    gc.collect()
    gc.disable()
    try:
        strategy = BUILT_IN_ATTACKERS[attacker]()
        run_session(300, 0.5, strategy, seed=3)
        del strategy
        assert gc.collect() == 0
    finally:
        gc.enable()


def _cold_memo(monkeypatch):
    """Empty the scan tables' memo, as in a fresh process; the warm one is
    put back when the test ends."""
    monkeypatch.setattr(hbb, "_TABLES", weakref.WeakKeyDictionary())
    monkeypatch.setattr(hbb, "_PLAIN_TABLE", None)


def _table_work(monkeypatch) -> Counter:
    """Calls, by name, from now on, of the functions that build a scan table
    and the states it holds."""
    counts = Counter()
    for module, name in (
        (hbb, "_scan_table"),
        (hbb, "_validate_intercepted"),
        (qstate, "_project_stack"),
        (qstate, "apply_operator"),
        (exploit, "apply_operator"),
    ):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("attacker", sorted(BUILT_IN_ATTACKERS))
def test_state_work_per_session_does_not_grow_with_rounds(monkeypatch, attacker):
    counts = _table_work(monkeypatch)
    per_session = []
    for n_rounds in (300, 3000):
        _cold_memo(monkeypatch)  # each session builds its table
        counts.clear()
        run_session(n_rounds, 0.5, strategy=BUILT_IN_ATTACKERS[attacker](), seed=17)
        per_session.append(dict(counts))
    assert per_session[0] == per_session[1]
    assert 0 < per_session[0]["_project_stack"] <= 100
    assert per_session[0].get("apply_operator", 0) <= 2


@pytest.mark.parametrize("attacker", sorted(BUILT_IN_ATTACKERS))
def test_intercepted_norm_reads_per_session_do_not_grow_with_rounds(monkeypatch, attacker):
    reads, validating = Counter(), []
    norm, validate = StateVector.norm, hbb._validate_intercepted

    def counted_norm(state):
        if validating:
            reads["norm"] += 1
        return norm.fget(state)

    def counted_validate(*args):
        validating.append(True)
        try:
            return validate(*args)
        finally:
            validating.pop()

    monkeypatch.setattr(StateVector, "norm", property(counted_norm))
    monkeypatch.setattr(hbb, "_validate_intercepted", counted_validate)
    per_session = []
    for n_rounds in (300, 3000):
        _cold_memo(monkeypatch)  # each session validates its table's states
        reads.clear()
        run_session(n_rounds, 0.5, strategy=BUILT_IN_ATTACKERS[attacker](), seed=17)
        per_session.append(reads["norm"])
    assert per_session[0] == per_session[1]
    assert (per_session[0] > 0) == (attacker != "none")


@pytest.mark.parametrize("attacker", sorted(BUILT_IN_ATTACKERS))
def test_a_warm_session_builds_no_table(monkeypatch, attacker):
    _cold_memo(monkeypatch)
    counts = _table_work(monkeypatch)
    first = run_session(300, 0.5, BUILT_IN_ATTACKERS[attacker](), seed=9)
    assert counts["_scan_table"] == 1
    counts.clear()
    second = run_session(300, 0.5, BUILT_IN_ATTACKERS[attacker](), seed=9)
    if attacker.startswith("spec-"):  # each spec attacker's roots are its own
        assert counts["_scan_table"] == 1
    else:
        assert counts == Counter()
    assert transcript_to_json(second) == transcript_to_json(first)
    assert transcript_to_csv(second) == transcript_to_csv(first)


def test_the_table_memo_holds_no_freed_spec_attacker(monkeypatch):
    _cold_memo(monkeypatch)
    for strategy in (exploit.CircuitAttack(), exploit.InterceptResend()):
        run_session(10, 0.5, strategy, seed=1)
    built_in = {exploit._circuit_roots(), exploit._probe_roots}
    assert set(hbb._TABLES) == built_in
    rng = np.random.default_rng(12)
    gc.collect()
    gc.disable()  # the attackers are freed by their reference counts alone
    try:
        for _ in range(20):
            strategy = exploit.HelstromAttack(optimizer.random_family_point(rng, c=0.3).to_spec())
            run_session(10, 0.5, strategy, seed=1)
            assert strategy._roots in hbb._TABLES
            del strategy
            assert set(hbb._TABLES) == built_in
    finally:
        gc.enable()


class WideCircuit(exploit.CircuitAttack):
    """The circuit attacker given a three-level ancilla, which its
    interaction does not take."""

    ancilla_dim = 3


def test_the_table_memo_gives_another_ancilla_dim_no_warm_table():
    warm = transcript_to_json(run_session(300, 0.5, exploit.CircuitAttack(), seed=6))
    for rng in (np.random.default_rng(6), np.random.Generator(np.random.MT19937(6))):
        with pytest.raises(ValueError, match=r"^expected qubit registers .* with dims \(2, 2, 2, 3\)$"):
            run_session(300, 0.5, WideCircuit(), rng=rng)
    assert transcript_to_json(run_session(300, 0.5, exploit.CircuitAttack(), seed=6)) == warm


class OwnRootsCircuit(exploit.CircuitAttack):
    """A circuit-attacker subclass with roots of its own: it leaves the
    state alone and answers as intercept-resend does after probing x+."""

    ancilla_dim = 1

    def __init__(self):
        probe = Outcome(Sign.PLUS, X)
        hbb._TableAttack.__init__(
            self, partial(exploit._one_root, lambda state: state, partial(exploit._probe_answers, probe))
        )


def test_the_table_memo_gives_own_roots_their_own_table(monkeypatch):
    circuit = transcript_to_json(run_session(300, 0.5, exploit.CircuitAttack(), seed=6))
    counts = _table_work(monkeypatch)
    strategy = OwnRootsCircuit()
    t = run_session(300, 0.5, strategy, seed=6)
    assert counts["_scan_table"] == 1
    assert strategy._roots in hbb._TABLES
    reference = run_session(300, 0.5, Delegate(OwnRootsCircuit()), seed=6)
    assert transcript_to_json(t) == transcript_to_json(reference) != circuit


class SlottedRoots:
    """Intercept-resend's roots behind an object that cannot be weakly referenced."""

    __slots__ = ()

    def __call__(self, prepared):
        return exploit._probe_roots(prepared)


class SlottedResend(exploit.InterceptResend):
    def __init__(self):
        hbb._TableAttack.__init__(self, SlottedRoots())


def test_the_table_memo_builds_a_table_per_session_for_roots_it_cannot_hold(monkeypatch):
    reference = transcript_to_json(run_session(300, 0.5, exploit.InterceptResend(), seed=6))
    counts = _table_work(monkeypatch)
    strategy = SlottedResend()
    for _ in range(2):
        assert transcript_to_json(run_session(300, 0.5, strategy, seed=6)) == reference
    assert counts["_scan_table"] == 2


@pytest.mark.parametrize("route", ["scan", "per-round"])
@pytest.mark.parametrize("dim", [0, -1, 2.0, "2", True], ids=repr)
def test_ancilla_dim_is_checked_at_the_session_boundary(route, dim):
    strategy = exploit.CircuitAttack()
    strategy.ancilla_dim = dim
    rng = np.random.default_rng(3) if route == "scan" else np.random.Generator(np.random.MT19937(3))
    with pytest.raises(SessionAbort, match=f"^ancilla_dim {re.escape(repr(dim))} is not an int >= 1$"):
        run_session(10, 0.5, strategy, rng=rng)


def test_a_numpy_int_ancilla_dim_is_an_int():
    for rng in (lambda: np.random.default_rng(3), lambda: np.random.Generator(np.random.MT19937(3))):
        strategy = exploit.CircuitAttack()
        strategy.ancilla_dim = np.int64(2)
        t = run_session(300, 0.5, strategy, rng=rng())
        assert transcript_to_json(t) == transcript_to_json(run_session(300, 0.5, exploit.CircuitAttack(), rng=rng()))


class AmplitudeRewriter(ProbeStrategy):
    """Hands out one writable state, rewritten before each round: A in
    |x+> on even rounds and in |x-> on odd ones, B, C and E in |0>; from
    round ``break_from`` on, its amplitudes are scaled by 1.5."""

    name = "amplitude-rewriter"

    def __init__(self, break_from=None):
        super().__init__()
        self.state = StateVector(("A", "B", "C", "E"), (2, 2, 2, 1), np.zeros(8, dtype=complex))
        self.break_from = break_from
        self.intercepts = 0

    def intercept(self, state, rng):
        super().intercept(state, rng)
        sign = 1.0 if self.intercepts % 2 == 0 else -1.0
        scale = 1.5 if self.break_from is not None and self.intercepts >= self.break_from else 1.0
        self.state.vec[:] = 0.0
        self.state.vec[[0, 4]] = (scale / math.sqrt(2.0), scale * sign / math.sqrt(2.0))
        self.intercepts += 1
        return self.state


def test_a_writable_intercepted_state_is_read_and_checked_afresh_every_round():
    t = run_session(400, 0.5, strategy=AmplitudeRewriter(), seed=29)
    x_rounds = [r for r in t.rounds if r.bases[0] is X]
    assert x_rounds
    for r in x_rounds:
        assert r.outcome_a == Outcome(Sign.PLUS if r.round_id % 2 == 0 else Sign.MINUS, X)
    breaker = AmplitudeRewriter(break_from=150)
    with pytest.raises(SessionAbort, match="normalisation"):
        run_session(400, 0.5, strategy=breaker, seed=29)
    assert breaker.intercepts == 151


class Thawer(ProbeStrategy):
    """Hands out one state of its own: read-only, with A in |x+> and B, C
    and E in |0>, until round ``thaw_at``, where it makes the state
    writable again, rewrites A to |x-> and scales the amplitudes by
    ``scale``."""

    name = "thawer"

    def __init__(self, thaw_at, scale=1.0):
        super().__init__()
        self.state = StateVector(("A", "B", "C", "E"), (2, 2, 2, 1), np.zeros(8, dtype=complex))
        self.state.vec[[0, 4]] = 1.0 / math.sqrt(2.0)
        self.state.vec.flags.writeable = False
        self.thaw_at, self.scale = thaw_at, scale
        self.intercepts = 0

    def intercept(self, state, rng):
        super().intercept(state, rng)
        if self.intercepts == self.thaw_at:
            self.state.vec.flags.writeable = True
            self.state.vec[4] = -self.state.vec[4]
            self.state.vec[:] *= self.scale
        self.intercepts += 1
        return self.state


def test_an_intercepted_state_made_writable_again_is_read_and_checked_afresh():
    t = run_session(400, 0.5, strategy=Thawer(thaw_at=200), seed=29)
    x_rounds = [r for r in t.rounds if r.bases[0] is X]
    assert {r.round_id < 200 for r in x_rounds} == {True, False}
    for r in x_rounds:
        assert r.outcome_a == Outcome(Sign.PLUS if r.round_id < 200 else Sign.MINUS, X)
    breaker = Thawer(thaw_at=150, scale=1.5)
    with pytest.raises(SessionAbort, match="normalisation"):
        run_session(400, 0.5, strategy=breaker, seed=29)
    assert breaker.intercepts == 151


class MalformedCheckStrategy(ProbeStrategy):
    name = "malformed"

    def respond(self, ctx, rng):
        if ctx.role is Role.CHECK:
            return Outcome(Sign.PLUS, Basis.Z)  # not the announced basis
        return 0


class MalformedKeyStrategy(ProbeStrategy):
    name = "malformed-key"

    def respond(self, ctx, rng):
        if ctx.role is Role.KEY:
            return "zero"
        return Outcome(Sign.PLUS, ctx.own_basis)


def test_malformed_announcement_aborts_session():
    with pytest.raises(SessionAbort, match="announced basis"):
        run_session(200, check_fraction=1.0, strategy=MalformedCheckStrategy(), seed=3)
    with pytest.raises(SessionAbort, match="not a bit"):
        run_session(200, check_fraction=0.0, strategy=MalformedKeyStrategy(), seed=3)


class UniformGuesser(ProbeStrategy):
    """Measures nothing; flips coins for every response."""

    name = "uniform"

    def announce_basis(self, round_id, rng):
        return (Basis.X, Basis.Y)[int(rng.integers(0, 2))]

    def respond(self, ctx, rng):
        if ctx.role is Role.CHECK:
            sign = Sign.PLUS if rng.integers(0, 2) == 0 else Sign.MINUS
            return Outcome(sign, ctx.own_basis)
        return int(rng.integers(0, 2))


def test_uniform_guesser_gains_no_information():
    t = run_session(10_000, check_fraction=0.5, strategy=UniformGuesser(), seed=21)
    assert info_rate(t) <= 0.02
    # and the coin-flip announcements are caught half the time
    assert abs(t.check_error_rate - 0.5) <= 0.05


def test_info_rate_undefined_without_guesses():
    t = run_session(100, check_fraction=0.5, seed=2)
    with pytest.raises(ValueError):
        info_rate(t)


# ---------------------------------------------------------------------------
# generator draws


def _next_draws(rng):
    return rng.random(), int(rng.integers(0, 2**32))


def _raw_words_and_twin_agree(seed):
    """Read a seeded random interleaving of ``random()`` and ``integers(0,
    2)`` from the scan's raw words as the scan reads them, now and then
    starting from a buffered high half and topping up the words at a random
    margin, and draw the same from a twin Generator; compare each draw, then
    settle and compare the generator states."""
    chooser = np.random.default_rng([seed, 1])
    generator, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    if chooser.random() < 0.5:  # start with a high half buffered
        assert generator.integers(0, 2**32) == twin.integers(0, 2**32)
    raw = hbb._RawWords(generator)
    i, buffered, upper = 0, raw.buffered, raw.upper
    p_bit, margin = chooser.random(), int(chooser.integers(0, hbb._ROUND_WORDS))
    for n in range(int(chooser.integers(0, 3000))):  # up to about three blocks
        if i >= len(raw.doubles) - margin:
            i = raw.extend(i)
        if chooser.random() < p_bit:
            if buffered:
                got = upper >> 31
            else:
                got, upper = raw.lows[i], raw.uppers[i]
                i += 1
            buffered = not buffered
            want = twin.integers(0, 2)
        else:
            got, want = raw.doubles[i], twin.random()
            i += 1
        assert got == want, f"seed {seed}, draw {n}"
    raw.settle(i, buffered, upper)
    assert generator.bit_generator.state == twin.bit_generator.state, f"seed {seed}"
    assert _next_draws(generator) == _next_draws(twin)


def test_raw_words_match_the_generator():
    for seed in range(100):
        _raw_words_and_twin_agree(seed)


@pytest.mark.parametrize("attacker", sorted(SESSION_NEXT_DRAWS))
def test_session_ends_at_the_frozen_draws(attacker):
    rng = np.random.default_rng(21)
    run_session(300, 0.5, strategy=BUILT_IN_ATTACKERS[attacker](), rng=rng)
    assert _next_draws(rng) == SESSION_NEXT_DRAWS[attacker]


class AbortingCircuit(exploit.CircuitAttack):
    """The circuit attacker, forging the unannounceable basis z at round 37."""

    def announce_basis(self, round_id, rng):
        if round_id == 37:
            return Basis.Z
        return super().announce_basis(round_id, rng)


def test_aborted_session_ends_at_the_frozen_draws():
    rng = np.random.default_rng(21)
    with pytest.raises(SessionAbort, match="round 37"):
        run_session(300, 0.5, strategy=AbortingCircuit(), rng=rng)
    assert _next_draws(rng) == ABORTED_SESSION_NEXT_DRAWS


class StringForger(exploit.CircuitAttack):
    """The circuit attacker, forging its basis as the string "x" at round 37:
    equal to ``Basis.X``, since Basis is a str Enum, but not announceable."""

    def announce_basis(self, round_id, rng):
        if round_id == 37:
            return "x"
        return super().announce_basis(round_id, rng)


def test_a_forged_basis_given_as_its_string_aborts():
    with pytest.raises(SessionAbort, match="round 37: forged basis 'x' is not announceable"):
        run_session(300, 0.5, strategy=StringForger(), seed=21)


class OffStreamProbe:
    """An attacker whose hooks also use the Generator API beyond ``random()``
    and ``integers(0, 2)``: ``normal()`` at round 40, ``integers(5)`` on key
    rounds."""

    name = "off-stream-probe"
    ancilla_dim = 1

    def intercept(self, state, rng):
        return state

    def announce_basis(self, round_id, rng):
        if round_id == 40:
            return Basis.X if rng.normal() > 0.0 else Basis.Y
        return hbb._random_basis(rng)

    def respond(self, ctx, rng):
        if ctx.role is Role.CHECK:
            return Outcome(Sign.PLUS if rng.random() < 0.5 else Sign.MINUS, ctx.own_basis)
        return int(rng.integers(5)) % 2


def test_off_stream_probe_matches_the_frozen_draws():
    t = run_session(300, 0.5, strategy=OffStreamProbe(), seed=21)
    assert hashlib.sha256(transcript_to_json(t).encode()).hexdigest() == OFF_STREAM_PROBE_DIGEST


class GeneratorRecorder(exploit.CircuitAttack):
    """The circuit attacker, keeping each rng its hooks are handed."""

    def __init__(self):
        super().__init__()
        self.rngs = set()

    def intercept(self, state, rng):
        self.rngs.add(id(rng))
        return super().intercept(state, rng)


def test_mt19937_session_matches_the_frozen_draws():
    rng = np.random.Generator(np.random.MT19937(7))
    strategy = GeneratorRecorder()
    t = run_session(300, 0.5, strategy=strategy, rng=rng)
    digest, draws = MT19937_SESSION
    assert hashlib.sha256(transcript_to_json(t).encode()).hexdigest() == digest
    assert _next_draws(rng) == draws
    # the hooks get the generator itself
    assert strategy.rngs == {id(rng)}


class SideDrawer(exploit.CircuitAttack):
    """The circuit attacker, drawing a double at each intercept from
    ``generator`` when one is given, else through the rng its hooks are
    handed."""

    def __init__(self, generator=None):
        super().__init__()
        self.generator = generator

    def intercept(self, state, rng):
        (rng if self.generator is None else self.generator).random()
        return super().intercept(state, rng)


def test_drawing_from_the_generator_behind_the_hooks_rng_draws_as_through_it():
    side, through = np.random.default_rng(4), np.random.default_rng(4)
    t_side = run_session(30, 0.5, strategy=SideDrawer(side), rng=side)
    t_through = run_session(30, 0.5, strategy=SideDrawer(), rng=through)
    assert transcript_to_json(t_side) == transcript_to_json(t_through)
    assert _next_draws(side) == _next_draws(through)


# ---------------------------------------------------------------------------
# session routes


#: The hooks of the built-in attackers and of the probe, and the memo's
#: measurement, which the round-by-round route calls and the scan does not.
ROUTE_FUNCTIONS = [
    getattr(cls, name)
    for cls in (exploit.CircuitAttack, exploit.HelstromAttack, exploit.InterceptResend, ProbeStrategy)
    for name in ("intercept", "announce_basis", "respond")
] + [qstate.StateMemo.measure]


def _route_calls(run) -> Counter:
    """Entries into ``ROUTE_FUNCTIONS`` by name while ``run()`` runs,
    counted by a profile function, so that no attribute is changed."""
    names = {f.__code__: f.__name__ for f in ROUTE_FUNCTIONS}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("attacker", sorted(BUILT_IN_ATTACKERS))
def test_built_in_sessions_on_pcg64_take_the_scan(attacker):
    strategy = BUILT_IN_ATTACKERS[attacker]()
    assert _route_calls(lambda: run_session(300, 0.5, strategy, seed=5)) == Counter()


def _patched_class(monkeypatch):
    """The Helstrom attacker with ``respond`` wrapped on the class, as a tracer wraps it."""
    respond = exploit.HelstromAttack.respond
    monkeypatch.setattr(exploit.HelstromAttack, "respond", lambda self, ctx, rng: respond(self, ctx, rng))
    return exploit.HelstromAttack(attack.kki_spec()), np.random.default_rng(5)


def _instance_hook(monkeypatch):
    """Intercept-resend with its ``announce_basis`` set on the instance."""
    strategy = exploit.InterceptResend()
    strategy.announce_basis = strategy.announce_basis
    return strategy, np.random.default_rng(5)


def _scribbler(monkeypatch):
    strategy = RespondScribbler()
    strategy.scribble = False
    return strategy, np.random.default_rng(5)


PER_ROUND_SESSIONS = {
    "subclass": _scribbler,
    "patched-class": _patched_class,
    "instance-hook": _instance_hook,
    "probe": lambda monkeypatch: (ProbeStrategy(), np.random.default_rng(5)),
    "mt19937": lambda monkeypatch: (exploit.CircuitAttack(), np.random.Generator(np.random.MT19937(5))),
}


@pytest.mark.parametrize("case", sorted(PER_ROUND_SESSIONS))
def test_other_sessions_take_the_per_round_route(monkeypatch, case):
    strategy, rng = PER_ROUND_SESSIONS[case](monkeypatch)
    transcripts = []
    calls = _route_calls(lambda: transcripts.append(run_session(300, 0.5, strategy, rng=rng)))
    sifted = sum(1 for r in transcripts[0].rounds if r.sifted)
    assert calls["intercept"] == calls["announce_basis"] == 300
    assert calls["respond"] == sifted > 0


class PlainGenerator(np.random.Generator):
    """A Generator of another type: a session draws through its own methods
    and runs round by round."""


class Delegate:
    """A strategy handing every hook call to another: a session with it runs
    round by round."""

    def __init__(self, inner):
        self.inner, self.name, self.ancilla_dim = inner, inner.name, inner.ancilla_dim

    def intercept(self, state, rng):
        return self.inner.intercept(state, rng)

    def announce_basis(self, round_id, rng):
        return self.inner.announce_basis(round_id, rng)

    def respond(self, ctx, rng):
        return self.inner.respond(ctx, rng)


@pytest.mark.parametrize("attacker", sorted(BUILT_IN_ATTACKERS))
def test_scan_writes_the_per_round_bytes(attacker):
    # 1500 rounds read more than one block of words; a third of the
    # sessions start with a high half-word buffered
    for seed in range(200):
        check_fraction = (0.0, 0.3, 0.5, 1.0)[seed % 4]
        n_rounds = (1, 2, 300, 1500)[seed // 4 % 4]
        scanned = np.random.default_rng(seed)
        if seed % 3 == 0:
            scanned.integers(0, 2**32)
        strategy = BUILT_IN_ATTACKERS[attacker]()
        if strategy is None:  # no strategy to wrap: the generator's type decides
            reference, rng = None, PlainGenerator(np.random.PCG64())
        else:
            reference, rng = Delegate(BUILT_IN_ATTACKERS[attacker]()), np.random.default_rng()
        rng.bit_generator.state = scanned.bit_generator.state
        t = run_session(n_rounds, check_fraction, strategy, rng=scanned)
        t_ref = run_session(n_rounds, check_fraction, reference, rng=rng)
        where = f"seed {seed}, {n_rounds} rounds, check fraction {check_fraction}"
        assert transcript_to_json(t) == transcript_to_json(t_ref), where
        assert transcript_to_csv(t) == transcript_to_csv(t_ref), where
        assert _next_draws(scanned) == _next_draws(rng), where


# ---------------------------------------------------------------------------
# export formats


def test_csv_export_schema():
    t = run_session(50, check_fraction=0.5, seed=8)
    text = transcript_to_csv(t)
    lines = text.strip().split("\n")
    assert lines[0] == "round_id,basis_a,basis_b,basis_c,sifted,role,outcome_a,outcome_b,announced_c,consistent"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] in ("x", "y")


def test_json_export_roundtrip():
    import json

    t = run_session(50, check_fraction=0.5, seed=8)
    data = json.loads(transcript_to_json(t))
    assert data["n_rounds"] == 50
    assert data["attacker"] == "none"
    assert len(data["rounds"]) == 50
    assert data["check_error_rate"] == 0.0
    d = transcript_to_dict(t)
    assert [r["round_id"] for r in d["rounds"]] == list(range(50))


def _reference_json(t) -> str:
    return json.dumps(transcript_to_dict(t), sort_keys=True, indent=2) + "\n"


def _reference_csv(t) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=",", lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in t.rounds:
        row = hbb._round_row(r)
        writer.writerow(["" if row[c] is None else row[c] for c in CSV_COLUMNS])
    return buf.getvalue()


EXPORT_ATTACKERS = ("none", "hbb-circuit", "intercept-resend", "spec-kki", "spec-family")


# check_fraction 1 leaves every key list empty, 0 leaves check_error_rate None,
# and a seedless session writes a null seed
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(EXPORT_ATTACKERS),
    st.integers(1, 60),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@example("none", 1, 1.0, 5, False)
@example("none", 60, 0.0, 5, True)
@example("hbb-circuit", 60, 1.0, 6, True)
@example("intercept-resend", 60, 0.0, 7, False)
@example("spec-kki", 60, 1.0, 8, True)
@example("spec-kki", 1, 0.0, 9, False)
@example("spec-family", 60, 0.5, 10, True)
def test_template_export_matches_the_reference_encoders(attacker, n_rounds, check_fraction, seed, explicit_rng):
    strategy = BUILT_IN_ATTACKERS[attacker]()
    if explicit_rng:
        t = run_session(n_rounds, check_fraction, strategy, rng=np.random.default_rng(seed))
        assert t.seed is None
    else:
        t = run_session(n_rounds, check_fraction, strategy, seed=seed)
    if check_fraction == 1.0:
        assert t.key_alice == t.key_reconstructed == []
    if check_fraction == 0.0:
        assert t.check_error_rate is None
    assert transcript_to_json(t) == _reference_json(t)
    assert transcript_to_csv(t) == _reference_csv(t)


# ---------------------------------------------------------------------------
# the row table


def test_row_table_holds_the_64_protocol_rows():
    rows = hbb._ROWS
    assert len(rows) == len(set(rows)) == 64
    assert Counter(row[5] for row in rows) == {Role.DISCARDED: 16, Role.CHECK: 32, Role.KEY: 16}
    for k, (bases, out_a, out_b, announced, sifted, role, consistent) in enumerate(rows):
        assert (out_a.basis, out_b.basis) == bases[:2] and sifted is sift(bases)
        assert (role is Role.DISCARDED) is not sifted
        if role is Role.CHECK:
            assert announced.basis is bases[2]
            assert consistent is (infer_alice(out_b, announced) == out_a)
        else:
            assert announced is None and consistent is None
        assert hbb._ROW_INDEX[bases, out_a, out_b, announced, role] == k


def test_row_table_templates_render_as_the_reference_encoders():
    for write_row in (hbb._json_row, hbb._csv_row):
        heads, tails = hbb._templates(write_row)
        for k, row in enumerate(hbb._ROWS):
            for round_id in (0, 9, 10**7):
                want = write_row(hbb._round_row(hbb.RoundRecord(round_id, *row)))
                assert f"{heads[k]}{round_id}{tails[k]}" == want


def _session_rows(t) -> set:
    """The rows of ``t``'s records, each checked against the protocol rules."""
    rows = set()
    for r, record in enumerate(t.rounds):
        assert record.round_id == r
        if record.role is Role.CHECK:
            assert record.consistent is (infer_alice(record.outcome_b, record.announced_c) == record.outcome_a)
        rows.add(record[1:])
    return rows


@pytest.mark.parametrize("attacker", sorted(BUILT_IN_ATTACKERS))
def test_row_table_holds_every_row_a_session_writes(attacker):
    table = set(hbb._ROWS)
    scanned = _session_rows(run_session(3000, 0.5, BUILT_IN_ATTACKERS[attacker](), seed=3))
    assert scanned <= table
    strategy = BUILT_IN_ATTACKERS[attacker]()
    if strategy is None:  # no strategy to wrap: the generator's type decides
        per_round = _session_rows(run_session(600, 0.5, None, rng=PlainGenerator(np.random.PCG64(3))))
    else:
        per_round = _session_rows(run_session(600, 0.5, Delegate(strategy), seed=3))
    mt19937 = np.random.Generator(np.random.MT19937(3))
    other_generator = _session_rows(run_session(600, 0.5, BUILT_IN_ATTACKERS[attacker](), rng=mt19937))
    assert per_round <= table and other_generator <= table
    if attacker == "intercept-resend":  # it reaches every row
        assert scanned == table


def test_row_table_rounds_view_behaves_as_the_list_of_records():
    t = run_session(40, 0.5, exploit.InterceptResend(), seed=2)
    view = t.rounds
    records = [hbb.RoundRecord(r, *hbb._ROWS[k]) for r, k in enumerate(view.rows)]
    assert len(view) == 40 and list(view) == records
    assert view == records and records == view and not view != records
    assert view != records[:-1] and view != tuple(records)
    for index in (0, 7, 39, -1, -40):
        assert view[index] == records[index] and type(view[index]) is hbb.RoundRecord
    for index in (40, -41):
        with pytest.raises(IndexError):
            view[index]
    for cut in (slice(None), slice(3, 11), slice(None, None, -3), slice(-5, None), slice(50, 60)):
        assert view[cut] == records[cut] and type(view[cut]) is list
    assert records[5] in view and view.index(records[5]) == 5
    assert list(reversed(view)) == records[::-1]
    assert view == run_session(40, 0.5, exploit.InterceptResend(), seed=2).rounds
    with pytest.raises(TypeError):
        view[0] = records[0]
    with pytest.raises(TypeError):
        hash(view)
