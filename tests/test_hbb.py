import math
from collections import Counter

import numpy as np
import pytest

from hbbqss import attack, exploit, optimizer, qstate
from hbbqss.hbb import (
    Role,
    SessionAbort,
    CORRELATION_TABLE,
    completion_basis,
    error_rate,
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


def test_completion_basis_always_sifts():
    for a in (X, Y):
        for b in (X, Y):
            c = completion_basis(a, b)
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
    assert error_rate(t) == 0.0
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
    with pytest.raises(ValueError):
        error_rate(t_none)


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

    def ancilla_state(self):
        return np.array([1.0 + 0j])

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
    # 5e-10 off is not measurable (STATE_NORM_TOL = 1e-10): the contract
    # check must abort the session rather than let measurement raise
    with pytest.raises(SessionAbort, match="normalisation"):
        run_session(50, check_fraction=0.5, strategy=NormBreaker(3, 1.0 + 5e-10), seed=4)
    # 5e-11 off is measurable, and the session runs
    run_session(50, check_fraction=0.5, strategy=NormBreaker(3, 1.0 + 5e-11), seed=4)


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


BUILT_IN_ATTACKERS = {
    "none": lambda: None,
    "hbb-circuit": exploit.CircuitAttack,
    "intercept-resend": exploit.InterceptResend,
    "spec-kki": lambda: exploit.HelstromAttack(attack.kki_spec()),
    "spec-family": lambda: exploit.HelstromAttack(
        optimizer.random_family_point(np.random.default_rng(5), c=0.3).to_spec()
    ),
}


@pytest.mark.parametrize("attacker", sorted(BUILT_IN_ATTACKERS))
def test_state_work_per_session_does_not_grow_with_rounds(monkeypatch, attacker):
    counts = Counter()
    for module, name in ((qstate, "project_qubit"), (qstate, "apply_operator"), (exploit, "apply_operator")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    per_session = []
    for n_rounds in (300, 3000):
        counts.clear()
        run_session(n_rounds, 0.5, strategy=BUILT_IN_ATTACKERS[attacker](), seed=17)
        per_session.append(dict(counts))
    assert per_session[0] == per_session[1]
    assert 0 < per_session[0]["project_qubit"] <= 200
    assert per_session[0].get("apply_operator", 0) <= 2


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
