"""HBB protocol session engine.

Runs GHZ-triplet rounds with three parties (dealer Alice, agents Bob and
Charlie), enforces the announcement ordering (Bob and Charlie commit their
bases before Alice reveals anything), sifts on an odd number of x choices,
checks announced outcomes against the GHZ correlation table, and extracts
key bits. A pluggable attacker strategy may replace Charlie; it intercepts
the two transit qubits joined to a private ancilla register and is only
queried again after the bases are public.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from typing import Protocol, runtime_checkable

import numpy as np

from .attack import mutual_information
from .qstate import (
    PROTOCOL_BASES,
    STATE_NORM_TOL,
    Basis,
    Outcome,
    StateMemo,
    StateVector,
    ghz_state,
    measure_qubit,  # noqa: F401 - kept in this namespace for code that looks it up here
    read_only,
    tensor_with_ancilla,
)

# GHZ correlation table: (Alice outcome, Bob outcome) -> Charlie outcome.
# Rows are Alice, columns Bob, exactly as the three parties use it.
CORRELATION_TABLE: dict[tuple[str, str], str] = {
    ("x+", "x+"): "x+", ("x+", "x-"): "x-", ("x+", "y+"): "y-", ("x+", "y-"): "y+",
    ("x-", "x+"): "x-", ("x-", "x-"): "x+", ("x-", "y+"): "y+", ("x-", "y-"): "y-",
    ("y+", "x+"): "y-", ("y+", "x-"): "y+", ("y+", "y+"): "x-", ("y+", "y-"): "x+",
    ("y-", "x+"): "y+", ("y-", "x-"): "y-", ("y-", "y+"): "x+", ("y-", "y-"): "x-",
}


class Role(str, Enum):
    CHECK = "check"
    KEY = "key"
    DISCARDED = "discarded"


class SessionAbort(RuntimeError):
    """An attacker strategy violated the session contract."""


def sift(bases: tuple[Basis, Basis, Basis]) -> bool:
    """Keep a round iff the number of parties choosing x is odd."""
    return sum(1 for b in bases if b is Basis.X) % 2 == 1


def completion_basis(first: Basis, second: Basis) -> Basis:
    """The unique third basis choice that makes the round sift."""
    n_x = sum(1 for b in (first, second) if b is Basis.X)
    return Basis.X if n_x % 2 == 0 else Basis.Y


def required_announcement(alice: Outcome, bob: Outcome) -> Outcome:
    """Charlie's outcome demanded by the correlation table."""
    _require_protocol_outcome(alice)
    _require_protocol_outcome(bob)
    return Outcome.from_label(CORRELATION_TABLE[(alice.label, bob.label)])


def infer_alice(bob: Outcome, charlie: Outcome) -> Outcome:
    """Reconstruct Alice's outcome from the two agents' outcomes.

    Alice's basis is forced by sifting parity; the sign is read off the
    correlation table. Outcomes whose bases cannot belong to a sifted round
    are rejected.
    """
    _require_protocol_outcome(bob)
    _require_protocol_outcome(charlie)
    alice_basis = completion_basis(bob.basis, charlie.basis)
    matches = [
        Outcome.from_label(f"{alice_basis.value}{s}")
        for s in "+-"
        if CORRELATION_TABLE[(f"{alice_basis.value}{s}", bob.label)] == charlie.label
    ]
    if len(matches) != 1:
        raise ValueError(
            f"announcement {charlie.label} is inconsistent with Bob {bob.label}: "
            f"no unique table entry"
        )
    return matches[0]


def _require_protocol_outcome(o: Outcome) -> None:
    if not isinstance(o, Outcome) or o.basis not in PROTOCOL_BASES:
        raise ValueError(f"expected an x/y outcome, got {o!r}")


@dataclass(frozen=True)
class RespondContext:
    """Everything an attacker learns when asked to respond after sifting."""

    round_id: int
    role: Role
    alice_basis: Basis
    bob_basis: Basis
    own_basis: Basis
    state: StateVector | None


@runtime_checkable
class AttackStrategy(Protocol):
    """Hooks a dishonest Charlie may implement.

    ``intercept`` receives the full state with registers A, B, C and the
    strategy's private register E appended and must return it after a
    norm-preserving interaction on B, C, E. The states handed to the hooks
    are shared across rounds and read-only: a hook returns a new state
    rather than writing into one. ``announce_basis`` commits the
    forged basis before any other announcement is revealed. ``respond`` is
    called only on sifted rounds, after all bases are public: on check
    rounds it must return an Outcome in the forged basis, on key rounds the
    guessed secret bit.
    """

    name: str
    ancilla_dim: int

    def ancilla_state(self) -> np.ndarray: ...

    def intercept(self, state: StateVector, rng: np.random.Generator) -> StateVector: ...

    def announce_basis(self, round_id: int, rng: np.random.Generator) -> Basis: ...

    def respond(self, ctx: RespondContext, rng: np.random.Generator) -> Outcome | int: ...


@dataclass
class RoundRecord:
    round_id: int
    bases: tuple[Basis, Basis, Basis]
    outcome_a: Outcome
    outcome_b: Outcome
    announced_c: Outcome | None
    sifted: bool
    role: Role
    consistent: bool | None


@dataclass
class SessionTranscript:
    rounds: list[RoundRecord]
    check_error_rate: float | None
    key_alice: list[int]
    key_reconstructed: list[int]
    attacker_key_guess: list[int] | None
    n_rounds: int
    check_fraction: float
    seed: int | None
    attacker: str


def _random_basis(rng: np.random.Generator) -> Basis:
    return PROTOCOL_BASES[int(rng.integers(0, 2))]


def run_session(
    n_rounds: int,
    check_fraction: float,
    strategy: AttackStrategy | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> SessionTranscript:
    """Simulate a full protocol session.

    Per round: a GHZ triplet is prepared; an active strategy intercepts
    qubits B and C (with its ancilla) right after Alice sends them; all
    parties commit their bases; the round sifts iff the x-count is odd;
    sifted rounds become checks with probability ``check_fraction`` and key
    rounds otherwise. Identical seeds produce identical transcripts.

    The prepared state is built once, and each distinct measurement's
    branches are computed once per session; every round still makes its
    own generator draws in the same order, calls every strategy hook and
    validates the intercepted state.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    if not 0.0 <= check_fraction <= 1.0:
        raise ValueError("check_fraction must lie in [0, 1]")
    if rng is None:
        rng = np.random.default_rng(seed)

    rounds: list[RoundRecord] = []
    key_alice: list[int] = []
    key_reconstructed: list[int] = []
    guesses: list[int] = []
    checks = failures = 0
    memo = StateMemo()
    prepared = ghz_state()
    if strategy is not None:
        prepared = tensor_with_ancilla(prepared, "E", strategy.ancilla_dim, strategy.ancilla_state())
    prepared = read_only(prepared)

    for r in range(n_rounds):
        alice_b = _random_basis(rng)
        bob_b = _random_basis(rng)

        state = prepared
        if strategy is not None:
            state = strategy.intercept(state, rng)
            _validate_intercepted(state, strategy)
            # Commitment point: the forged basis is fixed before the
            # strategy can see anything about Alice's or Bob's choices.
            charlie_b = strategy.announce_basis(r, rng)
            if charlie_b not in PROTOCOL_BASES:
                raise SessionAbort(f"round {r}: forged basis {charlie_b!r} is not announceable")
        else:
            charlie_b = _random_basis(rng)

        out_a, state = memo.measure(state, "A", alice_b, rng)
        out_b, state = memo.measure(state, "B", bob_b, rng)
        out_c = None
        if strategy is None:
            out_c, state = memo.measure(state, "C", charlie_b, rng)

        bases = (alice_b, bob_b, charlie_b)
        sifted = sift(bases)
        announced: Outcome | None = None
        consistent: bool | None = None
        if not sifted:
            role = Role.DISCARDED
        else:
            role = Role.CHECK if rng.random() < check_fraction else Role.KEY
            ctx = RespondContext(r, role, alice_b, bob_b, charlie_b, state)
            if role is Role.CHECK:
                if strategy is None:
                    announced = out_c
                else:
                    announced = strategy.respond(ctx, rng)
                    if not isinstance(announced, Outcome) or announced.basis is not charlie_b:
                        raise SessionAbort(
                            f"round {r}: check response {announced!r} is not an outcome "
                            f"in the announced basis {charlie_b.value}"
                        )
                checks += 1
                consistent = infer_alice(out_b, announced) == out_a
                if not consistent:
                    failures += 1
            else:
                key_alice.append(out_a.bit)
                if strategy is None:
                    key_reconstructed.append(infer_alice(out_b, out_c).bit)
                else:
                    guess = strategy.respond(ctx, rng)
                    if guess not in (0, 1):
                        raise SessionAbort(f"round {r}: key guess {guess!r} is not a bit")
                    guesses.append(int(guess))
                    # A dishonest agent who knows Alice's bit can always hand
                    # Bob a table-consistent value, so reconstruction follows
                    # his guess.
                    key_reconstructed.append(int(guess))

        rounds.append(
            RoundRecord(r, bases, out_a, out_b, announced, sifted, role, consistent)
        )

    return SessionTranscript(
        rounds=rounds,
        check_error_rate=(failures / checks) if checks else None,
        key_alice=key_alice,
        key_reconstructed=key_reconstructed,
        attacker_key_guess=guesses if strategy is not None else None,
        n_rounds=n_rounds,
        check_fraction=check_fraction,
        seed=seed,
        attacker=strategy.name if strategy is not None else "none",
    )


def _validate_intercepted(state: StateVector, strategy: AttackStrategy) -> None:
    if state.labels != ("A", "B", "C", "E"):
        raise SessionAbort(f"intercept returned registers {state.labels}")
    if state.dims != (2, 2, 2, strategy.ancilla_dim):
        raise SessionAbort(f"intercept returned register dims {state.dims}")
    # the tolerance measurement requires, so a state passing here is measurable
    if abs(state.norm - 1.0) > STATE_NORM_TOL:
        raise SessionAbort(f"intercept broke normalisation (norm {state.norm})")


def error_rate(transcript: SessionTranscript) -> float:
    """Fraction of check rounds failing the correlation table."""
    checks = [r for r in transcript.rounds if r.role is Role.CHECK]
    if not checks:
        raise ValueError("error rate undefined: transcript has no check rounds")
    return sum(1 for r in checks if r.consistent is False) / len(checks)


def info_rate(transcript: SessionTranscript) -> float:
    """1 - H2 of the attacker's empirical key-guess disagreement, in [0, 1]."""
    if not transcript.attacker_key_guess:
        raise ValueError("info rate undefined: no attacker key guesses recorded")
    guesses = transcript.attacker_key_guess
    truth = transcript.key_alice
    disagree = sum(1 for g, k in zip(guesses, truth) if g != k) / len(guesses)
    return mutual_information(disagree)


def _sig12(x: float | None):
    return None if x is None else float(f"{x:.12g}")


def _round_row(r: RoundRecord) -> dict:
    return {
        "round_id": r.round_id,
        "basis_a": r.bases[0].value,
        "basis_b": r.bases[1].value,
        "basis_c": r.bases[2].value,
        "sifted": r.sifted,
        "role": r.role.value,
        "outcome_a": r.outcome_a.label,
        "outcome_b": r.outcome_b.label,
        "announced_c": r.announced_c.label if r.announced_c else None,
        "consistent": r.consistent,
    }


def transcript_to_dict(t: SessionTranscript) -> dict:
    return {
        "n_rounds": t.n_rounds,
        "check_fraction": _sig12(t.check_fraction),
        "seed": t.seed,
        "attacker": t.attacker,
        "check_error_rate": _sig12(t.check_error_rate),
        "key_alice": t.key_alice,
        "key_reconstructed": t.key_reconstructed,
        "attacker_key_guess": t.attacker_key_guess,
        "rounds": [_round_row(r) for r in t.rounds],
    }


def transcript_to_json(t: SessionTranscript) -> str:
    return json.dumps(transcript_to_dict(t), sort_keys=True, indent=2) + "\n"


CSV_COLUMNS = (
    "round_id", "basis_a", "basis_b", "basis_c", "sifted", "role",
    "outcome_a", "outcome_b", "announced_c", "consistent",
)


def transcript_to_csv(t: SessionTranscript) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=",", lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in t.rounds:
        row = _round_row(r)
        writer.writerow(["" if row[c] is None else row[c] for c in CSV_COLUMNS])
    return buf.getvalue()
