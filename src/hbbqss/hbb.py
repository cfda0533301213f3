"""HBB protocol session engine.

Runs GHZ-triplet rounds with three parties (dealer Alice, agents Bob and
Charlie), enforces the announcement ordering (Bob and Charlie commit their
bases before Alice reveals anything), sifts on an odd number of x choices,
checks announced outcomes against the GHZ correlation table, and extracts
key bits. A pluggable attacker strategy may replace Charlie; it intercepts
the two transit qubits joined to a private ancilla register and is only
queried again after the bases are public.

The per-round table lookups, sifting among them, read tables built once
at import. Transcripts are written from per-row templates: each distinct
row (all fields but ``round_id``) is encoded once per export, and the bytes
are those of ``json.dumps(..., sort_keys=True, indent=2)`` or of a
``csv.writer`` loop.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import NamedTuple, Protocol

import numpy as np

from . import qmath
from .attack import _sig12, mutual_information
from .qstate import (
    MEMO_CAPACITY,
    PROTOCOL_BASES,
    Basis,
    Outcome,
    StateMemo,
    StateVector,
    _frozen,
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


def required_announcement(alice: Outcome, bob: Outcome) -> Outcome:
    """Charlie's outcome demanded by the correlation table."""
    _require_protocol_outcome(alice)
    _require_protocol_outcome(bob)
    return _REQUIRED[alice, bob]


def infer_alice(bob: Outcome, charlie: Outcome) -> Outcome:
    """Reconstruct Alice's outcome from the two agents' outcomes.

    Alice's basis is forced by sifting parity; the sign is read off the
    correlation table. Outcomes whose bases cannot belong to a sifted round
    are rejected.
    """
    _require_protocol_outcome(bob)
    _require_protocol_outcome(charlie)
    alice = _ALICE.get((bob, charlie))
    if alice is None:
        raise ValueError(
            f"announcement {charlie.label} is inconsistent with Bob {bob.label}: "
            f"no unique table entry"
        )
    return alice


def _require_protocol_outcome(o: Outcome) -> None:
    if not isinstance(o, Outcome) or o.basis not in PROTOCOL_BASES:
        raise ValueError(f"expected an x/y outcome, got {o!r}")


# The correlation table keyed by outcomes: the required announcement by
# (Alice, Bob), and its inverse, Alice's outcome by (Bob, Charlie). Every
# entry sifts and no Bob column repeats a Charlie outcome, so the inverse
# gives the unique outcome in the completion basis for all 16 agent pairs.
_REQUIRED: dict[tuple[Outcome, Outcome], Outcome] = {
    (Outcome.from_label(a), Outcome.from_label(b)): Outcome.from_label(c)
    for (a, b), c in CORRELATION_TABLE.items()
}
_ALICE: dict[tuple[Outcome, Outcome], Outcome] = {(b, c): a for (a, b), c in _REQUIRED.items()}
#: Whether each triple of announceable bases sifts.
_SIFTS: dict[tuple[Basis, Basis, Basis], bool] = {
    bases: sift(bases) for bases in product(PROTOCOL_BASES, repeat=3)
}


class RespondContext(NamedTuple):
    """Everything an attacker learns when asked to respond after sifting."""

    round_id: int
    role: Role
    alice_basis: Basis
    bob_basis: Basis
    own_basis: Basis
    state: StateVector | None


class AttackStrategy(Protocol):
    """Hooks a dishonest Charlie may implement.

    ``intercept`` receives the full state with registers A, B, C and the
    strategy's private register E appended and must return it after a
    norm-preserving interaction on B, C, E. E has dimension ``ancilla_dim``
    and starts in |0...0>; any other fixed initial state folds into the
    interaction. The states handed to the hooks are shared across rounds
    and read-only: a hook returns a new state rather than writing into one.
    The outcomes a hook is handed are the interned ones of
    :class:`~hbbqss.qstate.Outcome`, and the :class:`RespondContext` and the
    session's :class:`RoundRecord` rows are immutable.
    The ``rng`` handed to the hooks has the ``numpy.random.Generator`` API
    and draws in one sequence with the session; hooks draw through it, not
    through another reference to the session's generator. It is the
    generator itself unless that runs on PCG64; then its ``random()`` and
    ``integers(0, 2)`` are served from the session's block of raw words, bit
    for bit, until the first other use hands every draw to the generator.
    ``announce_basis`` commits the forged basis before any other
    announcement is revealed. ``respond`` is called only on sifted rounds,
    after all bases are public: on check rounds it must return an Outcome
    in the forged basis, on key rounds the guessed secret bit.
    """

    name: str
    ancilla_dim: int

    def intercept(self, state: StateVector, rng: np.random.Generator) -> StateVector: ...

    def announce_basis(self, round_id: int, rng: np.random.Generator) -> Basis: ...

    def respond(self, ctx: RespondContext, rng: np.random.Generator) -> Outcome | int: ...


class RoundRecord(NamedTuple):
    """One round as the transcript records it."""

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
    return PROTOCOL_BASES[rng.integers(0, 2)]


#: Raw 64-bit words a :class:`_DrawStream` reads from its generator at a time.
_BLOCK = 1024
#: ``Generator.integers(0, 2)``'s two results.
_BITS = (np.int64(0), np.int64(1))
_ZERO, _TWO, _INT64, _FLOAT64 = 0, 2, np.int64, np.float64


class _DrawStream:
    """A PCG64 Generator's ``random()`` and ``integers(0, 2)``, bit for bit,
    served from blocks of the bit generator's raw words.

    PCG64 makes a double of one 64-bit word w as ``(w >> 11) * 2**-53``, and
    ``integers(0, 2)`` is the top bit of its buffered 32-bit draw: the low
    half of a fresh word, whose high half is kept for the next 32-bit draw
    (the ``has_uint32`` and ``uinteger`` fields of the bit generator's
    state). :meth:`_release` puts the generator in the state those draws
    would have left it in, and from then on the generator serves every draw.
    Any other use of the Generator API (another method, other arguments, the
    ``bit_generator``) releases first. A generator drawn from directly while
    the stream holds it cannot be reproduced: the release raises
    :class:`SessionAbort` instead.
    """

    def __init__(self, generator: np.random.Generator):
        self._released = False
        self._generator = generator
        self._bit_generator = generator.bit_generator
        state = self._bit_generator.state
        self._buffered = bool(state["has_uint32"])
        self._upper = state["uinteger"]  # the high half last read, as the state keeps it
        self._end = state["state"]
        self._fill()

    def _fill(self) -> None:
        """Read the next block, keeping the state it starts from."""
        bit_generator = self._bit_generator
        start = bit_generator.state
        if start["state"] != self._end:
            self._release()  # raises: the generator moved behind the stream's back
        words = bit_generator.random_raw(_BLOCK)
        self._start, self._end = start, bit_generator.state["state"]
        self._doubles = ((words >> 11) * (1.0 / 9007199254740992.0)).tolist()
        self._lows = ((words >> 31) & 1).tolist()
        self._uppers = (words >> 32).tolist()
        self._used = 0

    # The draws keep the Generator's signatures. A call is served from the
    # block only with the arguments below, compared by identity (0 and 2 are
    # the interpreter's shared small ints); any other call, equal or not,
    # takes the Generator's own route.
    def random(self, size=None, dtype=np.float64, out=None) -> float:
        if not (size is None and dtype is _FLOAT64 and out is None):
            return self._release().random(size, dtype, out)
        i = self._used
        if i == _BLOCK:
            self._fill()
            i = 0
        self._used = i + 1
        return self._doubles[i]

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        if not (low is _ZERO and high is _TWO and size is None and dtype is _INT64 and endpoint is False):
            return self._release().integers(low, high, size, dtype, endpoint)
        if self._buffered:
            self._buffered = False
            return _BITS[self._upper >> 31]
        i = self._used
        if i == _BLOCK:
            self._fill()
            i = 0
        self._used = i + 1
        self._buffered = True
        self._upper = self._uppers[i]
        return _BITS[self._lows[i]]

    def __getattr__(self, name: str):
        # reached only for names the stream does not define
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self._release(), name)

    def _release(self) -> np.random.Generator:
        """The generator, in the state the draws served so far leave it in."""
        if not self._released:
            self._released = True
            generator, bit_generator = self._generator, self._bit_generator
            self.random, self.integers = generator.random, generator.integers
            if bit_generator.state["state"] != self._end:
                raise SessionAbort("the session's generator was drawn from other than through the hooks' rng")
            bit_generator.state = self._start
            bit_generator.advance(self._used)
            state = bit_generator.state
            state["has_uint32"], state["uinteger"] = int(self._buffered), self._upper
            bit_generator.state = state
        return self._generator


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
    branches are computed once per session, looked up by the state's
    identity when it is read-only and by its bytes otherwise (see
    :class:`~hbbqss.qstate.StateMemo`). Every round still makes its own
    generator draws in the same order and calls every strategy hook. The
    intercepted state is validated once per distinct read-only state, the
    first round it appears, and every round when it is writable.

    With a PCG64 generator, the one ``default_rng`` builds, the draws come
    from a :class:`_DrawStream` over it: the same values in the same order,
    made from blocks of the generator's raw words. The hooks get the stream
    in place of the generator (see :class:`AttackStrategy`). When the
    session ends, by return or by an exception, ``rng`` is left in the state
    per-call draws leave it in.
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
    checked: dict[int, StateVector] = {}  # validated frozen states, by identity
    prepared = ghz_state()
    if strategy is not None:
        prepared = tensor_with_ancilla(prepared, "E", strategy.ancilla_dim)
    prepared = read_only(prepared)

    generator = rng
    if type(rng) is np.random.Generator and type(rng.bit_generator) is np.random.PCG64:
        rng = _DrawStream(generator)
    try:
        for r in range(n_rounds):
            alice_b = _random_basis(rng)
            bob_b = _random_basis(rng)

            state = prepared
            if strategy is not None:
                state = strategy.intercept(state, rng)
                # a state validated while frozen is validated again once writable
                if checked.get(id(state)) is not state or not _frozen(state):
                    _validate_intercepted(state, strategy)
                    if _frozen(state) and len(checked) < MEMO_CAPACITY:
                        checked[id(state)] = state
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
            sifted = _SIFTS[bases]
            announced: Outcome | None = None
            consistent: bool | None = None
            if not sifted:
                role = Role.DISCARDED
            else:
                role = Role.CHECK if rng.random() < check_fraction else Role.KEY
                if strategy is not None:
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
    finally:
        if rng is not generator:
            rng._release()

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
    if abs(state.norm - 1.0) > qmath.STRUCT_TOL:
        raise SessionAbort(f"intercept broke normalisation (norm {state.norm})")


def info_rate(transcript: SessionTranscript) -> float:
    """1 - H2 of the attacker's empirical key-guess disagreement, in [0, 1]."""
    if not transcript.attacker_key_guess:
        raise ValueError("info rate undefined: no attacker key guesses recorded")
    guesses = transcript.attacker_key_guess
    truth = transcript.key_alice
    disagree = sum(1 for g, k in zip(guesses, truth) if g != k) / len(guesses)
    return mutual_information(disagree)


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


def _transcript_header(t: SessionTranscript) -> dict:
    return {
        "n_rounds": t.n_rounds,
        "check_fraction": _sig12(t.check_fraction),
        "seed": t.seed,
        "attacker": t.attacker,
        "check_error_rate": _sig12(t.check_error_rate),
        "key_alice": t.key_alice,
        "key_reconstructed": t.key_reconstructed,
        "attacker_key_guess": t.attacker_key_guess,
    }


def transcript_to_dict(t: SessionTranscript) -> dict:
    return {**_transcript_header(t), "rounds": [_round_row(r) for r in t.rounds]}


CSV_COLUMNS = (
    "round_id", "basis_a", "basis_b", "basis_c", "sifted", "role",
    "outcome_a", "outcome_b", "announced_c", "consistent",
)

#: A round id no round has; both encoders write it as its digits, so the
#: text of a row written with it splits into the text before and after the id.
_ID_SLOT = -7_340_033_019


def _row_texts(t: SessionTranscript, write_row) -> list[str]:
    """Each round's row as ``write_row`` writes its ``_round_row`` dict.

    Rounds that differ only in ``round_id`` share one text: it is written
    once per call with ``_ID_SLOT`` in place of the id, and each round's id
    is put in its place.
    """
    templates: dict[tuple, list[str]] = {}
    texts = []
    for r in t.rounds:
        key = r[1:]  # every field but round_id; each hashes in C
        template = templates.get(key)
        if template is None:
            row = write_row({**_round_row(r), "round_id": _ID_SLOT})
            template = templates[key] = row.split(str(_ID_SLOT))
        head, tail = template
        texts.append(f"{head}{r[0]}{tail}")
    return texts


def _json_row(row: dict) -> str:
    """``row`` as ``json.dumps(..., indent=2)`` lays it out inside the rounds list."""
    return json.dumps(row, sort_keys=True, indent=2).replace("\n", "\n    ")


def _json_list(items: list) -> str:
    """A list of ints or written rows as ``json.dumps(..., indent=2)`` lays it out one level down."""
    if not items:
        return "[]"
    return "[\n    " + ",\n    ".join(map(str, items)) + "\n  ]"


def transcript_to_json(t: SessionTranscript) -> str:
    """The bytes of ``json.dumps(transcript_to_dict(t), sort_keys=True, indent=2) + "\\n"``.

    The header scalars go through ``json.dumps``; the key lists are joined
    directly and the rounds written from per-row templates.
    """
    fields = {**_transcript_header(t), "rounds": _row_texts(t, _json_row)}
    lists = {k: v for k, v in fields.items() if isinstance(v, list)}
    text = json.dumps({**fields, **{k: f"\0{k}" for k in lists}}, sort_keys=True, indent=2)
    for k, items in lists.items():
        text = text.replace(json.dumps(f"\0{k}"), _json_list(items))
    return text + "\n"


def _csv_line(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf, delimiter=",", lineterminator="\n").writerow(fields)
    return buf.getvalue()


def _csv_row(row: dict) -> str:
    return _csv_line(["" if row[c] is None else row[c] for c in CSV_COLUMNS])


def transcript_to_csv(t: SessionTranscript) -> str:
    """A header line, then one ``csv.writer`` line per round, written from per-row templates."""
    return _csv_line(CSV_COLUMNS) + "".join(_row_texts(t, _csv_row))
