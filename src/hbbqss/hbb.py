"""HBB protocol session engine.

Runs GHZ-triplet rounds with three parties (dealer Alice, agents Bob and
Charlie), enforces the announcement ordering (Bob and Charlie commit their
bases before Alice reveals anything), sifts on an odd number of x choices,
checks announced outcomes against the GHZ correlation table, and extracts
key bits. A pluggable attacker strategy may replace Charlie; it intercepts
the two transit qubits joined to a private ancilla register and is only
queried again after the bases are public.

A session takes one of two routes, which make the same generator draws and
write the same records (see :func:`run_session`). With a PCG64 generator
and no strategy or a :class:`_TableAttack` (each built-in attacker of
:mod:`hbbqss.exploit`) whose hooks are the base's, none set on the instance,
the session scans the rounds over a table of everything a round can reach,
built once per attacker data and kept while that data lives, reading the
draws from the generator's raw words; no hook is called, and only the scan
reads raw words. Every other session runs round by round through the hooks,
which are handed the caller's generator and draw from it as the session
does; that route is the reference the scan is tested against.

The per-round table lookups, sifting among them, read tables built once
at import. One of them is the transcript's vocabulary: a round's row less
its ``round_id`` takes one of 64 values (16 discarded, 32 check and 16 key
rows), and a transcript holds each round as the index of its row. The
writers render a round from its row's template, encoded once per process
and format, and the bytes are those of ``json.dumps(..., sort_keys=True,
indent=2)`` or of a ``csv.writer`` loop.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import weakref
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import NamedTuple, Protocol

import numpy as np

from .attack import _sig12, mutual_information
from .qstate import (
    _OUTCOMES,
    MEMO_CAPACITY,
    PROTOCOL_BASES,
    ZERO_BRANCH_TOL,
    Basis,
    Outcome,
    StateMemo,
    StateVector,
    _frozen,
    _measure_stack,
    _sample,
    _two_way,
    _unmeasurable,
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
#: The sifting triple of bases, by Alice's and Bob's.
_SIFTED: dict[tuple[Basis, Basis], tuple[Basis, Basis, Basis]] = {
    bases[:2]: bases for bases, sifts in _SIFTS.items() if sifts
}
#: Every row a round can take, as the fields of its :class:`RoundRecord`
#: after ``round_id``. Per triple of bases and pair of Alice's and Bob's
#: outcomes: a discarded row where the triple does not sift, else a check row
#: per announcement in Charlie's basis, consistent iff :func:`infer_alice`
#: gives Alice's outcome, and a key row. 16 discarded, 32 check and 16 key.
_ROWS: tuple[tuple, ...] = tuple(
    (bases, out_a, out_b, announced, sifts, role, None if announced is None else infer_alice(out_b, announced) == out_a)
    for bases, sifts in _SIFTS.items()
    for out_a, out_b in product(_OUTCOMES[bases[0]], _OUTCOMES[bases[1]])
    for announced, role in (
        [(c, Role.CHECK) for c in _OUTCOMES[bases[2]]] + [(None, Role.KEY)] if sifts else [(None, Role.DISCARDED)]
    )
)
#: A row's index in ``_ROWS`` by its bases, outcomes, announcement and role,
#: the fields that fix the other two.
_ROW_INDEX: dict[tuple, int] = {(*row[:4], row[5]): k for k, row in enumerate(_ROWS)}


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
    The ``rng`` handed to the hooks is the session's generator, whatever its
    bit generator. The built-in attackers of :mod:`hbbqss.exploit`, and their
    subclasses that keep the hooks, are not called once per round when the
    session takes the scan (see :func:`run_session`): the session reads
    their answers from the tables their hooks draw from.
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


_record = functools.partial(tuple.__new__, RoundRecord)


class _Rounds(Sequence):
    """A transcript's rounds as a read-only sequence of :class:`RoundRecord`
    over ``rows``, the index in ``_ROWS`` of each round's row: round ``r`` is
    ``RoundRecord(r, *_ROWS[rows[r]])``, built when read. Indexing (negative
    indices too), slices (lists of records), iteration and ``==`` behave as
    on the list of those records."""

    __slots__ = ("rows",)

    def __init__(self, rows: list[int]):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        ids = range(len(self.rows))[index]
        if isinstance(ids, range):
            return [_record((r, *_ROWS[self.rows[r]])) for r in ids]
        return _record((ids, *_ROWS[self.rows[ids]]))

    def __iter__(self):
        return (_record((r, *_ROWS[k])) for r, k in enumerate(self.rows))

    def __eq__(self, other):
        if isinstance(other, _Rounds):
            return self.rows == other.rows
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class SessionTranscript:
    """A session's transcript. ``rounds`` is a read-only sequence of the
    rounds' records, built when read from each round's row index; it holds
    no record object per round, and compares equal to the list of its
    records. The writers read the row indices, so ``rounds`` is the view
    :func:`run_session` builds."""

    rounds: Sequence[RoundRecord]
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

    A session takes one of two routes, with the same draws, records and
    generator state at the end, also when it ends by an exception:

    * The scan serves a PCG64 generator, the one ``default_rng`` builds,
      with no strategy or with a :class:`_TableAttack` (the three attackers
      of :mod:`hbbqss.exploit` and their subclasses) whose class keeps the
      base's hooks and whose instance sets none. It walks a table of
      everything a round can reach: the intercepted states, every
      measurement's branches and the laws of the attacker's answers. The
      table is built once per attacker data (the attacker's ``_roots``
      object) and ancilla dimension, and kept while that object lives;
      with no strategy, once per process (see :func:`_table`). The rounds
      walk it, reading their draws from blocks of the generator's raw
      words (see :class:`_RawWords`) and drawing each sifted round's role
      against ``check_fraction`` as they go; no hook is called.
    * Every other session runs round by round, draws from ``rng`` and calls
      every strategy hook with it. The prepared state is built once, and
      each distinct measurement's branches are computed once per session,
      looked up by the state's identity when it is read-only and by its
      bytes otherwise (see :class:`~hbbqss.qstate.StateMemo`).

    The intercepted state is validated once per distinct read-only state (on
    the scan, before the first round; round by round, the first round it
    appears) and every round when it is writable.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    if not 0.0 <= check_fraction <= 1.0:
        raise ValueError("check_fraction must lie in [0, 1]")
    if strategy is not None:
        dim = strategy.ancilla_dim
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
            raise SessionAbort(f"ancilla_dim {dim!r} is not an int >= 1")
    if rng is None:
        rng = np.random.default_rng(seed)

    prepared = ghz_state()
    if strategy is not None:
        prepared = tensor_with_ancilla(prepared, "E", strategy.ancilla_dim)
    prepared = read_only(prepared)

    pcg64 = type(rng) is np.random.Generator and type(rng.bit_generator) is np.random.PCG64
    route = _scan if pcg64 and _scannable(strategy) else _per_round
    rows, key_alice, key_reconstructed, checks, failures = route(n_rounds, check_fraction, strategy, prepared, rng)

    return SessionTranscript(
        rounds=_Rounds(rows),
        check_error_rate=(failures / checks) if checks else None,
        key_alice=key_alice,
        key_reconstructed=key_reconstructed,
        # an attacker's key guesses are what reconstruction follows
        attacker_key_guess=list(key_reconstructed) if strategy is not None else None,
        n_rounds=n_rounds,
        check_fraction=check_fraction,
        seed=seed,
        attacker=strategy.name if strategy is not None else "none",
    )


def _per_round(n_rounds, check_fraction, strategy, prepared, rng) -> tuple:
    """The rounds one by one, through the strategy's hooks: (the rounds' row
    indices, Alice's key, reconstructed key, check rounds, failed checks)."""
    rows: list[int] = []
    key_alice: list[int] = []
    key_reconstructed: list[int] = []
    checks = failures = 0
    memo = StateMemo()
    checked: dict[int, StateVector] = {}  # validated frozen states, by identity
    for r in range(n_rounds):
        alice_b = _random_basis(rng)
        bob_b = _random_basis(rng)

        state = prepared
        if strategy is not None:
            state = strategy.intercept(state, rng)
            # a state validated while frozen is validated again once writable
            if not isinstance(state, StateVector) or checked.get(id(state)) is not state or not _frozen(state):
                _validate_intercepted(state, strategy)
                if _frozen(state) and len(checked) < MEMO_CAPACITY:
                    checked[id(state)] = state
            # Commitment point: the forged basis is fixed before the
            # strategy can see anything about Alice's or Bob's choices.
            charlie_b = strategy.announce_basis(r, rng)
            # by identity: Basis is a str Enum, so "x" == Basis.X
            if charlie_b is not Basis.X and charlie_b is not Basis.Y:
                raise SessionAbort(f"round {r}: forged basis {charlie_b!r} is not announceable")
        else:
            charlie_b = _random_basis(rng)

        out_a, state = memo.measure(state, "A", alice_b, rng)
        out_b, state = memo.measure(state, "B", bob_b, rng)
        out_c = None
        if strategy is None:
            out_c, state = memo.measure(state, "C", charlie_b, rng)

        bases = (alice_b, bob_b, charlie_b)
        announced: Outcome | None = None
        if not _SIFTS[bases]:
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
                if infer_alice(out_b, announced) != out_a:
                    failures += 1
            else:
                key_alice.append(out_a.bit)
                if strategy is None:
                    key_reconstructed.append(infer_alice(out_b, out_c).bit)
                else:
                    guess = strategy.respond(ctx, rng)
                    if guess not in (0, 1):
                        raise SessionAbort(f"round {r}: key guess {guess!r} is not a bit")
                    # A dishonest agent who knows Alice's bit can always hand
                    # Bob a table-consistent value, so reconstruction follows
                    # his guess.
                    key_reconstructed.append(int(guess))

        rows.append(_ROW_INDEX[bases, out_a, out_b, announced, role])
    return rows, key_alice, key_reconstructed, checks, failures


#: The names of the :class:`AttackStrategy` hooks.
_HOOKS = ("intercept", "announce_basis", "respond")


class _TableAttack:
    """An attacker given as its data: ``_roots(prepared)``, the laws of its
    interaction and of its answers, which the session scan walks and from
    which the hooks below draw.

    ``_roots(prepared)`` is a tuple, one entry per bit of a probe-basis
    ``integers(0, 2)`` draw (a single entry when ``intercept`` draws
    nothing), each a law (see :func:`~hbbqss.qstate._sample`) over pairs
    (intercepted state, answers). ``answers(states, bases)`` gives, for the
    rows of ``states`` (the C, E states once A and B are measured) and each
    row's (Alice, Bob, own) bases of a sifted round, the pair of laws of its
    check announcement and of its key guess. The forged basis is drawn as
    :func:`_random_basis` draws it. The session scan keeps the table it
    builds from ``_roots`` for as long as that object lives (see
    :func:`_table`), so ``_roots`` must give the same laws on every call.
    """

    def __init__(self, roots):
        # the memo's keys hold ``roots``, which holds no reference to the
        # attacker, so attacker and memo form no reference cycle
        self._roots = roots
        self._memo = StateMemo()
        self._answers = None  # the answers of the root last drawn

    def intercept(self, state: StateVector, rng: np.random.Generator) -> StateVector:
        roots = self._memo.apply(_frozen_roots, state, self._roots)
        law = roots[rng.integers(0, 2)] if len(roots) == 2 else roots[0]
        state, self._answers = _sample(law, rng)
        return state

    def announce_basis(self, round_id: int, rng: np.random.Generator) -> Basis:
        return _random_basis(rng)

    def respond(self, ctx: RespondContext, rng: np.random.Generator) -> Outcome | int:
        laws = self._memo.apply(_answer_laws, ctx.state, self._answers, ctx.alice_basis, ctx.bob_basis, ctx.own_basis)
        return _sample(laws[ctx.role is Role.KEY], rng)


def _frozen_roots(state: StateVector, roots) -> tuple:
    """``roots(state)`` with every root state read-only."""
    return tuple((cuts, tuple((read_only(root), answers) for root, answers in outcomes)) for cuts, outcomes in roots(state))


def _answer_laws(state: StateVector, answers, alice_basis: Basis, bob_basis: Basis, own_basis: Basis) -> tuple:
    """The (check, key) answer laws of one C, E state: ``answers(states,
    bases)``, which gives them for each row of a stack, on a stack of one."""
    return answers(state.vec[None], [(alice_basis, bob_basis, own_basis)])[0]


def _scannable(strategy: AttackStrategy | None) -> bool:
    """Whether the scan may stand in for the strategy's hooks: no strategy, or
    a :class:`_TableAttack` whose hooks are the base's, none on the instance."""
    if strategy is None:
        return True
    cls = type(strategy)
    return (
        isinstance(strategy, _TableAttack)
        and all(getattr(cls, name) is getattr(_TableAttack, name) for name in _HOOKS)
        and vars(strategy).keys().isdisjoint(_HOOKS)
    )


#: The most raw words one round of the scan reads: one for Alice's and Bob's
#: bases, one for the probe basis and Charlie's, six doubles.
_ROUND_WORDS = 8
#: The (basis bit, sign bit) pairs of a measured register's branches, in the
#: order :func:`~hbbqss.qstate._measure_stack` lays them out.
_BRANCHES = tuple(product((0, 1), repeat=2))


#: Raw 64-bit words the scan reads from the generator at a time.
_BLOCK = 1024


class _RawWords:
    """A PCG64 generator's raw 64-bit words, read a block at a time, as its
    ``random()`` and ``integers(0, 2)`` use them.

    PCG64 makes a double of one word w as ``(w >> 11) * 2**-53``, and
    ``integers(0, 2)`` is the top bit of its buffered 32-bit draw: the low
    half of a fresh word, whose high half is kept for the next 32-bit draw
    (the ``has_uint32`` and ``uinteger`` fields of the bit generator's
    state). ``doubles``, ``lows`` and ``uppers`` hold each word's double,
    the top bit of its low half and its high half; ``buffered`` and
    ``upper`` are the buffer when reading starts. The scan keeps its own
    place in the lists and hands it to :meth:`settle` at the end.
    """

    def __init__(self, generator: np.random.Generator):
        self._bit_generator = generator.bit_generator
        self._start = state = self._bit_generator.state
        self.buffered = bool(state["has_uint32"])
        self.upper = state["uinteger"]  # the high half last read, as the state keeps it
        self._dropped = 0  # words read since ``_start`` and no longer in the lists
        self.doubles: list[float] = []
        self.lows: list[int] = []
        self.uppers: list[int] = []
        self.extend(0)

    def extend(self, keep: int) -> int:
        """Drop the words before index ``keep``, append the next block after
        the rest, and return the new index of the first word kept: 0."""
        words = self._bit_generator.random_raw(_BLOCK)
        self._dropped += keep
        self.doubles = self.doubles[keep:] + ((words >> 11) * (1.0 / 9007199254740992.0)).tolist()
        self.lows = self.lows[keep:] + ((words >> 31) & 1).tolist()
        self.uppers = self.uppers[keep:] + (words >> 32).tolist()
        return 0

    def settle(self, used: int, buffered: bool, upper: int) -> None:
        """Put the generator in the state per-call draws leave it in once
        they have read the words before index ``used`` and left the buffer
        at ``buffered`` and ``upper``."""
        bit_generator = self._bit_generator
        bit_generator.state = self._start
        bit_generator.advance(self._dropped + used)
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = int(buffered), upper
        bit_generator.state = state


#: The scan tables of the attackers' data (see :func:`_table`): by the
#: attacker's ``_roots`` object, held weakly, then by its ``ancilla_dim``.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
#: The scan table of a session with no attacker, once built.
_PLAIN_TABLE: tuple | None = None


def _table(strategy, prepared) -> tuple:
    """The scan table of the strategy's data (see :func:`_scan_table`).

    A table is a function of the attacker's ``_roots`` and ``ancilla_dim``
    alone (``prepared`` follows from the latter), so it is built once per
    such pair and kept for as long as the ``_roots`` object lives; the
    table holds no reference to it. With no strategy it is built once per
    process. Roots that cannot be weakly referenced get a table per session.
    Two sessions that start together may both build a table; the tables are
    equal immutable tuples, and the last one built is kept.
    """
    global _PLAIN_TABLE
    if strategy is None:
        if _PLAIN_TABLE is None:
            _PLAIN_TABLE = _scan_table(None, prepared)
        return _PLAIN_TABLE
    try:
        tables = _TABLES.setdefault(strategy._roots, {})
    except TypeError:  # not hashable, or no weak reference to it
        return _scan_table(strategy, prepared)
    table = tables.get(strategy.ancilla_dim)
    if table is None:
        table = tables[strategy.ancilla_dim] = _scan_table(strategy, prepared)
    return table


def _scan(n_rounds, check_fraction, strategy, prepared, rng: np.random.Generator) -> tuple:
    """The rounds as a walk over the strategy's table (see :func:`_table`),
    with :func:`_per_round`'s draws read from the generator's raw words."""
    intercepts = _table(strategy, prepared)
    probing = len(intercepts) == 2
    rows: list[int] = []
    key_alice: list[int] = []
    key_reconstructed: list[int] = []
    checks = failures = 0
    append, bisect = rows.append, bisect_right
    raw = _RawWords(rng)
    doubles, lows, uppers = raw.doubles, raw.lows, raw.uppers
    i, buffered, upper = 0, raw.buffered, raw.upper
    last = len(doubles) - _ROUND_WORDS
    try:
        for r in range(n_rounds):
            if i > last:
                i = raw.extend(i)
                doubles, lows, uppers = raw.doubles, raw.lows, raw.uppers
                last = len(doubles) - _ROUND_WORDS
            # Alice's and Bob's bases: two integers(0, 2) draws, which read
            # one fresh word between them and leave the buffer as it was
            if buffered:
                a, b = upper >> 31, lows[i]
            else:
                a, b = lows[i], uppers[i] >> 31
            upper = uppers[i]
            i += 1
            k = 0
            if probing:  # the probe basis
                if buffered:
                    k = upper >> 31
                else:
                    k = lows[i]
                    upper = uppers[i]
                    i += 1
                buffered = not buffered
            cuts, node, words = intercepts[k]
            node = node[bisect(cuts, doubles[i])]
            i += words
            # Charlie's basis, or the forged one
            if buffered:
                c = upper >> 31
            else:
                c = lows[i]
                upper = uppers[i]
                i += 1
            buffered = not buffered
            # A, B and C measured; a law without cuts reads no word
            for bit in (a, b, c):
                cuts, node, words = node[bit]
                node = node[bisect(cuts, doubles[i])]
                i += words
            if len(node) == 2:  # sifted: the role drawn as _per_round draws it, then the answer
                cuts, node, words = node[0 if doubles[i] < check_fraction else 1]
                node = node[bisect(cuts, doubles[i + 1])]
                i += 1 + words
            row, key, check, failed = node
            append(row)
            if key is not None:
                key_alice.append(key[0])
                key_reconstructed.append(key[1])
            checks += check
            failures += failed
    finally:
        raw.settle(i, buffered, upper)
    return rows, key_alice, key_reconstructed, checks, failures


def _scan_table(strategy, prepared) -> tuple:
    """Everything a round of a session with the strategy can reach, as nested
    laws.

    A node is a tuple indexed by a drawn bit, whose entries are laws
    ``(cuts, outcomes, words)``: the outcome is ``outcomes[bisect_right(cuts,
    u)]`` for the next double ``u``, which is read (``words`` is 1) only when
    there are cuts. The returned node is indexed by the probe-basis bit and
    leads to the intercepted state's node; from there the nodes are indexed
    by Alice's, Bob's and Charlie's basis bits and lead to the round's end
    (see :func:`_round_end`): a leaf ``(the round's row index in _ROWS,
    (Alice's key bit, the reconstructed one) or None, 1 on a check round, 1
    on a failed check)``, or for a sifted round the pair of laws over the
    leaves of a check and of a key round, between which the walk chooses by
    the role's draw.

    The registers are measured level by level, each level in one stacked
    contraction, every branch bit for bit as the round-by-round route
    computes it. A state that does not occur gets no node: its place holds
    None, which no law reaches, since :func:`~hbbqss.qstate._two_way` drops
    every branch at or below ``ZERO_BRANCH_TOL``.
    """
    if strategy is None:
        intercepts = (((), ((prepared, None),)),)
    else:
        intercepts = strategy._roots(prepared)
    roots = [root for _, outcomes in intercepts for root in outcomes]
    if strategy is not None:
        for state, _ in roots:
            _validate_intercepted(state, strategy)
    levels = []
    states = np.stack([state.vec for state, _ in roots])
    occurs = np.ones(len(roots), dtype=bool)
    for _ in range(3 if strategy is None else 2):
        probs, conds = _measure_stack(states.reshape(len(states), 2, -1), occurs)
        levels.append(probs.tolist())
        occurs = (probs > ZERO_BRANCH_TOL).reshape(-1)
        states = conds.reshape(len(occurs), -1)

    # the rounds' ends below each state once A and B are measured
    paths = list(product(range(len(roots)), _BRANCHES, _BRANCHES))
    occurring = occurs.tolist()
    nodes = []
    if strategy is None:
        for n, ((_, (a, sa), (b, sb)), (c, sc)) in enumerate(product(paths, _BRANCHES)):
            if not occurring[n]:
                nodes.append(None)
                continue
            bases = (PROTOCOL_BASES[a], PROTOCOL_BASES[b], PROTOCOL_BASES[c])
            out_a, out_b, out_c = (_OUTCOMES[basis][sign] for basis, sign in zip(bases, (sa, sb, sc)))
            laws = (((), (out_c,)), ((), (infer_alice(out_b, out_c).bit,))) if _SIFTS[bases] else None
            nodes.append(_round_end(bases, out_a, out_b, laws))
        nodes = _branch_nodes(levels.pop(), nodes)
    else:
        # the attacker's answers to the states that occur, root by root
        outcomes = [(_OUTCOMES[PROTOCOL_BASES[a]][sa], _OUTCOMES[PROTOCOL_BASES[b]][sb]) for _, (a, sa), (b, sb) in paths]
        answers: dict[int, tuple] = {}
        for index, (_, answer_laws) in enumerate(roots):
            live = [m for m, (root, _, _) in enumerate(paths) if root == index and occurring[m]]
            sifted = [_SIFTED[outcomes[m][0].basis, outcomes[m][1].basis] for m in live]
            answers.update(zip(live, answer_laws(states[live], sifted)))
        for m, (out_a, out_b) in enumerate(outcomes):
            if not occurring[m]:
                nodes.append(None)
                continue
            ends = []
            for charlie_b in PROTOCOL_BASES:
                bases = (out_a.basis, out_b.basis, charlie_b)
                laws = answers[m] if _SIFTS[bases] else None
                ends.append(_law((), (_round_end(bases, out_a, out_b, laws),)))
            nodes.append(tuple(ends))
    while levels:
        nodes = _branch_nodes(levels.pop(), nodes)
    root_nodes = iter(nodes)
    return tuple(_law(cuts, tuple(next(root_nodes) for _ in outcomes)) for cuts, outcomes in intercepts)


def _law(cuts: tuple, outcomes: tuple) -> tuple:
    """A law of :func:`~hbbqss.qstate._sample` as the scan reads it: with the
    number of words it reads."""
    return cuts, outcomes, 1 if cuts else 0


def _branch_nodes(probs: list, kids: list) -> list:
    """Each measured state's node: per basis bit, the law of the branch
    taken, over the kids laid out as :func:`~hbbqss.qstate._measure_stack`
    lays out the branches, four per state."""
    return [
        tuple(
            _law(*_two_way(p_plus, kids[4 * m + 2 * bit], kids[4 * m + 2 * bit + 1]))
            for bit, (p_plus, _) in enumerate(member)
        )
        for m, member in enumerate(probs)
    ]


def _round_end(bases, out_a: Outcome, out_b: Outcome, laws) -> tuple:
    """The end of a round whose bases and whose Alice and Bob outcomes are
    drawn: a discarded round's leaf, or a sifted round's pair (the law of a
    check round's leaf, the law of a key round's leaf). ``laws`` holds a
    sifted round's laws of Charlie's announcement and of the reconstructed
    key bit; None marks a discarded round."""
    if laws is None:
        return (_ROW_INDEX[bases, out_a, out_b, None, Role.DISCARDED], None, 0, 0)
    (check_cuts, announcements), (key_cuts, guesses) = laws
    checks = []
    for announced in announcements:
        row = _ROW_INDEX[bases, out_a, out_b, announced, Role.CHECK]
        checks.append((row, None, 1, int(not _ROWS[row][6])))
    key_row = _ROW_INDEX[bases, out_a, out_b, None, Role.KEY]
    keys = [(key_row, (out_a.bit, guess), 0, 0) for guess in guesses]
    return _law(check_cuts, tuple(checks)), _law(key_cuts, tuple(keys))


def _validate_intercepted(state: StateVector, strategy: AttackStrategy) -> None:
    if not isinstance(state, StateVector):
        raise SessionAbort(f"intercept returned {state!r}, not a StateVector")
    if state.labels != ("A", "B", "C", "E"):
        raise SessionAbort(f"intercept returned registers {state.labels}")
    if state.dims != (2, 2, 2, strategy.ancilla_dim):
        raise SessionAbort(f"intercept returned register dims {state.dims}")
    # the rule measurement applies, so a state passing here is measurable
    if _unmeasurable(state.norm):
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
    """Each round's row as ``write_row`` writes its ``_round_row`` dict: the
    template of its row index (see :func:`_templates`) around its id."""
    heads, tails = _templates(write_row)
    return [f"{heads[k]}{r}{tails[k]}" for r, k in enumerate(t.rounds.rows)]


@functools.cache
def _templates(write_row) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The text of each row of ``_ROWS`` as ``write_row`` writes it, split
    around the id: written once per process and writer, with ``_ID_SLOT`` as
    the id."""
    texts = [write_row(_round_row(RoundRecord(_ID_SLOT, *row))).split(str(_ID_SLOT)) for row in _ROWS]
    return tuple(head for head, _ in texts), tuple(tail for _, tail in texts)


def _json_row(row: dict) -> str:
    """``row`` as ``json.dumps(..., sort_keys=True, indent=2)`` lays it out inside the rounds list."""
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
