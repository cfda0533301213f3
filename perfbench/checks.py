"""Output checks computed apart from the program under test.

Nothing here imports ``hbbqss``: the GHZ correlation table, sifting, the
conditional attacker states, Helstrom errors and the spec flags are all
recomputed with plain numpy from the definitions (Hillery-Buzek-Berthiaume,
PRA 59, 1829 (1999)), so a fault in the program cannot hide in a shared
helper. Every check raises :class:`CheckError` with the first violation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from itertools import product

import numpy as np

#: Tolerance the program applies to its boolean flags (``attack.DEFAULT_TOL``).
FLAG_TOL = 1e-9

#: Agreement demanded between the program's numbers and the ones recomputed here.
NUM_TOL = 1e-9

#: A flag's deciding quantity must sit this many times below or above
#: FLAG_TOL for a generated spec to count as off the boundary.
BOUNDARY_MARGIN = 10.0

_R = 1.0 / math.sqrt(2.0)
KETS = {
    "x": (np.array([_R, _R], dtype=complex), np.array([_R, -_R], dtype=complex)),
    "y": (np.array([_R, 1j * _R], dtype=complex), np.array([_R, -1j * _R], dtype=complex)),
}
CASE_KEYS = ("xx", "xy", "yx", "yy")
SAME = ((0, 0), (1, 1))
DIFF = ((0, 1), (1, 0))
CSV_COLUMNS = [
    "round_id", "basis_a", "basis_b", "basis_c", "sifted", "role",
    "outcome_a", "outcome_b", "announced_c", "consistent",
]
SWEEP_COLUMNS = ["c", "s", "pe_closed", "pe_numeric", "info", "max_residual"]


class CheckError(AssertionError):
    """A program output disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def sifts(ba: str, bb: str, bc: str) -> bool:
    """A round is kept iff an odd number of the three parties chose x."""
    return (ba, bb, bc).count("x") % 2 == 1


def _derive_ghz_table() -> dict[tuple[str, str], str]:
    """Charlie's certain outcome given Alice's and Bob's, on sifted bases.

    Projects (|000> + |111>)/sqrt(2) onto Alice's and Bob's outcome kets and
    reads off which of Charlie's two kets carries the whole remaining weight.
    """
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[7] = _R
    psi = psi.reshape(2, 2, 2)
    table = {}
    for ba, bb, bc in product("xy", repeat=3):
        if not sifts(ba, bb, bc):
            continue
        for (sa, ka), (sb, kb) in product(zip("+-", KETS[ba]), zip("+-", KETS[bb])):
            rest = np.einsum("i,j,ijk->k", ka.conj(), kb.conj(), psi)
            probs = [abs(np.vdot(kc, rest)) ** 2 for kc in KETS[bc]]
            probs = np.array(probs) / sum(probs)
            winner = int(np.argmax(probs))
            if probs[winner] < 1.0 - 1e-12:
                raise RuntimeError(f"GHZ outcome of C is not certain for {ba}{sa},{bb}{sb}")
            table[(ba + sa, bb + sb)] = bc + "+-"[winner]
    return table


GHZ_TABLE = _derive_ghz_table()


def binary_info(pe: float) -> float:
    """1 - H2(pe): information about a bit read with error probability pe."""

    def xlog(x):
        return x * math.log2(x) if x > 0.0 else 0.0

    return 1.0 + xlog(pe) + xlog(1.0 - pe)


def bit_of(label: str) -> int:
    return 0 if label[1] == "+" else 1


def within_sigma(hits: int, n: int, p: float, k: float = 5.0) -> bool:
    """Whether hits/n lies within k binomial standard deviations of p."""
    if n == 0:
        return False
    sd = math.sqrt(p * (1.0 - p) / n)
    return abs(hits / n - p) <= k * sd


# ---------------------------------------------------------------------------
# sessions


@dataclass
class SessionTally:
    """Counts from one transcript that the per-run checks aggregate."""

    checks: int = 0
    check_errors: int = 0
    key_rounds: int = 0
    key_disagree: int = 0


def _csv_value(text: str):
    if text == "":
        return None
    if text in ("True", "False"):
        return text == "True"
    return text


def parse_transcript(text: str, fmt: str) -> tuple[dict | None, list[dict]]:
    """(header fields or None for CSV, rows as dicts of JSON-typed values)."""
    if fmt == "json":
        doc = json.loads(text)
        return doc, doc["rounds"]
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    require(header == CSV_COLUMNS, f"CSV header {header} != {CSV_COLUMNS}")
    rows = []
    for fields in reader:
        row = {c: _csv_value(v) for c, v in zip(CSV_COLUMNS, fields)}
        row["round_id"] = int(row["round_id"])
        rows.append(row)
    return None, rows


def check_rounds(rows: list[dict], n_rounds: int) -> SessionTally:
    """Sifting, roles, outcome bases and consistency flags of every round."""
    require(len(rows) == n_rounds, f"{len(rows)} rounds written, {n_rounds} run")
    tally = SessionTally()
    for k, row in enumerate(rows):
        rid = row["round_id"]
        require(rid == k, f"round {k} carries round_id {rid}")
        ba, bb, bc = row["basis_a"], row["basis_b"], row["basis_c"]
        require({ba, bb, bc} <= {"x", "y"}, f"round {k}: bases {ba}{bb}{bc}")
        require(row["outcome_a"][0] == ba, f"round {k}: outcome_a {row['outcome_a']} not in {ba}")
        require(row["outcome_b"][0] == bb, f"round {k}: outcome_b {row['outcome_b']} not in {bb}")
        sifted = sifts(ba, bb, bc)
        require(row["sifted"] is sifted, f"round {k}: sifted={row['sifted']} for bases {ba}{bb}{bc}")
        role, announced, consistent = row["role"], row["announced_c"], row["consistent"]
        if not sifted:
            require(role == "discarded", f"round {k}: unsifted round has role {role}")
        else:
            require(role in ("check", "key"), f"round {k}: sifted round has role {role}")
        if role == "check":
            require(
                announced is not None and announced[0] == bc,
                f"round {k}: check announcement {announced} not in basis {bc}",
            )
            expected = announced == GHZ_TABLE[(row["outcome_a"], row["outcome_b"])]
            require(consistent is expected, f"round {k}: consistent={consistent}, GHZ table says {expected}")
            tally.checks += 1
            tally.check_errors += not expected
        else:
            require(announced is None, f"round {k}: {role} round announces {announced}")
            require(consistent is None, f"round {k}: {role} round has consistent={consistent}")
            tally.key_rounds += role == "key"
    return tally


_SUMMARY = re.compile(r"^error=(\S+) info=(\S+) rounds=(\d+) out=")


def check_session(
    text: str, fmt: str, stdout: str, kind: str, n_rounds: int, seed: int, check_fraction: float
) -> SessionTally:
    """Check one written transcript and the summary line of its run.

    ``kind`` is the attacker as the benchmark names it: ``none``,
    ``hbb-circuit``, ``spec-kki``, ``spec-family`` or ``intercept-resend``.
    """
    doc, rows = parse_transcript(text, fmt)
    tally = check_rounds(rows, n_rounds)
    match = _SUMMARY.match(stdout.strip())
    require(match is not None, f"unexpected summary line {stdout.strip()!r}")
    error_s, info_s, rounds_s = match.groups()
    require(int(rounds_s) == n_rounds, f"summary reports {rounds_s} rounds")
    require(tally.checks > 0, "transcript holds no check round")
    rate = tally.check_errors / tally.checks
    require(abs(float(error_s) - rate) <= 5.1e-5, f"summary error {error_s}, transcript says {rate:.6f}")
    if kind in ("none", "hbb-circuit", "spec-kki", "spec-family"):
        require(tally.check_errors == 0, f"{kind}: {tally.check_errors} check errors")
    if kind in ("hbb-circuit", "spec-kki"):
        require(info_s == "1.0000", f"{kind}: summary info {info_s}")
    if kind == "none":
        require(info_s == "n/a", f"honest session reports info {info_s}")
    if doc is None:
        return tally

    require(doc["n_rounds"] == n_rounds, f"n_rounds {doc['n_rounds']}")
    require(doc["seed"] == seed, f"seed {doc['seed']}, ran {seed}")
    require(doc["check_fraction"] == check_fraction, f"check_fraction {doc['check_fraction']}")
    require(abs(doc["check_error_rate"] - rate) <= 1e-11, f"check_error_rate {doc['check_error_rate']}")
    key = [bit_of(r["outcome_a"]) for r in rows if r["role"] == "key"]
    require(doc["key_alice"] == key, "key_alice differs from Alice's outcomes on key rounds")
    guesses = doc["attacker_key_guess"]
    if kind == "none":
        require(doc["attacker"] == "none" and guesses is None, "honest session records an attacker")
        require(doc["key_reconstructed"] == key, "honest reconstruction differs from Alice's key")
        return tally
    require(guesses is not None and len(guesses) == len(key), "attacker guesses missing or short")
    require(doc["key_reconstructed"] == guesses, "reconstructed key does not follow the guesses")
    tally.key_disagree = sum(g != k for g, k in zip(guesses, key))
    if kind in ("hbb-circuit", "spec-kki"):
        require(tally.key_disagree == 0, f"{kind}: {tally.key_disagree} wrong key guesses")
    if guesses:
        info = max(0.0, min(1.0, binary_info(tally.key_disagree / len(guesses))))
        require(abs(float(info_s) - info) <= 5.1e-5, f"summary info {info_s}, guesses give {info:.6f}")
    return tally


# ---------------------------------------------------------------------------
# attack specs


def spec_arrays(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """(2x2 amplitudes, 4 x 2d ancilla rows) from a spec document."""
    a = np.array([complex(re_, im) for re_, im in doc["a"]]).reshape(2, 2)
    eps = np.array([[complex(re_, im) for re_, im in row] for row in doc["eps"]])
    return a, eps


def _pairs(v) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def spec_doc(a: np.ndarray, eps: np.ndarray) -> dict:
    """A spec document holding every digit of the arrays."""
    return {"ancilla_dim": eps.shape[1] // 2, "a": _pairs(a.reshape(4)), "eps": [_pairs(r) for r in eps]}


def _branches(a, eps, case: str) -> dict[tuple[int, int], np.ndarray]:
    """Unnormalised C+E vectors left after Alice reads m and Bob reads n."""
    ka, kb = KETS[case[0]], KETS[case[1]]
    out = {}
    for m, n in product((0, 1), repeat=2):
        out[(m, n)] = sum(
            np.conj(ka[m][i]) * np.conj(kb[n][j]) * a[i, j] * eps[2 * i + j]
            for i, j in product((0, 1), repeat=2)
        )
    return out


def _helstrom(r1: np.ndarray, r2: np.ndarray) -> float:
    """Minimum error telling apart two prior-weighted mixtures."""
    return 0.5 - 0.5 * float(np.abs(np.linalg.eigvalsh(r1 - r2)).sum())


def _mix(vectors) -> np.ndarray:
    return sum(np.outer(v, v.conj()) for v in vectors)


@dataclass
class SpecFacts:
    """Everything the analysis checks need, computed from (a, eps) alone."""

    pe: dict[str, float]
    pe_announce: dict[str, float]
    max_residual: float
    max_overlap: float
    max_gap: float
    branch_defect: float
    pe_closed: float
    info_lo: float
    info_hi: float

    @property
    def escape(self) -> bool:
        return self.max_residual <= FLAG_TOL

    @property
    def nas(self) -> bool:
        return self.max_overlap <= FLAG_TOL and self.max_gap <= FLAG_TOL

    @property
    def realizable(self) -> bool:
        return self.branch_defect <= FLAG_TOL

    @property
    def near_perfect(self) -> bool:
        """Residual above tolerance, announcement error below it: the two
        routes the program compares on one linear scale disagree."""
        return not self.escape and max(self.pe_announce.values()) <= FLAG_TOL

    def off_boundary(self) -> bool:
        """Every flag's deciding quantity is far from FLAG_TOL."""
        quantities = (
            self.max_residual,
            max(self.pe_announce.values()),
            self.branch_defect,
            max(self.max_overlap, self.max_gap),
        )
        return all(
            q <= FLAG_TOL / BOUNDARY_MARGIN or q >= FLAG_TOL * BOUNDARY_MARGIN for q in quantities
        )

    @property
    def kind(self) -> str:
        if self.near_perfect:
            return "near-perfect"
        if self.nas:
            return "nas"
        return "escaping" if self.escape else "non-escaping"


def spec_facts(a: np.ndarray, eps: np.ndarray) -> SpecFacts:
    pe, pe_announce, residual = {}, {}, 0.0
    for case in CASE_KEYS:
        w = _branches(a, eps, case)
        pe[case] = _helstrom(_mix([w[0, 0], w[0, 1]]), _mix([w[1, 0], w[1, 1]]))
        pe_announce[case] = _helstrom(_mix([w[s] for s in SAME]), _mix([w[d] for d in DIFF]))
        for s, d in product(SAME, DIFF):
            ns, nd = np.linalg.norm(w[s]), np.linalg.norm(w[d])
            if (ns * nd) ** 2 > 1e-24:
                residual = max(residual, abs(np.vdot(w[s], w[d])) / (ns * nd))
    gram = eps.conj() @ eps.T
    overlap = float(np.abs(gram[~np.eye(4, dtype=bool)]).max())
    gap = float(np.abs(np.abs(a) - 0.5).max())
    v = [np.concatenate([a[i, 0] * eps[2 * i], a[i, 1] * eps[2 * i + 1]]) for i in (0, 1)]
    defect = max(
        abs(np.vdot(v[0], v[0]).real - 0.5), abs(np.vdot(v[1], v[1]).real - 0.5), abs(np.vdot(v[0], v[1]))
    )
    pes = [pe[c] for c in CASE_KEYS]
    return SpecFacts(
        pe=pe,
        pe_announce=pe_announce,
        max_residual=float(residual),
        max_overlap=overlap,
        max_gap=gap,
        branch_defect=float(defect),
        pe_closed=0.5 * (1.0 - 4.0 * abs(a[0, 0]) * abs(a[1, 0])),
        info_lo=binary_info(min(max(float(np.mean(pes)), 0.0), 1.0)),
        info_hi=float(np.mean([binary_info(min(max(p, 0.0), 1.0)) for p in pes])),
    )


def check_report(report: dict, facts: SpecFacts) -> None:
    """An ``analyze`` report against the facts of the spec it analysed."""
    for case in CASE_KEYS:
        got, want = report["pe_numeric"][case], facts.pe[case]
        require(abs(got - want) <= NUM_TOL, f"pe_numeric[{case}] {got!r}, eigvalsh gives {want!r}")
        got, want = report["pe_announce"][case], facts.pe_announce[case]
        require(abs(got - want) <= NUM_TOL, f"pe_announce[{case}] {got!r}, eigvalsh gives {want!r}")
    for flag, want in (("escape_ok", facts.escape), ("nas_ok", facts.nas), ("realizable", facts.realizable)):
        require(report[flag] is want, f"{flag}={report[flag]}, expected {want}")
    if facts.escape:
        got = report["pe_closed_form"]
        require(
            got is not None and abs(got - facts.pe_closed) <= NUM_TOL,
            f"pe_closed_form {got!r}, (1 - 4|a00||a10|)/2 = {facts.pe_closed!r}",
        )
    else:
        require(report["pe_closed_form"] is None, "pe_closed_form given for a detectable spec")
    info = report["info"]
    require(
        facts.info_lo - NUM_TOL <= info <= facts.info_hi + NUM_TOL,
        f"info {info!r} outside [I(mean pe), mean I(pe)] = [{facts.info_lo!r}, {facts.info_hi!r}]",
    )
    if facts.nas:
        require(abs(info - 1.0) <= NUM_TOL, f"NAS spec reports info {info!r}")


# ---------------------------------------------------------------------------
# optimizer and sweep


def check_optimize(doc: dict) -> None:
    require(doc["converged"] is True, "optimizer did not converge")
    best = doc["best_info"]
    require(abs(best - 1.0) <= 1e-6, f"best_info {best!r}")
    c, s = doc["best_point"]["c"], doc["best_point"]["s"]
    require(abs(c - 0.5) <= 1e-3, f"best c {c!r}")
    require(abs(s - math.sqrt(0.5 - c * c)) <= NUM_TOL, f"best s {s!r} != sqrt(1/2 - c^2)")
    trace = doc["trace"]
    require(len(trace) > 0, "empty optimizer trace")
    for k, (i, v) in enumerate(trace):
        require(i == k + 1, f"trace entry {k} numbered {i}")
        require(k == 0 or v >= trace[k - 1][1], f"trace decreases at evaluation {i}")
    require(trace[-1][1] == best, f"trace ends at {trace[-1][1]!r}, best_info {best!r}")


def check_sweep(text: str, grid: int) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    require(rows and rows[0] == SWEEP_COLUMNS, f"sweep header {rows[:1]}")
    body = [[float(x) for x in r] for r in rows[1:]]
    require(len(body) == grid + 1, f"{len(body)} sweep rows for grid {grid} plus c = 1/2")
    # Recompute from the grid's own c values: printed with 12 digits, the
    # c = 1/sqrt(2) endpoint leaves sqrt(1/2 - c^2) ill-conditioned.
    expected = sorted([k / (grid - 1) * _R for k in range(grid)] + [0.5])
    half = 0
    for (c_out, s, pe_closed, pe_numeric, info, residual), c in zip(body, expected):
        require(abs(c_out - c) <= 1e-11, f"sweep c {c_out!r}, expected {c!r}")
        s_want = math.sqrt(max(0.5 - c * c, 0.0))
        require(abs(s - s_want) <= NUM_TOL, f"row c={c}: s {s!r}, expected {s_want!r}")
        pe = 0.5 * (1.0 - 4.0 * c * s_want)
        require(abs(pe_closed - pe) <= NUM_TOL, f"row c={c}: pe_closed {pe_closed!r}, expected {pe!r}")
        require(abs(pe_numeric - pe) <= NUM_TOL, f"row c={c}: pe_numeric {pe_numeric!r}, expected {pe!r}")
        require(abs(info - binary_info(pe)) <= NUM_TOL, f"row c={c}: info {info!r} != I(pe)")
        require(residual <= FLAG_TOL, f"row c={c}: detection residual {residual!r}")
        if c == 0.5:
            half += 1
            require(abs(info - 1.0) <= NUM_TOL, f"c = 1/2 row has info {info!r}")
    require(half == 1, f"{half} rows at c = 1/2")
