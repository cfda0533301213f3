"""Known-good states for the single-ancilla circuit attack, frozen as data.

The sixteen conditional attacker states (registers C, E) for each pair of
Alice/Bob outcomes, the detection-decoder outputs for the x,x case, and the
information-decoder outputs for the x,x case. Amplitude order |00>, |01>,
|10>, |11>.
"""

import math

import numpy as np

from hbbqss.attack import Case

_R = 1.0 / math.sqrt(2.0)
_I = 1.0j


def _half(*amps):
    return 0.5 * np.array(amps, dtype=complex)


def _bell(*amps):
    return _R * np.array(amps, dtype=complex)


# (case, alice sign, bob sign) -> conditional state of C, E
CASE_CONDITIONALS = {
    (Case.XX, "+", "+"): _half(1, 1, 1, -1),
    (Case.XX, "+", "-"): _half(1, -1, 1, 1),
    (Case.XX, "-", "+"): _half(1, 1, -1, 1),
    (Case.XX, "-", "-"): _half(1, -1, -1, -1),
    (Case.XY, "+", "+"): _half(1, -_I, 1, _I),
    (Case.XY, "+", "-"): _half(1, _I, 1, -_I),
    (Case.XY, "-", "+"): _half(1, -_I, -1, -_I),
    (Case.XY, "-", "-"): _half(1, _I, -1, _I),
    (Case.YX, "+", "+"): _half(1, 1, -_I, _I),
    (Case.YX, "+", "-"): _half(1, -1, -_I, -_I),
    (Case.YX, "-", "+"): _half(1, 1, _I, -_I),
    (Case.YX, "-", "-"): _half(1, -1, _I, _I),
    (Case.YY, "+", "+"): _half(1, -_I, -_I, 1),
    (Case.YY, "+", "-"): _half(1, _I, -_I, -1),
    (Case.YY, "-", "+"): _half(1, -_I, _I, -1),
    (Case.YY, "-", "-"): _half(1, _I, _I, 1),
}

# Detection circuit output for the x,x case (CNOT from C onto E, then the
# basis transform on C): Bell-type forms whose computational readout decides
# the announcement.
DETECTION_TARGETS_XX = {
    ("+", "+"): _bell(0, 1, 1, 0),
    ("+", "-"): _bell(1, 0, 0, -1),
    ("-", "+"): _bell(1, 0, 0, 1),
    ("-", "-"): _bell(0, -1, 1, 0),
}

# Information circuit output for the x,x case (basis transform on C only).
INFO_TARGETS_XX = {
    ("+", "+"): _bell(1, 0, 0, 1),
    ("+", "-"): _bell(1, 0, 0, -1),
    ("-", "+"): _bell(0, 1, 1, 0),
    ("-", "-"): _bell(0, -1, 1, 0),
}

# The four-qubit state (A, B, C, E) after the entangling circuit.
POST_INTERACTION = np.zeros(16, dtype=complex)
POST_INTERACTION[0b0000] = POST_INTERACTION[0b0101] = POST_INTERACTION[0b1010] = 0.5
POST_INTERACTION[0b1111] = -0.5

# SHA-256 of the transcript written by ``hbbqss simulate --seed 42 --rounds
# 2000``, per attacker (``kki`` and ``hbb_section4`` name the bundled spec of
# ``--attacker spec``; ``family-d2`` the generated spec of that name below,
# written as ``test_cli._save_spec_12`` writes it) and format. Equal seeds
# give these bytes in every version, not only within one.
SIMULATE_DIGESTS = {
    ("none", "json"): "ccb3ccf8da194c3f7009e4a51d04b63c29a8341578a2be3dc1fc96ddcd26a547",
    ("none", "csv"): "921c03d7b7e3622bd0ba4da732cf8564cbf7a9c39a620f302833f4359109175b",
    ("hbb-circuit", "json"): "96da1b64b9090b472960311879eb6dcdbc840b3f7aa1b619a215f518cf747f45",
    ("hbb-circuit", "csv"): "58acb951da8fd6db2fb04fcd25a05994b29258ead18e5ea54f6b95b037ac8bb0",
    ("intercept-resend", "json"): "3616c0a0d1249da9bcb9ce05a4885964f01c4da39db125ea66f8426d73d4f816",
    ("intercept-resend", "csv"): "d973e5ac3e184911955a8f6d3f80a91a1b33a7daac1be8b5b3f9af8a082e6042",
    ("kki", "json"): "1072a8978de4d0a5c56d4bd22084c2ccf1d8347ee143157d562a2d5c813c22f4",
    ("kki", "csv"): "5ce968dc83c948d9757208a62dfedea31f870e48835266548775111c8edd5879",
    ("hbb_section4", "json"): "1072a8978de4d0a5c56d4bd22084c2ccf1d8347ee143157d562a2d5c813c22f4",
    ("hbb_section4", "csv"): "5ce968dc83c948d9757208a62dfedea31f870e48835266548775111c8edd5879",
    ("family-d2", "json"): "5afdbe4e497a1ab4945b9c909d7c6b727c3f0b249f1e20d467189160cbb22d49",
    ("family-d2", "csv"): "3a2d0f65d83745dbfaa662c9d752d02c83a173af2d47bb6b639162426f400fa5",
}

# Generated specs frozen below by name: (kind, ancilla_dim, seed). A
# ``family`` spec is a random detection-passing point with orthonormal
# ancilla states, ``nas`` the same at c = 1/2, and ``random`` a spec with
# random amplitudes and ancilla states, which does not escape detection.
GENERATED_SPECS = {
    "family-d2": ("family", 2, 601),
    "family-d3": ("family", 3, 602),
    "family-d4": ("family", 4, 603),
    "nas-d2": ("nas", 2, 604),
    "nas-d4": ("nas", 4, 605),
    "random-d1": ("random", 1, 606),
    "random-d2": ("random", 2, 607),
    "random-d3": ("random", 3, 608),
    "random-d4": ("random", 4, 609),
}

# SHA-256 of the report ``hbbqss analyze`` writes for each bundled and
# generated spec, of the files written by ``sweep --grid 41``, ``sweep --grid
# 5000`` (79 stacked passes of ``attack.STACK_BOUND`` points) and ``optimize
# --restarts 4 --seed 42``, of the transcript of ``simulate --rounds 100000
# --attacker intercept-resend --seed 42 --format json`` (ids of five and six
# digits, and every one of the 64 rows a round can take), and of ``verify``'s
# stdout.
OUTPUT_DIGESTS = {
    "analyze honest": "0c197b7e970d257ee9a53da46f3ac772eb92f4d3ab463b5afcf7bb923d35a646",
    "analyze hbb_section4": "48bb9a00c690f4c644000a546440ce74e8993abcefa1c315789833d7f6d32fb0",
    "analyze kki": "48bb9a00c690f4c644000a546440ce74e8993abcefa1c315789833d7f6d32fb0",
    "analyze family-d2": "14887e402115a0ff1a1bfb786b112afc86ebe22d912d2bbe156512a0812a8377",
    "analyze family-d3": "14a7b63b0e0a3156ff347c451e8e6b8fd6759c1163af940391bfce5a15816d30",
    "analyze family-d4": "1b0c23b71d64589cf86123bb949b79dde216defb8b6281a6d9df1c7d06fda0ea",
    "analyze nas-d2": "c53dd166b0a98262a3bc6febcf293d59e004c50eab926857b3d803ecf3c4ff06",
    "analyze nas-d4": "f3b132cf94ad399580c495791a314052d3b7f2fe4a0ecfdb94314b08d7a7e5fa",
    "analyze random-d1": "41f7841d2c553379ff9926eeef3aea5441522e90429860b09c78871f7375c61f",
    "analyze random-d2": "045e43ae2cbda86d97418cb80970b15e55da189f7a0e9a935677a3cad33d4d2b",
    "analyze random-d3": "6cfe1628235b464bd420a86f6d56c871052afba3e4355d4be5ac27cd187d1234",
    "analyze random-d4": "2a5e72217af5842ccda909b8d88d70463dd1fb58e88a6c37d30f8f5c5dca5d06",
    "sweep --grid 41": "592427f03e1f57fa70bc1cbbb2875e0b7afce12ee3cb83e1fd50926ccaa61225",
    "sweep --grid 5000": "27689d13de89a75bc50e8ce00e6b6f81b382710c1313a5607e0bcc4b529f074d",
    "optimize --restarts 4 --seed 42": "19b7f97de0e88631cbf089f53b258e3ddd325efb18269b4defa365233527137c",
    "simulate --rounds 100000 --attacker intercept-resend --seed 42 --format json": (
        "4f74a1eb7fef4bc79aa9d475f1449acfaffaa014e00ba213ee5cb3f0b6372eb6"
    ),
    "verify": "d7a31622dc0e844afb28164383fcaa7768ba89f5fa17c5b990dffc64fcdb5f4d",
}

# SHA-256 of the float.hex of every AttackReport float and flag, of every
# case's conditional weights and states, and of HelstromAttack's eight
# projectors, over about 200 seeded specs (``test_attack._bit_specs``).
# The JSON digests above round to 12 digits; this one sees a one-ulp change.
ANALYSIS_BITS_DIGEST = "d7cf48ba53c1062c9e7259e8595da5c6fca381038aca86402bce10d8f18c8816"
# The platform the digest was recorded on (``test_attack._bits_platform``).
# Another numpy, BLAS build or CPU may round the last ulp of a BLAS product
# or a SIMD loop differently, so the digest is checked only here; the
# 12-digit digests and the one-vector reference comparison run everywhere.
ANALYSIS_BITS_PLATFORM = (
    "numpy 2.4.6; scipy-openblas 0.3.31.188.0; x86_64; SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
)

# SHA-256 of the float.hex of every search value, every escape flag and
# every checked information (phase probes and optimum) of every restart that
# ``optimizer.maximize(restarts=8)`` walks, followed by the run's trace, best
# c and converged flag, for the seeds 42, 7 and 1492956812
# (``test_optimizer._walk_bits``). Every ``optimize --restarts 2``
# run of the benchmark's seed pool writes one and the same file, so only
# this digest sees a change to the random-phase restarts.
WALK_DIGEST = "1a05104956d2636b2fe7cd7f4dba326ba3b5d91b166bbbf64c40db47d16a2f76"

# What a session leaves in a caller's generator: ``rng.random()`` and
# ``rng.integers(0, 2**32)`` (the latter reads a buffered high half) drawn
# right after ``run_session(300, 0.5, strategy, rng=default_rng(21))``, per
# attacker of ``test_hbb.BUILT_IN_ATTACKERS``, and after the circuit
# attacker's session that ``test_hbb.AbortingCircuit`` aborts at round 37
# with a half buffered. Equal seeds give these draws in every version.
SESSION_NEXT_DRAWS = {
    "none": (0.34374632157823637, 1984576161),
    "hbb-circuit": (0.40266435887010354, 2890486193),
    "intercept-resend": (0.8935540806357878, 1347887698),
    "spec-kki": (0.1622023469522621, 3719545654),
    "spec-family": (0.6369121866727558, 3769852062),
}
ABORTED_SESSION_NEXT_DRAWS = (0.2939430144993762, 274106230)

# SHA-256 of ``transcript_to_json`` of a 300-round, check fraction 0.5
# session with seed 21 against ``test_hbb.OffStreamProbe``, whose hooks also
# call ``rng.normal()`` and ``rng.integers(5)``.
OFF_STREAM_PROBE_DIGEST = "1849567e08e9f093ebfbb7cc82c987cc19b1b561e958933ba6b225d1429d2f27"

# The same digest of the circuit attacker's session on
# ``Generator(MT19937(7))``, and the generator's next draws as above.
MT19937_SESSION = (
    "c64996a22c9c45823272e87d3043be9968dee8433a095cabb7435260c322eb67",
    (0.9041918892658584, 717025356),
)
