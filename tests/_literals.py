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
# ``--attacker spec``) and format. Equal seeds give these bytes in every
# version, not only within one.
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
}
