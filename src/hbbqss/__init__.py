"""Cryptanalysis workbench for the HBB GHZ-state quantum secret-sharing protocol."""

from .attack import (
    AttackReport,
    AttackSpec,
    Case,
    analyze,
    conditional_states,
    detection_residuals,
    escape_check,
    global_state,
    helstrom,
    honest_spec,
    is_realizable,
    kki_spec,
    load_spec,
    mutual_information,
    nas_check,
    pe_closed_form,
    rho_pair,
    save_spec,
)
from .exploit import (
    CircuitAttack,
    HelstromAttack,
    InterceptResend,
    detection_decode,
    entangle_circuit,
    example_spec,
    full_attack_strategy,
    info_decode,
    intercept_resend_strategy,
    spec_attack_strategy,
)
from .hbb import (
    SessionTranscript,
    infer_alice,
    info_rate,
    run_session,
    sift,
    transcript_to_csv,
    transcript_to_json,
)
from .optimizer import AttackFamilyPoint, OptimizationResult, maximize, objective
from .qstate import Basis, Outcome, Sign, StateVector, basis_kets, ghz_state

__version__ = "0.1.0"
