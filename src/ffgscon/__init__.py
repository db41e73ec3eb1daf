"""Exact desk-scale simulator of an unentangled-proof verification protocol
for frustration-free ground state connectivity.

The package builds honest and adversarial proof states, runs the verifier's
eight tests in exact-probability and counter-based sampled modes, derives the
full threshold ledger in extended precision, and certifies the completeness
and soundness margins empirically on built-in fixtures.
"""

from .instances import (
    GsconInstance,
    HamiltonianTerm,
    energy_of,
    gate_indices,
    load_instance,
    prepare_state_from_circuit,
    save_instance,
    validate_instance,
)
from .fixtures import Fixture, builtin_instances, get_fixture, verify_certificate
from .harness import ExperimentConfig, RunReport, emit_report, run_lemma_suite, run_monte_carlo
from .ledger import ParameterLedger, Qma2Tuning, derive_parameters, qma2_tuning
from .rng import CounterStream
from .states import (
    LocalGate,
    RegisteredState,
    apply_local_gate,
    phase_optimized_distance,
    precision,
    project_onto,
    swap_test_reject_prob,
    tensor_with,
)
from .verifier import TestOutcome, run_protocol_round, run_test
from .witnesses import (
    AdversaryKind,
    AdversarySpec,
    Proof,
    apply_W,
    build_honest_S,
    build_honest_U,
    forge_adversary,
    honest_gate_assignment,
)

__version__ = "0.1.0"
