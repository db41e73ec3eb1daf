"""Built-in desk-scale problem instances with certified YES/NO labels.

YES fixtures ship a traversal certificate that is replayed through the exact
energy and distance checks (:func:`verify_certificate`).  NO fixtures are
*gate-set restricted*: the test suite certifies each label by exhaustive
search over all ``len(gate_set)^m`` sequences, and no claim is made about
traversals outside the frozen gate set or beyond brute-forceable sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import (
    ENERGY_FLOOR,
    GsconInstance,
    HamiltonianTerm,
    energy_of,
    gate_cnot,
    gate_givens00_11,
    gate_h,
    gate_i,
    gate_indices,
    gate_ry,
    gate_x,
    gate_xx,
    gate_y,
    gate_z,
    prepare_state_from_circuit,
)
from .states import apply_local_gate, phase_optimized_distance

PROMISE_TOL = 1e-9  # slack for replayed-certificate and brute-force comparisons


@dataclass(frozen=True)
class Fixture:
    name: str
    instance: GsconInstance
    certificate: tuple[int, ...] | None  # None marks a NO fixture
    note: str = ""

    @property
    def expected(self) -> str:
        return "YES" if self.certificate is not None else "NO"


def _proj(ket: int, dim: int) -> np.ndarray:
    m = np.zeros((dim, dim))
    m[ket, ket] = 1.0
    return m


def _fixture_idle() -> Fixture:
    inst = GsconInstance(
        n=1,
        m=1,
        terms=(HamiltonianTerm(_proj(1, 2), (0,)),),
        eta2=0.5,
        eta3=0.25,
        eta4=0.75,
        delta=0.25,
        psi_circuit=(),
        phi_circuit=(),
        gate_set=(gate_i(0), gate_x(0), gate_h(0), gate_z(0)),
    )
    return Fixture("idle", inst, (0,), "m=1 with psi=phi; the identity certificate")


def _fixture_bell_flip() -> Fixture:
    terms = (
        HamiltonianTerm(_proj(1, 4), (0, 1)),  # penalize |01>
        HamiltonianTerm(_proj(2, 4), (0, 1)),  # penalize |10>
    )
    gate_set = (gate_i(0), gate_x(0), gate_x(1), gate_xx(0, 1), gate_cnot(0, 1), gate_h(0))
    inst = GsconInstance(
        n=2,
        m=1,
        terms=terms,
        eta2=0.5,
        eta3=0.25,
        eta4=0.75,
        delta=0.25,
        psi_circuit=(),
        phi_circuit=(gate_x(0), gate_x(1)),
        gate_set=gate_set,
    )
    return Fixture("bell-flip", inst, (3,), "|00> -> |11> in one two-qubit flip")


def _fixture_bell_stepwise() -> Fixture:
    terms = (
        HamiltonianTerm(_proj(1, 4), (0, 1)),
        HamiltonianTerm(_proj(2, 4), (0, 1)),
    )
    quarter = math.pi / 4.0
    gate_set = (
        gate_givens00_11(quarter, 0, 1),
        gate_givens00_11(-quarter, 0, 1),
        gate_xx(0, 1),
        gate_cnot(0, 1),
        gate_x(0),
        gate_x(1),
    )
    inst = GsconInstance(
        n=2,
        m=2,
        terms=terms,
        eta2=0.5,
        eta3=0.25,
        eta4=0.75,
        delta=0.25,
        psi_circuit=(),
        phi_circuit=(gate_x(0), gate_x(1)),
        gate_set=gate_set,
    )
    return Fixture("bell-stepwise", inst, (0, 0), "|00> -> |11> through the entangled midpoint, two quarter turns")


def _fixture_tilted_target() -> Fixture:
    eta3 = 0.25
    b = 0.3
    a = b + 2.0 * math.asin(eta3 / 2.0)  # honest endpoint lands exactly eta3 from phi
    gate_set = (gate_ry(2 * b, 0), gate_ry(-2 * b, 0), gate_x(0), gate_h(0))
    inst = GsconInstance(
        n=2,
        m=1,
        terms=(HamiltonianTerm(_proj(1, 2), (1,)),),
        eta2=0.5,
        eta3=eta3,
        eta4=0.75,
        delta=0.25,
        psi_circuit=(),
        phi_circuit=(gate_ry(2 * a, 0),),
        gate_set=gate_set,
    )
    return Fixture("tilted-target", inst, (0,), "honest endpoint sits exactly eta3 away from the target state")


def _fixture_blocked_bell() -> Fixture:
    terms = (
        HamiltonianTerm(_proj(1, 4), (0, 1)),
        HamiltonianTerm(_proj(2, 4), (0, 1)),
    )
    gate_set = (gate_x(0), gate_x(1), gate_h(0), gate_h(1), gate_cnot(0, 1))
    inst = GsconInstance(
        n=2,
        m=2,
        terms=terms,
        eta2=0.4,
        eta3=0.25,
        eta4=0.75,
        delta=0.25,
        psi_circuit=(),
        phi_circuit=(gate_x(0), gate_x(1)),
        gate_set=gate_set,
    )
    return Fixture("blocked-bell", inst, None, "no low-energy route to |11> inside this gate set")


def _fixture_blocked_qubit() -> Fixture:
    inst = GsconInstance(
        n=1,
        m=2,
        terms=(HamiltonianTerm(_proj(1, 2), (0,)),),
        eta2=0.4,
        eta3=0.2,
        eta4=0.6,
        delta=0.25,
        psi_circuit=(),
        phi_circuit=(),
        gate_set=(gate_x(0), gate_h(0), gate_y(0)),
    )
    return Fixture("blocked-qubit", inst, None, "every available gate kicks |0> out of the ground space")


def builtin_instances() -> tuple[Fixture, ...]:
    """All built-in fixtures, YES ones first."""
    return (
        _fixture_idle(),
        _fixture_bell_flip(),
        _fixture_bell_stepwise(),
        _fixture_tilted_target(),
        _fixture_blocked_bell(),
        _fixture_blocked_qubit(),
    )


def get_fixture(name: str) -> Fixture:
    for fx in builtin_instances():
        if fx.name == name:
            return fx
    raise KeyError(f"unknown fixture {name!r}; available: {[f.name for f in builtin_instances()]}")


# ---------------------------------------------------------------------------
# label certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateReplay:
    max_intermediate_energy: float
    final_distance: float
    ok: bool


def verify_certificate(inst: GsconInstance, cert: tuple[int, ...]) -> CertificateReplay:
    """Replay a checked certificate through the exact energy and distance checks."""
    cert = gate_indices(inst, cert)
    state = prepare_state_from_circuit(inst, "psi")
    phi = prepare_state_from_circuit(inst, "phi")
    worst = 0.0
    for idx in cert:
        state = apply_local_gate(state, inst.gate_set[idx], 0)
        worst = max(worst, energy_of(inst, state))
    dist = phase_optimized_distance(state, phi)
    ok = worst <= ENERGY_FLOOR and dist <= inst.eta3 + PROMISE_TOL
    return CertificateReplay(worst, dist, ok)
