"""Built-in desk-scale problem instances with certified YES/NO labels.

YES fixtures ship a traversal certificate that is replayed through the exact
energy and distance checks.  NO fixtures are *gate-set restricted*: the label
is certified by exhaustive search over all ``len(gate_set)^m`` sequences, and
no claim is made about traversals outside the frozen gate set or beyond
brute-forceable sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .instances import (
    ENERGY_FLOOR,
    GsconInstance,
    HamiltonianTerm,
    TraversalCertificate,
    energy_of,
    gate_cnot,
    gate_givens00_11,
    gate_h,
    gate_i,
    gate_ry,
    gate_x,
    gate_xx,
    gate_y,
    gate_z,
    prepare_state_from_circuit,
)
from .states import apply_local_gate, phase_optimized_distance

BRUTE_FORCE_CAP = 10**6
PROMISE_TOL = 1e-9  # slack for replayed-certificate and brute-force comparisons


@dataclass(frozen=True)
class Fixture:
    name: str
    instance: GsconInstance
    certificate: TraversalCertificate | None  # None marks a NO fixture
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
    return Fixture("idle", inst, TraversalCertificate((0,)), "m=1 with psi=phi; the identity certificate")


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
    return Fixture("bell-flip", inst, TraversalCertificate((3,)), "|00> -> |11> in one two-qubit flip")


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
    return Fixture(
        "bell-stepwise",
        inst,
        TraversalCertificate((0, 0)),
        "|00> -> |11> through the entangled midpoint, two quarter turns",
    )


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
    return Fixture(
        "tilted-target",
        inst,
        TraversalCertificate((0,)),
        "honest endpoint sits exactly eta3 away from the target state",
    )


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


def verify_certificate(inst: GsconInstance, cert: TraversalCertificate) -> CertificateReplay:
    """Replay a certificate through the exact energy and distance checks."""
    if len(cert.gates) != inst.m:
        raise ValueError(f"certificate length {len(cert.gates)} != m = {inst.m}")
    state = prepare_state_from_circuit(inst, "psi")
    phi = prepare_state_from_circuit(inst, "phi")
    worst = 0.0
    for idx in cert.gates:
        state = apply_local_gate(state, inst.gate_set[idx], 0)
        worst = max(worst, energy_of(inst, state))
    dist = phase_optimized_distance(state, phi)
    ok = worst <= ENERGY_FLOOR and dist <= inst.eta3 + PROMISE_TOL
    return CertificateReplay(worst, dist, ok)


@dataclass(frozen=True)
class BruteForceResult:
    certified_no: bool
    sequences_checked: int
    counterexample: tuple[int, ...] | None


def brute_force_no_check(inst: GsconInstance, cap: int = BRUTE_FORCE_CAP) -> BruteForceResult:
    """Exhaust all gate-set sequences of length m against the NO promise.

    The NO label is certified when no sequence keeps every intermediate
    energy below eta2 while ending closer than eta4 to the target state.
    Comparisons carry a 1e-9 slack so the certification cannot hinge on
    floating-point dust.
    """
    n_gates = len(inst.gate_set)
    total = n_gates**inst.m
    if total > cap:
        raise ValueError(f"{total} sequences exceed the brute-force cap {cap}")
    psi = prepare_state_from_circuit(inst, "psi")
    phi = prepare_state_from_circuit(inst, "phi")
    for seq in product(range(n_gates), repeat=inst.m):
        state = psi
        low = True
        for idx in seq:
            state = apply_local_gate(state, inst.gate_set[idx], 0)
            if energy_of(inst, state) >= inst.eta2 - PROMISE_TOL:
                low = False
                break
        if low and phase_optimized_distance(state, phi) < inst.eta4 - PROMISE_TOL:
            return BruteForceResult(False, total, seq)
    return BruteForceResult(True, total, None)


# ---------------------------------------------------------------------------
# synthetic threshold grid for ledger property checks
# ---------------------------------------------------------------------------


def threshold_grid(
    ms=(1, 2, 3, 4),
    gate_counts=(4, 6, 8, 10),
    deltas=(0.1, 0.15, 0.2, 0.25),
) -> list[GsconInstance]:
    """A family of valid instances spanning (m, G, delta) one axis at a time.

    Used to probe how the derived thresholds move with each parameter; the
    traversal content is trivial (psi = phi = |0>) since only the ledger
    inputs matter.
    """
    out = []

    def build(m, n_gates, delta):
        gates = [gate_i(0), gate_x(0)]
        k = 1
        while len(gates) < n_gates:
            gates.append(gate_ry(0.1 * k, 0))
            gates.append(gate_ry(-0.1 * k, 0))
            k += 1
        return GsconInstance(
            n=1,
            m=m,
            terms=(HamiltonianTerm(_proj(1, 2), (0,)),),
            eta2=2.0 * delta,
            eta3=0.25,
            eta4=0.25 + 2.0 * delta,
            delta=delta,
            psi_circuit=(),
            phi_circuit=(),
            gate_set=tuple(gates[:n_gates]),
        )

    for m in ms:
        out.append(build(m, gate_counts[0], deltas[-1]))
    for n_gates in gate_counts:
        out.append(build(ms[0], n_gates, deltas[-1]))
    for delta in deltas:
        out.append(build(ms[0], gate_counts[0], delta))
    return out
