"""Honest and adversarial proof states for the verification protocol.

A :class:`Proof` holds two copies of each of two states.  Honest provers
hand over a label/gate superposition listing a cyclic sequence of 2m gates
(the second half the adjoints of the first, in reverse), and a label/data
superposition of the 2m traversal states threaded by those gates.  The
honest state is a fixed point of the shift-and-gate unitary
``W: |i>|x> -> |i+1> U_i|x>``.

Adversaries are *analytic*: each kind writes amplitudes directly so that it
violates exactly one structural property by a requested magnitude, and
reports the deviation it actually achieved (measured from the constructed
states, never assumed).  No optimization over cheating strategies is
attempted, and no choice is random: a forge reads only its base proof and
the spec's kind and magnitude, and refuses a base that records no
certificate.  Magnitudes at the protocol's native thresholds are far below
double-precision resolution of an O(1) amplitude, so every construction can
also be built on extended-precision amplitudes (``extended=True``), carried
as mpmath object arrays at :data:`~ffgscon.states.WITNESS_DPS` significant
digits.  The honest builders take that choice as their ``extended`` keyword,
:func:`forge_adversary` reads it (and the certificate) off its base proof,
and each opens one :func:`~ffgscon.states.precision` block on it that every
amplitude reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .instances import GsconInstance, adjoint_index, dense_hamiltonian, energy_of, gate_indices, prepare_state_from_circuit
from .states import (
    RegisteredState,
    ShapeMismatchError,
    _sqrt,
    apply_local_gate,
    conditional_state,
    phase_optimized_distance,
    precision,
    uniform_vector,
    zeros,
)


class GateSetNotClosedError(ValueError):
    """The gate set lacks an adjoint needed to encode the return half."""


class MagnitudeRangeError(ValueError):
    """Requested adversary magnitude is outside its representable range."""


class AdversaryKind(Enum):
    MISMATCHED_U = "MISMATCHED_U"
    SMEARED_GATE = "SMEARED_GATE"
    NONUNIFORM_LABELS = "NONUNIFORM_LABELS"
    INCONSISTENT_S = "INCONSISTENT_S"
    BROKEN_SEQUENCE = "BROKEN_SEQUENCE"
    WRONG_START = "WRONG_START"
    WRONG_END = "WRONG_END"
    HIGH_ENERGY = "HIGH_ENERGY"


TARGETED_TEST = {
    AdversaryKind.MISMATCHED_U: 1,
    AdversaryKind.SMEARED_GATE: 2,
    AdversaryKind.NONUNIFORM_LABELS: 3,
    AdversaryKind.INCONSISTENT_S: 4,
    AdversaryKind.BROKEN_SEQUENCE: 5,
    AdversaryKind.WRONG_START: 6,
    AdversaryKind.WRONG_END: 7,
    AdversaryKind.HIGH_ENERGY: 8,
}


@dataclass(frozen=True)
class AdversarySpec:
    """One targeted deviation: a kind, checked when the spec is built, and a magnitude.

    ``magnitude`` semantics per kind:

    * MISMATCHED_U: gap between the two copies' label/gate outcome
      probabilities at one cell, in (0, 1/(2m)].
    * SMEARED_GATE: pair ``(x, c)`` - one label holds probability x while its
      gate register spreads mass c off the dominant gate.
    * NONUNIFORM_LABELS: f, one label probability off uniform by f/m.
    * INCONSISTENT_S: z, squared norm of the per-label difference between the
      two sequence copies at one label, in (0, 2/m].
    * BROKEN_SEQUENCE: z, squared per-label mismatch between the shifted
      sequence and its copy across one broken link, in (0, 2/m].
    * WRONG_START / WRONG_END: phase-optimized distance of the claimed start
      (end) state from the instance's start (target) state, in (0, sqrt(2)].
    * HIGH_ENERGY: energy planted on one sequence entry, within the spectrum.
    """

    kind: AdversaryKind
    magnitude: float | tuple

    def __post_init__(self):
        if not isinstance(self.kind, AdversaryKind):
            raise ValueError(f"adversary kind must be an AdversaryKind, got {self.kind!r}")


@dataclass(frozen=True)
class Proof:
    """The two-copy unentangled proof: four amplitude tensors at one precision.

    U and U' are label/gate states on layout (2m, G); S and S' are label/data
    states on layout (2m, 2, ..., 2).  All four are double or all four are
    extended.  ``certificate`` is the tuple of gate indices the honest parts
    encode; a proof built directly from states records None, and
    :func:`forge_adversary` refuses it as a base.  A
    forged proof also carries the :class:`AdversarySpec` it plants and the
    deviation measured from its states.  ``plans`` memoizes the verifier's
    branch plans of this proof (see :func:`ffgscon.verifier.branch_plan`); it
    is no init argument, so :func:`dataclasses.replace` starts a new proof
    with an empty cache.
    """

    u: RegisteredState
    u_prime: RegisteredState
    s: RegisteredState
    s_prime: RegisteredState
    certificate: tuple[int, ...] | None = None
    spec: AdversarySpec | None = None
    measured_deviation: object = None
    plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len({w.extended for w in (self.u, self.u_prime, self.s, self.s_prime)}) != 1:
            raise ShapeMismatchError("witnesses must share one precision level")

    @property
    def extended(self) -> bool:
        return self.u.extended

    @property
    def targeted_test(self) -> int | None:
        return None if self.spec is None else TARGETED_TEST[self.spec.kind]


# ---------------------------------------------------------------------------
# honest constructions
# ---------------------------------------------------------------------------


def honest_gate_assignment(inst: GsconInstance, cert: tuple[int, ...]) -> tuple[int, ...]:
    """The 2m gate indices: the checked certificate, then its reversed adjoints."""
    cert = gate_indices(inst, cert)
    back = []
    for idx in reversed(cert):
        adj = adjoint_index(inst.gate_set, idx)
        if adj is None:
            raise GateSetNotClosedError(
                f"gate set has no adjoint for gate {idx} ({inst.gate_set[idx].name!r}); extend the set first"
            )
        back.append(adj)
    return cert + tuple(back)


def build_honest_U(inst: GsconInstance, cert: tuple[int, ...], *, extended: bool = False) -> RegisteredState:
    """The label/gate state: label i holds gate i of the honest assignment, at amplitude 1/sqrt(2m)."""
    assignment = honest_gate_assignment(inst, cert)
    two_m = 2 * inst.m
    with precision(extended) as num:
        amps = zeros((two_m, inst.G))
        amp = _sqrt(num(1) / two_m)
    for i, u in enumerate(assignment):
        amps[i, u] = amp
    return RegisteredState(amps)


def build_honest_S(inst: GsconInstance, cert: tuple[int, ...], *, extended: bool = False) -> RegisteredState:
    """The cyclic chain psi_1, ..., psi_2m threaded by the honest gates, at amplitude 1/sqrt(2m) per label."""
    with precision(extended) as num:
        chain = [prepare_state_from_circuit(inst, "psi")]
        for idx in honest_gate_assignment(inst, cert)[:-1]:
            chain.append(apply_local_gate(chain[-1], inst.gate_set[idx], 0))
        amp = _sqrt(num(1) / len(chain))
        return RegisteredState(np.stack([psi.amplitudes * amp for psi in chain]))


def honest_proof(inst: GsconInstance, cert: tuple[int, ...] | None, *, extended: bool = False) -> Proof:
    """U' = U and S' = S, built on the checked certificate, which the proof records.

    Without a certificate it builds on the fixed ``(0,) * m``, so such an
    instance still gets a well-formed base to forge on; the deviations the
    adversaries plant do not rely on the base being a YES witness.
    """
    cert = gate_indices(inst, cert if cert is not None else (0,) * inst.m)
    u = build_honest_U(inst, cert, extended=extended)
    s = build_honest_S(inst, cert, extended=extended)
    return Proof(u, u, s, s, cert)


def apply_W(inst: GsconInstance, assignment, s: RegisteredState) -> RegisteredState:
    """The shift-and-gate unitary on a label/data state: |i>|x> -> |i+1> U_i|x>, cyclically."""
    assignment = gate_indices(inst, assignment, doubled=True)
    moved = [
        apply_local_gate(RegisteredState(piece, check=False), inst.gate_set[idx], 0).amplitudes
        for piece, idx in zip(s.amplitudes, assignment)
    ]
    return RegisteredState(np.roll(np.stack(moved), 1, axis=0), check=False)


# ---------------------------------------------------------------------------
# adversaries
# ---------------------------------------------------------------------------


def _orthogonal_state(psi: RegisteredState) -> RegisteredState:
    """A normalized state orthogonal to psi (data dimension >= 2)."""
    amps = psi.amplitudes.ravel()
    dim = amps.size
    j = int(np.argmin(np.abs(np.asarray(amps, dtype=np.complex128))))
    e = zeros(dim)
    e[j] = 1
    # e_j is psi's smallest-magnitude axis, so |<psi|e_j>|^2 <= 1/dim <= 1/2 and the residual keeps squared norm >= 1/2
    res = e - amps * (np.conj(amps) * e).sum()  # e_j - psi <psi|e_j>
    nrm2 = (np.abs(res) ** 2).sum()
    return RegisteredState((res / _sqrt(nrm2)).reshape(psi.dims), check=False)


def _rotate_toward(base: RegisteredState, cos_theta) -> RegisteredState:
    """cos(t) base + sin(t) base_perp with the requested cosine."""
    sin_theta = _sqrt(1 - cos_theta * cos_theta)
    perp = _orthogonal_state(base)
    return RegisteredState(base.amplitudes * cos_theta + perp.amplitudes * sin_theta, check=False)


def _replace_data_slice(s: RegisteredState, label_index: int, new_data: RegisteredState) -> RegisteredState:
    t = s.amplitudes.copy()
    weight = _sqrt((np.abs(t[label_index]) ** 2).sum())
    t[label_index] = new_data.amplitudes * weight
    return RegisteredState(t, check=False)


def forge_adversary(base: Proof, inst: GsconInstance, spec: AdversarySpec) -> Proof:
    """Plant ``spec`` on ``base``, at the base's precision and on its certificate: exactly one deviation.

    The witnesses the spec does not target stay as in ``base``, and the
    forged proof records the base's certificate; the returned
    ``measured_deviation`` is read back from the constructed states.  A
    base that records no certificate is refused: which gates its U holds
    is then unknown.
    """
    if base.certificate is None:
        raise ValueError("base proof records no certificate; build it with honest_proof, which records one")
    with precision(base.extended) as num:
        assignment = honest_gate_assignment(inst, base.certificate)
        two_m = 2 * inst.m
        one = num(1)
        u, u_prime, s, s_prime = base.u, base.u_prime, base.s, base.s_prime
        kind = spec.kind

        if kind is AdversaryKind.MISMATCHED_U:
            delta = num(spec.magnitude)
            if not 0 < delta <= 1.0 / two_m:
                raise MagnitudeRangeError(f"probability gap must lie in (0, 1/(2m)], got {float(delta)}")
            u0 = assignment[0]
            alt = _pick_other_index(u0, inst.G)
            amps = u.amplitudes.copy()
            amps[0, u0] = _sqrt(one / two_m - delta)
            amps[0, alt] = _sqrt(delta)
            u_prime = RegisteredState(amps, check=False)
            measured = np.abs(np.abs(u.amplitudes) ** 2 - np.abs(u_prime.amplitudes) ** 2).max()

        elif kind is AdversaryKind.SMEARED_GATE:
            x, c = (num(v) for v in spec.magnitude)
            if not (0 < x <= 1 and 0 < c < 1):
                raise MagnitudeRangeError(f"need 0 < x <= 1 and 0 < c < 1, got {(float(x), float(c))}")
            u0 = assignment[0]
            alt = _pick_other_index(u0, inst.G)
            amps = zeros((two_m, inst.G))
            amps[0, u0] = _sqrt(x * (1 - c))
            amps[0, alt] = _sqrt(x * c)
            rest = (one - x) / (two_m - 1)
            for i in range(1, two_m):
                amps[i, assignment[i]] = _sqrt(rest)
            u = u_prime = RegisteredState(amps, check=False)
            probs = np.abs(amps) ** 2
            label_mass = probs[0].sum()
            off = (label_mass - probs[0, u0]) / label_mass
            measured = (label_mass, off)

        elif kind is AdversaryKind.NONUNIFORM_LABELS:
            f = num(spec.magnitude)
            if not 0 < f <= (two_m - 1) / 2.0:
                raise MagnitudeRangeError(f"label skew must lie in (0, (2m-1)/2], got {float(f)}")
            boosted = one / two_m + f / inst.m
            others = one / two_m - f / (inst.m * (two_m - 1))
            gbar = uniform_vector(inst.G)
            amps = zeros((two_m, inst.G))
            amps[0] = gbar * _sqrt(boosted)
            for i in range(1, two_m):
                amps[i] = gbar * _sqrt(others)
            u = u_prime = RegisteredState(amps, check=False)
            label_probs = np.abs(amps) ** 2
            measured = inst.m * max(abs(label_probs[i].sum() - one / two_m) for i in range(two_m))

        elif kind is AdversaryKind.INCONSISTENT_S:
            z = num(spec.magnitude)
            if not 0 < z <= 2.0 / inst.m:
                raise MagnitudeRangeError(f"per-label defect must lie in (0, 2/m], got {float(z)}")
            _, psi0 = conditional_state(s, 0, 0)
            s_prime = _replace_data_slice(s_prime, 0, _rotate_toward(psi0, one - inst.m * z))
            measured = _max_slice_defect(s, s_prime)

        elif kind is AdversaryKind.BROKEN_SEQUENCE:
            z = num(spec.magnitude)
            if not 0 < z <= 2.0 / inst.m:
                raise MagnitudeRangeError(f"link defect must lie in (0, 2/m], got {float(z)}")
            _, psi1 = conditional_state(s, 0, 1)
            s = s_prime = _replace_data_slice(s, 1, _rotate_toward(psi1, one - inst.m * z))
            measured = _max_slice_defect(apply_W(inst, assignment, s), s_prime)

        elif kind in (AdversaryKind.WRONG_START, AdversaryKind.WRONG_END):
            w_req = num(spec.magnitude)
            if not 0 < w_req <= math.sqrt(2.0) + 1e-12:
                raise MagnitudeRangeError(f"distance must lie in (0, sqrt(2)], got {float(w_req)}")
            label = 0 if kind is AdversaryKind.WRONG_START else inst.m
            anchor = prepare_state_from_circuit(inst, "psi" if kind is AdversaryKind.WRONG_START else "phi")
            planted = _rotate_toward(anchor, one - w_req * w_req / 2)
            s = s_prime = _replace_data_slice(s, label, planted)
            _, got = conditional_state(s, 0, label)
            measured = phase_optimized_distance(got, anchor)

        elif kind is AdversaryKind.HIGH_ENERGY:
            energy = num(spec.magnitude)
            evals, evecs = np.linalg.eigh(dense_hamiltonian(inst))
            top = float(evals[-1])
            if not 0 <= float(energy) <= top + 1e-12:
                raise MagnitudeRangeError(f"energy must lie in [0, {top}], got {float(energy)}")
            if float(evals[0]) > 1e-10:
                raise MagnitudeRangeError("instance is not frustration-free; no zero-energy anchor")
            sin2 = energy / top
            # complex128 eigenvectors times an mpf scale are mpc object arrays
            mixed = evecs[:, 0] * _sqrt(one - sin2) + evecs[:, -1] * _sqrt(sin2)
            s = s_prime = _replace_data_slice(s, 0, RegisteredState(mixed.reshape((2,) * inst.n), check=False))
            _, got = conditional_state(s, 0, 0)
            measured = energy_of(inst, got)

        _check_measured(spec.magnitude, measured, kind)
        return Proof(u, u_prime, s, s_prime, base.certificate, spec, measured)


def _check_measured(requested, measured, kind):
    """Self-reporting honesty: achieved deviation within 1e-6 of the request.

    A request below the amplitude resolution of the chosen precision cannot
    be planted at all (the perturbed amplitude rounds back onto the honest
    one); that surfaces here with a pointer at the extended path.
    """
    req = requested if isinstance(requested, tuple) else (requested,)
    got = measured if isinstance(measured, tuple) else (measured,)
    for r_val, g_val in zip(req, got):
        diff = abs(g_val - r_val)  # native arithmetic: stays in mp for extended builds
        if diff > 1e-6 * abs(r_val):
            raise MagnitudeRangeError(
                f"{kind.value}: achieved deviation {float(g_val):.6e} is not within 1e-6 of the "
                f"requested {float(r_val):.6e}; magnitudes below double resolution need an extended base proof"
            )


def _pick_other_index(taken: int, dim: int) -> int:
    if dim < 2:
        raise MagnitudeRangeError("gate register of dimension 1 admits no mismatch")
    return (taken + 1) % dim


def _max_slice_defect(sa: RegisteredState, sb: RegisteredState):
    """max over labels of the squared norm of the per-label difference."""
    diff = np.abs(sa.amplitudes - sb.amplitudes) ** 2
    return max(row.sum() for row in diff)
