"""Honest and adversarial proof states for the verification protocol.

Honest provers hand over two copies of each of two states: a label/gate
superposition listing a cyclic sequence of 2m gates (the second half the
adjoints of the first, in reverse), and a label/data superposition of the 2m
traversal states threaded by those gates.  The honest state is a fixed point
of the shift-and-gate unitary ``W: |i>|x> -> |i+1> U_i|x>``.

Adversaries are *analytic*: each kind writes amplitudes directly so that it
violates exactly one structural property by a requested magnitude, and
reports the deviation it actually achieved (measured from the constructed
states, never assumed).  No optimization over cheating strategies is
attempted.  Magnitudes at the protocol's native thresholds are far below
double-precision resolution of an O(1) amplitude, so every construction can
also be built on extended-precision amplitudes (``extended=True``), carried
as mpmath object arrays at :data:`WITNESS_DPS` significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import mpmath
import numpy as np

from .instances import GsconInstance, TraversalCertificate, adjoint_index, dense_hamiltonian, energy_of, prepare_state_from_circuit
from ._kernels import uniforms
from .rng import STREAM_USER
from .states import (
    RegisteredState,
    RegisterShape,
    apply_local_gate,
    conditional_state,
    phase_optimized_distance,
    uniform_vector,
    zeros_like_dtype,
)

WITNESS_DPS = 120  # digits carried by extended-precision witness amplitudes


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
    """One targeted deviation.

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
    seed: int | None = None


@dataclass(frozen=True)
class WitnessU:
    """Label/gate witness on layout (2m, G)."""

    state: RegisteredState

    @property
    def label_dim(self) -> int:
        return self.state.shape.dims[0]

    @property
    def gate_dim(self) -> int:
        return self.state.shape.dims[1]

    def outcome_probabilities(self) -> np.ndarray:
        """Joint label/gate computational-basis distribution."""
        return np.abs(self.state.as_tensor()) ** 2


@dataclass(frozen=True)
class WitnessS:
    """Label/data witness on layout (2m, 2, ..., 2)."""

    state: RegisteredState

    @property
    def label_dim(self) -> int:
        return self.state.shape.dims[0]


@dataclass(frozen=True)
class ForgedWitnesses:
    u: WitnessU
    u_prime: WitnessU
    s: WitnessS
    s_prime: WitnessS
    spec: AdversarySpec
    targeted_test: int
    measured_deviation: object
    description: str

    def as_tuple(self):
        return self.u, self.u_prime, self.s, self.s_prime


# ---------------------------------------------------------------------------
# honest constructions
# ---------------------------------------------------------------------------


def honest_gate_assignment(inst: GsconInstance, cert: TraversalCertificate) -> tuple[int, ...]:
    """The 2m gate indices: the certificate, then its reversed adjoints."""
    if len(cert.gates) != inst.m:
        raise ValueError(f"certificate length {len(cert.gates)} != m = {inst.m}")
    back = []
    for idx in reversed(cert.gates):
        adj = adjoint_index(inst.gate_set, idx)
        if adj is None:
            raise GateSetNotClosedError(
                f"gate set has no adjoint for gate {idx} ({inst.gate_set[idx].name!r}); extend the set first"
            )
        back.append(adj)
    return tuple(cert.gates) + tuple(back)


def _one(extended: bool):
    return mpmath.mpf(1) if extended else 1.0


def _sqrtv(x, extended: bool):
    return mpmath.sqrt(x) if extended else math.sqrt(x)


def build_honest_U(inst: GsconInstance, cert: TraversalCertificate, *, extended: bool = False) -> WitnessU:
    assignment = honest_gate_assignment(inst, cert)
    two_m = 2 * inst.m
    shape = RegisterShape((two_m, inst.G))
    amp = _sqrtv(_one(extended) / two_m, extended)
    amps = zeros_like_dtype(shape.size, extended).reshape(two_m, inst.G)
    for i, u in enumerate(assignment):
        amps[i, u] = amp
    return WitnessU(RegisteredState(shape, amps.ravel()))


def traversal_states(inst: GsconInstance, assignment, *, extended: bool = False) -> list[RegisteredState]:
    """The cyclic chain psi_1, ..., psi_2m threaded by the assignment."""
    states = [prepare_state_from_circuit(inst, "psi", extended=extended)]
    for idx in assignment[:-1]:
        states.append(apply_local_gate(states[-1], inst.gate_set[idx], 0))
    return states


def _s_from_chain(inst: GsconInstance, chain, *, extended: bool = False) -> WitnessS:
    two_m = 2 * inst.m
    shape = RegisterShape((two_m,) + (2,) * inst.n)
    amp = _sqrtv(_one(extended) / two_m, extended)
    amps = zeros_like_dtype(shape.size, extended).reshape((two_m,) + (2,) * inst.n)
    for i, psi in enumerate(chain):
        amps[i] = amp * psi.as_tensor()
    return WitnessS(RegisteredState(shape, amps.ravel()))


def build_honest_S(inst: GsconInstance, cert: TraversalCertificate, *, extended: bool = False) -> WitnessS:
    assignment = honest_gate_assignment(inst, cert)
    return _s_from_chain(inst, traversal_states(inst, assignment, extended=extended), extended=extended)


def apply_W(inst: GsconInstance, assignment, s: WitnessS) -> WitnessS:
    """The shift-and-gate unitary: |i>|x> -> |i+1> U_i|x>, cyclically."""
    two_m = 2 * inst.m
    if len(assignment) != two_m:
        raise ValueError(f"assignment must list {two_m} gates, got {len(assignment)}")
    t = s.state.as_tensor()
    out = np.empty_like(t) if not s.state.extended else zeros_like_dtype(t.size, True).reshape(t.shape)
    for i in range(two_m):
        piece = RegisteredState(RegisterShape((2,) * inst.n), t[i].ravel(), check=False)
        moved = apply_local_gate(piece, inst.gate_set[assignment[i]], 0)
        out[(i + 1) % two_m] = moved.as_tensor()
    return WitnessS(RegisteredState(s.state.shape, out.ravel(), check=False))


# ---------------------------------------------------------------------------
# adversaries
# ---------------------------------------------------------------------------


def reference_certificate(inst: GsconInstance, cert: TraversalCertificate | None) -> TraversalCertificate:
    """The certificate if given, else an arbitrary fixed assignment.

    Adversary constructions only need *some* well-formed base witness; the
    deviations they plant do not rely on the base being a YES witness.
    """
    return cert if cert is not None else TraversalCertificate((0,) * inst.m)


def _seeded_index(seed: int, draw: int, dim: int) -> int:
    """Index in range(dim) from the uniform at (seed, STREAM_USER, trial 0, draw)."""
    return int(uniforms(seed, STREAM_USER, [0], draw)[0] * dim) % dim


def _orthogonal_state(psi: RegisteredState, seed: int | None) -> RegisteredState:
    """A normalized state orthogonal to psi (data dimension >= 2)."""
    amps = psi.amplitudes
    dim = amps.shape[0]
    if seed is None:
        j = int(np.argmin(np.abs(np.asarray(amps, dtype=np.complex128))))
    else:
        j = _seeded_index(seed, 0, dim)
    e = zeros_like_dtype(dim, psi.extended)
    e[j] = _one(psi.extended)
    overlap = (np.conj(amps) * e).sum()  # <psi|e_j>
    res = e - overlap * amps
    nrm2 = (np.abs(res) ** 2).sum()
    if float(nrm2) < 1e-12:  # psi is concentrated on e_j; any other axis works
        e = zeros_like_dtype(dim, psi.extended)
        e[(j + 1) % dim] = _one(psi.extended)
        overlap = (np.conj(amps) * e).sum()
        res = e - overlap * amps
        nrm2 = (np.abs(res) ** 2).sum()
    return RegisteredState(psi.shape, res / _sqrtv(nrm2, psi.extended), check=False)


def _rotate_toward(base: RegisteredState, cos_theta, seed) -> RegisteredState:
    """cos(t) base + sin(t) base_perp with the requested cosine."""
    ext = base.extended
    one = _one(ext)
    sin_theta = _sqrtv(one - cos_theta * cos_theta, ext)
    perp = _orthogonal_state(base, seed)
    return RegisteredState(base.shape, cos_theta * base.amplitudes + sin_theta * perp.amplitudes, check=False)


def _replace_data_slice(s: WitnessS, label_index: int, new_data: RegisteredState) -> WitnessS:
    t = s.state.as_tensor().copy()
    old = t[label_index]
    weight = _sqrtv((np.abs(old) ** 2).sum(), s.state.extended)
    t[label_index] = weight * new_data.as_tensor()
    return WitnessS(RegisteredState(s.state.shape, t.ravel(), check=False))


def _numf(x, extended: bool):
    if extended:
        return x if isinstance(x, (mpmath.mpf, mpmath.mpc)) else mpmath.mpf(x)
    return float(x)


def forge_adversary(
    inst: GsconInstance,
    cert: TraversalCertificate | None,
    spec: AdversarySpec,
    *,
    extended: bool = False,
) -> ForgedWitnesses:
    """Build the four witnesses with exactly one planted deviation.

    All witnesses other than the targeted ones are honest (relative to the
    reference certificate).  The returned ``measured_deviation`` is read back
    from the constructed states.
    """
    with mpmath.workdps(WITNESS_DPS if extended else mpmath.mp.dps):
        return _forge(inst, cert, spec, extended)


def forge_composed(
    inst: GsconInstance,
    cert: TraversalCertificate | None,
    specs,
    *,
    extended: bool = False,
) -> ForgedWitnesses:
    """Apply several deviations in order (no worst-case coverage claims).

    Later kinds rebuild the registers they touch, so order matters; the
    measured deviation of the last spec is reported.
    """
    forged = None
    for spec in specs:
        base = None if forged is None else forged.as_tuple()
        with mpmath.workdps(WITNESS_DPS if extended else mpmath.mp.dps):
            forged = _forge(inst, cert, spec, extended, base=base)
    if forged is None:
        raise ValueError("no adversary specs given")
    return forged


def _forge(inst, cert, spec, extended, base=None):
    cert = reference_certificate(inst, cert)
    assignment = honest_gate_assignment(inst, cert)
    two_m = 2 * inst.m

    if base is None:
        u = build_honest_U(inst, cert, extended=extended)
        s = build_honest_S(inst, cert, extended=extended)
        base = (u, WitnessU(u.state), s, WitnessS(s.state))
    u, u_prime, s, s_prime = base
    kind = spec.kind

    if kind is AdversaryKind.MISMATCHED_U:
        delta = _numf(spec.magnitude, extended)
        if not 0 < delta <= 1.0 / two_m:
            raise MagnitudeRangeError(f"probability gap must lie in (0, 1/(2m)], got {float(delta)}")
        u0 = assignment[0]
        alt = _pick_other_index(u0, inst.G, spec.seed)
        amps = u.state.as_tensor().copy()
        amps[0, u0] = _sqrtv(_one(extended) / two_m - delta, extended)
        amps[0, alt] = _sqrtv(delta, extended)
        u_prime = WitnessU(RegisteredState(u.state.shape, amps.ravel(), check=False))
        measured = _max_prob_gap(u, u_prime)
        desc = f"copy mismatch of {float(measured):.3e} at label 1, gate {alt}"

    elif kind is AdversaryKind.SMEARED_GATE:
        x, c = (_numf(v, extended) for v in spec.magnitude)
        if not (0 < x <= 1 and 0 < c < 1):
            raise MagnitudeRangeError(f"need 0 < x <= 1 and 0 < c < 1, got {(float(x), float(c))}")
        u0 = assignment[0]
        alt = _pick_other_index(u0, inst.G, spec.seed)
        amps = zeros_like_dtype(u.state.shape.size, extended).reshape(two_m, inst.G)
        amps[0, u0] = _sqrtv(x * (1 - c), extended)
        amps[0, alt] = _sqrtv(x * c, extended)
        rest = (_one(extended) - x) / (two_m - 1)
        for i in range(1, two_m):
            amps[i, assignment[i]] = _sqrtv(rest, extended)
        w = WitnessU(RegisteredState(u.state.shape, amps.ravel(), check=False))
        u = u_prime = w
        probs = np.abs(w.state.as_tensor()) ** 2
        label_mass = probs[0].sum()
        off = (label_mass - probs[0, u0]) / label_mass
        measured = (label_mass, off)
        desc = f"label 1 carries {float(label_mass):.3e} with {float(off):.3e} smeared off its gate"

    elif kind is AdversaryKind.NONUNIFORM_LABELS:
        f = _numf(spec.magnitude, extended)
        if not 0 < f <= (two_m - 1) / 2.0:
            raise MagnitudeRangeError(f"label skew must lie in (0, (2m-1)/2], got {float(f)}")
        one = _one(extended)
        boosted = one / two_m + f / inst.m
        others = one / two_m - f / (inst.m * (two_m - 1))
        gbar = uniform_vector(inst.G, extended=extended)
        amps = zeros_like_dtype(u.state.shape.size, extended).reshape(two_m, inst.G)
        amps[0] = _sqrtv(boosted, extended) * gbar
        for i in range(1, two_m):
            amps[i] = _sqrtv(others, extended) * gbar
        w = WitnessU(RegisteredState(u.state.shape, amps.ravel(), check=False))
        u = u_prime = w
        label_probs = np.abs(w.state.as_tensor()) ** 2
        measured = inst.m * max(abs(label_probs[i].sum() - one / two_m) for i in range(two_m))
        desc = f"label skew f = {float(measured):.3e} under a uniform gate register"

    elif kind is AdversaryKind.INCONSISTENT_S:
        z = _numf(spec.magnitude, extended)
        if not 0 < z <= 2.0 / inst.m:
            raise MagnitudeRangeError(f"per-label defect must lie in (0, 2/m], got {float(z)}")
        cos_theta = _one(extended) - inst.m * z
        _, psi0 = conditional_state(s.state, 0, 0, drop=True)
        s_prime = _replace_data_slice(s_prime, 0, _rotate_toward(psi0, cos_theta, spec.seed))
        measured = _max_slice_defect(s.state, s_prime.state)
        desc = f"copy defect <d|d> = {float(measured):.3e} at label 1"

    elif kind is AdversaryKind.BROKEN_SEQUENCE:
        z = _numf(spec.magnitude, extended)
        if not 0 < z <= 2.0 / inst.m:
            raise MagnitudeRangeError(f"link defect must lie in (0, 2/m], got {float(z)}")
        cos_theta = _one(extended) - inst.m * z
        _, psi1 = conditional_state(s.state, 0, 1, drop=True)
        broken = _replace_data_slice(s, 1, _rotate_toward(psi1, cos_theta, spec.seed))
        s = s_prime = broken
        shifted = apply_W(inst, assignment, s)
        measured = _max_slice_defect(shifted.state, s_prime.state)
        desc = f"broken link: shifted-sequence defect {float(measured):.3e}"

    elif kind in (AdversaryKind.WRONG_START, AdversaryKind.WRONG_END):
        w_req = _numf(spec.magnitude, extended)
        if not 0 < w_req <= math.sqrt(2.0) + 1e-12:
            raise MagnitudeRangeError(f"distance must lie in (0, sqrt(2)], got {float(w_req)}")
        cos_theta = _one(extended) - w_req * w_req / 2
        label = 0 if kind is AdversaryKind.WRONG_START else inst.m
        anchor = prepare_state_from_circuit(inst, "psi" if kind is AdversaryKind.WRONG_START else "phi", extended=extended)
        planted = _rotate_toward(anchor, cos_theta, spec.seed)
        s = s_prime = _replace_data_slice(s, label, planted)
        _, got = conditional_state(s.state, 0, label, drop=True)
        measured = phase_optimized_distance(got, anchor)
        which = "start" if kind is AdversaryKind.WRONG_START else "end"
        desc = f"{which} state planted at distance {float(measured):.6e}"

    elif kind is AdversaryKind.HIGH_ENERGY:
        energy = _numf(spec.magnitude, extended)
        evals, evecs = np.linalg.eigh(dense_hamiltonian(inst))
        top = float(evals[-1])
        if not 0 <= float(energy) <= top + 1e-12:
            raise MagnitudeRangeError(f"energy must lie in [0, {top}], got {float(energy)}")
        if float(evals[0]) > 1e-10:
            raise MagnitudeRangeError("instance is not frustration-free; no zero-energy anchor")
        shape = RegisterShape((2,) * inst.n)
        gs = RegisteredState(shape, _cast_vec(evecs[:, 0], extended), check=False)
        hot = RegisteredState(shape, _cast_vec(evecs[:, -1], extended), check=False)
        sin2 = energy / top
        mixed = RegisteredState(
            shape,
            _sqrtv(_one(extended) - sin2, extended) * gs.amplitudes + _sqrtv(sin2, extended) * hot.amplitudes,
            check=False,
        )
        s = s_prime = _replace_data_slice(s, 0, mixed)
        _, got = conditional_state(s.state, 0, 0, drop=True)
        measured = energy_of(inst, got)
        desc = f"sequence entry at label 1 planted at energy {float(measured):.6e}"

    else:  # pragma: no cover
        raise ValueError(f"unknown adversary kind {kind!r}")

    _check_measured(spec.magnitude, measured, kind)
    return ForgedWitnesses(u, u_prime, s, s_prime, spec, TARGETED_TEST[kind], measured, desc)


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
                f"requested {float(r_val):.6e}; magnitudes below double resolution need extended=True"
            )


def _pick_other_index(taken: int, dim: int, seed) -> int:
    if dim < 2:
        raise MagnitudeRangeError("gate register of dimension 1 admits no mismatch")
    if seed is None:
        return (taken + 1) % dim
    draw = 0
    while (j := _seeded_index(seed, draw, dim)) == taken:
        draw += 1
    return j


def _max_prob_gap(a: WitnessU, b: WitnessU):
    pa, pb = a.outcome_probabilities(), b.outcome_probabilities()
    return np.abs(pa - pb).max()


def _max_slice_defect(sa: RegisteredState, sb: RegisteredState):
    """max over labels of the squared norm of the per-label difference."""
    diff = np.abs(sa.as_tensor() - sb.as_tensor()) ** 2
    two_m = sa.shape.dims[0]
    return max(diff[i].sum() for i in range(two_m))


def _cast_vec(vec: np.ndarray, extended: bool) -> np.ndarray:
    if not extended:
        return np.asarray(vec, dtype=np.complex128)
    out = np.empty(vec.shape[0], dtype=object)
    for i, z in enumerate(vec):
        out[i] = mpmath.mpc(z)
    return out


# ---------------------------------------------------------------------------
# dump format (per-label amplitude tables, decimal-string convention)
# ---------------------------------------------------------------------------


def dump_amplitude_table(state: RegisteredState) -> list:
    """Per-label amplitude rows as [re, im] decimal strings.

    Doubles use ``repr`` (bit-exact round trip); extended amplitudes are
    written with mpmath at their working precision.
    """
    t = state.as_tensor()
    two_m = state.shape.dims[0]
    rows = []
    for i in range(two_m):
        row = []
        for z in np.asarray(t[i]).ravel():
            if isinstance(z, (mpmath.mpf, mpmath.mpc)):
                zc = mpmath.mpc(z)
                row.append([mpmath.nstr(zc.real, 40), mpmath.nstr(zc.imag, 40)])
            else:
                zc = complex(z)
                row.append([repr(zc.real), repr(zc.imag)])
        rows.append(row)
    return rows
