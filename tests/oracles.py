"""Independent reference implementations used only to check the package.

These deliberately avoid the code paths they certify: the swap test is run
as an explicit doubled-register circuit with an ancilla, test branch sums
are recomputed from dense projector matrices, measurement statistics
come from plain probability tables, and NO labels are certified by
exhausting every gate sequence.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

BRUTE_FORCE_CAP = 10**6


def swap_circuit_reject_prob(a, b) -> float:
    """Doubled-register swap circuit: ancilla H, controlled-SWAP, H, measure.

    Layout: flat index = anc * D^2 + i * D + j over ancilla x copy-a x copy-b.
    Returns P[ancilla = 1].
    """
    # flat vectors: kron of two tensors is a different product
    va = np.asarray(a.amplitudes, dtype=np.complex128).ravel()
    vb = np.asarray(b.amplitudes, dtype=np.complex128).ravel()
    if va.shape != vb.shape:
        raise ValueError("shape mismatch")
    D = va.size
    block = np.kron(va, vb).reshape(D, D)
    psi = np.stack([block, np.zeros_like(block)])  # (anc, i, j)
    s = 1.0 / np.sqrt(2.0)
    psi = np.stack([s * (psi[0] + psi[1]), s * (psi[0] - psi[1])])  # H on ancilla
    psi[1] = psi[1].T.copy()  # controlled swap of the two registers
    psi = np.stack([s * (psi[0] + psi[1]), s * (psi[0] - psi[1])])  # H again
    return float(np.sum(np.abs(psi[1]) ** 2))


def register_projector(dims, register, vector) -> np.ndarray:
    """Dense |v><v| on one register, identity elsewhere."""
    mats = []
    for k, d in enumerate(dims):
        if k == register:
            v = np.asarray(vector, dtype=np.complex128).reshape(d, 1)
            mats.append(v @ v.conj().T)
        else:
            mats.append(np.eye(d, dtype=np.complex128))
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def equal_label_projector(dims, reg_a, reg_b) -> np.ndarray:
    """Dense projector onto matching computational values of two registers."""
    size = int(np.prod(dims))
    diag = np.zeros(size)
    for flat in range(size):
        vals = []
        rem = flat
        for d in reversed(dims):
            vals.append(rem % d)
            rem //= d
        vals.reverse()
        if vals[reg_a] == vals[reg_b]:
            diag[flat] = 1.0
    return np.diag(diag)


def unique_test_reject_by_enumeration(pa, pb, valid) -> float:
    """Plain double loop over all joint (label, gate) x (label, gate) outcomes."""
    two_m, G = pa.shape
    reject = 0.0
    for i in range(two_m):
        for i2 in range(two_m):
            for g in range(G):
                for g2 in range(G):
                    if i != i2:
                        continue
                    if g != g2 or not valid[g]:
                        reject += pa[i, g] * pb[i2, g2]
    return reject


def norm_sq(state) -> float:
    """Squared norm of a state's amplitudes, in double."""
    v = np.asarray(state.amplitudes, dtype=np.complex128).ravel()
    return float(np.vdot(v, v).real)


def normalized(amplitudes):
    """The state of double ``amplitudes`` divided by their norm."""
    from ffgscon.states import RegisteredState

    v = np.asarray(amplitudes, dtype=np.complex128)
    a = np.abs(v.ravel())
    return RegisteredState(v / np.sqrt((a * a).sum()))


def random_registered_state(dims, rng):
    v = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
    return normalized(v.reshape(dims))


@dataclass(frozen=True)
class BruteForceResult:
    certified_no: bool
    sequences_checked: int
    counterexample: tuple[int, ...] | None


def brute_force_no_check(inst, cap: int = BRUTE_FORCE_CAP) -> BruteForceResult:
    """Exhaust all gate-set sequences of length m against the NO promise.

    The NO label is certified when no sequence keeps every intermediate
    energy below eta2 while ending closer than eta4 to the target state.
    Comparisons carry the fixtures' 1e-9 slack so the certification cannot
    hinge on floating-point dust.
    """
    from ffgscon.fixtures import PROMISE_TOL
    from ffgscon.instances import energy_of, prepare_state_from_circuit
    from ffgscon.states import apply_local_gate, phase_optimized_distance

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
