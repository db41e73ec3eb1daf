"""Honest witness construction, the shift-and-gate unitary, and adversaries."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from ffgscon.fixtures import builtin_instances, get_fixture
from ffgscon.harness import build_witnesses
from ffgscon.instances import (
    GsconInstance,
    HamiltonianTerm,
    energy_of,
    gate_cnot,
    gate_h,
    gate_i,
    gate_ry,
    gate_x,
    prepare_state_from_circuit,
)
from ffgscon.ledger import derive_parameters
from ffgscon.states import WITNESS_DPS, RegisteredState, conditional_state, phase_optimized_distance, register_distribution
from ffgscon.witnesses import (
    AdversaryKind,
    AdversarySpec,
    GateSetNotClosedError,
    MagnitudeRangeError,
    TARGETED_TEST,
    apply_W,
    build_honest_S,
    build_honest_U,
    forge_adversary,
    honest_gate_assignment,
    honest_proof,
)

from oracles import norm_sq, normalized

S2 = 1 / math.sqrt(2)


def two_qubit_instance():
    return GsconInstance(
        n=2,
        m=2,
        terms=(HamiltonianTerm(np.zeros((2, 2)), (0,)),),
        eta2=0.5,
        eta3=0.25,
        eta4=0.75,
        delta=0.25,
        psi_circuit=(),
        phi_circuit=(),
        gate_set=(gate_h(0), gate_cnot(0, 1), gate_x(0), gate_i(0)),
    )


def test_assignment_reverses_adjoints():
    # m=2 with certificate (H, CNOT): back half is (CNOT, H), both self-adjoint
    inst = two_qubit_instance()
    assignment = honest_gate_assignment(inst, (0, 1))
    assert assignment == (0, 1, 1, 0)


def test_assignment_self_adjoint_m1():
    fx = get_fixture("idle")
    x_idx = 1  # gate X in the idle gate set
    assignment = honest_gate_assignment(fx.instance, (x_idx,))
    assert assignment == (x_idx, x_idx)


def test_assignment_uses_paired_adjoints():
    fx = get_fixture("tilted-target")  # gate 0 = RY(2b), gate 1 = RY(-2b)
    assignment = honest_gate_assignment(fx.instance, (0,))
    assert assignment == (0, 1)


def test_assignment_requires_closure():
    inst = two_qubit_instance()
    open_inst = GsconInstance(
        **{**{f: getattr(inst, f) for f in ("n", "m", "terms", "eta2", "eta3", "eta4", "delta", "psi_circuit", "phi_circuit")},
           "gate_set": (gate_ry(0.3, 0), gate_ry(0.7, 0))}
    )
    with pytest.raises(GateSetNotClosedError):
        honest_gate_assignment(open_inst, (0, 1))


def test_honest_u_m1_self_adjoint_gate():
    fx = get_fixture("idle")
    u = build_honest_U(fx.instance, (1,))  # cert [X]
    t = np.asarray(u.amplitudes, complex)
    assert abs(t[0, 1] - S2) < 1e-15 and abs(t[1, 1] - S2) < 1e-15
    assert np.count_nonzero(t) == 2


def test_honest_u_label_marginals_uniform():
    for fx in builtin_instances():
        cert = fx.certificate if fx.certificate is not None else (0,) * fx.instance.m
        u = build_honest_U(fx.instance, cert)
        probs = np.asarray(np.abs(u.amplitudes) ** 2, float)
        two_m = 2 * fx.instance.m
        assert np.allclose(probs.sum(axis=1), 1.0 / two_m, atol=1e-12)
        # basis-pure gate register per label: one nonzero cell per row
        assert all(np.count_nonzero(row) == 1 for row in probs)


def test_extended_honest_build_carries_witness_digits():
    # built outside any forge, an extended honest proof still carries WITNESS_DPS
    # digits (on idle, whose gates and start state are exact in double)
    fx = get_fixture("idle")
    proof = honest_proof(fx.instance, fx.certificate, extended=True)
    with mpmath.workdps(WITNESS_DPS):
        amp = 1 / mpmath.sqrt(2 * fx.instance.m)
        assert abs(proof.u.amplitudes[0, fx.certificate[0]] - amp) < mpmath.mpf(10) ** -100
        assert abs(proof.s.amplitudes[0, 0] - amp) < mpmath.mpf(10) ** -100


def test_cycle_product_is_identity():
    for fx in builtin_instances():
        inst = fx.instance
        cert = fx.certificate if fx.certificate is not None else (0,) * inst.m
        assignment = honest_gate_assignment(inst, cert)
        dim = 2**inst.n
        full = np.eye(dim, dtype=complex)
        for idx in assignment:
            gate = inst.gate_set[idx]
            op = np.zeros((dim, dim), dtype=complex)
            from ffgscon.states import RegisteredState, apply_local_gate

            for j in range(dim):
                col = np.zeros(dim, dtype=complex)
                col[j] = 1.0
                st = RegisteredState(col.reshape((2,) * inst.n), check=False)
                op[:, j] = np.asarray(apply_local_gate(st, gate, 0).amplitudes, complex).ravel()
            full = op @ full
        assert np.max(np.abs(full - np.eye(dim))) < 1e-12, fx.name


def test_honest_s_m1_flip():
    fx = get_fixture("idle")
    s = build_honest_S(fx.instance, (1,))  # cert [X]: |1>|0> + |2>|1>
    t = np.asarray(s.amplitudes, complex)
    assert abs(t[0, 0] - S2) < 1e-15 and abs(t[1, 1] - S2) < 1e-15


def test_honest_s_energies_and_endpoint():
    for fx in builtin_instances():
        if fx.certificate is None:
            continue
        inst = fx.instance
        s = build_honest_S(inst, fx.certificate)
        for i in range(2 * inst.m):
            p, data = conditional_state(s, 0, i)
            assert abs(p - 1 / (2 * inst.m)) < 1e-12
            assert energy_of(inst, data) <= 1e-10
        _, mid = conditional_state(s, 0, inst.m)
        phi = prepare_state_from_circuit(inst, "phi")
        assert phase_optimized_distance(mid, phi) <= inst.eta3 + 1e-9


def test_w_fixes_honest_sequences():
    for fx in builtin_instances():
        inst = fx.instance
        cert = fx.certificate if fx.certificate is not None else (0,) * inst.m
        assignment = honest_gate_assignment(inst, cert)
        s = build_honest_S(inst, cert)
        moved = apply_W(inst, assignment, s)
        diff = np.asarray(moved.amplitudes - s.amplitudes, complex)
        assert np.linalg.norm(diff) <= 1e-9, fx.name


def test_w_on_basis_input():
    fx = get_fixture("idle")
    inst = fx.instance
    from ffgscon.states import RegisteredState

    basis = RegisteredState([[1, 0], [0, 0]])  # |label 1>|0>
    moved = apply_W(inst, (1, 1), basis)  # U_1 = X
    assert abs(moved.amplitudes[1, 1] - 1.0) < 1e-15


def test_w_cycles_back_after_2m_steps():
    fx = get_fixture("bell-stepwise")
    inst = fx.instance
    assignment = honest_gate_assignment(inst, fx.certificate)
    s = build_honest_S(inst, fx.certificate)
    cur = s
    for _ in range(2 * inst.m):
        cur = apply_W(inst, assignment, cur)
    diff = np.asarray(cur.amplitudes - s.amplitudes, complex)
    assert np.linalg.norm(diff) <= 1e-9


def test_w_refuses_an_assignment_of_the_wrong_length():
    fx = get_fixture("bell-flip")
    s = build_honest_S(fx.instance, fx.certificate)
    with pytest.raises(ValueError, match="assignment length 1 != 2m = 2"):
        apply_W(fx.instance, (1,), s)


@pytest.mark.parametrize("assignment", [(-3, -3), (6, 6)])
def test_w_refuses_an_index_outside_the_gate_set(assignment):
    # (-3, -3) must not act as (3, 3), nor (6, 6) raise a bare IndexError
    fx = get_fixture("bell-flip")
    s = build_honest_S(fx.instance, fx.certificate)
    with pytest.raises(ValueError, match=f"assignment gate index {assignment[0]} outside the gate set 0..5"):
        apply_W(fx.instance, assignment, s)


def test_w_preserves_norm():
    fx = get_fixture("bell-flip")
    inst = fx.instance
    assignment = honest_gate_assignment(inst, fx.certificate)
    rng = np.random.default_rng(2)
    from oracles import random_registered_state

    s = random_registered_state((2 * inst.m,) + (2,) * inst.n, rng)
    moved = apply_W(inst, assignment, s)
    assert abs(norm_sq(moved) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# adversaries
# ---------------------------------------------------------------------------


def _forge(fixture_name, kind, magnitude):
    fx = get_fixture(fixture_name)
    base = honest_proof(fx.instance, fx.certificate)
    return fx, forge_adversary(base, fx.instance, AdversarySpec(kind, magnitude))


def test_every_kind_self_reports_within_tolerance():
    fx = get_fixture("bell-flip")
    led = derive_parameters(fx.instance)
    mags = {
        AdversaryKind.MISMATCHED_U: 0.1,
        AdversaryKind.SMEARED_GATE: (0.4, 0.2),
        AdversaryKind.NONUNIFORM_LABELS: 0.3,
        AdversaryKind.INCONSISTENT_S: 0.15,
        AdversaryKind.BROKEN_SEQUENCE: 0.15,
        AdversaryKind.WRONG_START: float(led.h),
        AdversaryKind.WRONG_END: float(led.eta3 + led.h),
        AdversaryKind.HIGH_ENERGY: fx.instance.eta2 / 2,
    }
    base = honest_proof(fx.instance, fx.certificate)
    for kind, mag in mags.items():
        forged = forge_adversary(base, fx.instance, AdversarySpec(kind, mag))
        req = mag if isinstance(mag, tuple) else (mag,)
        got = forged.measured_deviation if isinstance(forged.measured_deviation, tuple) else (forged.measured_deviation,)
        for r, g in zip(req, got):
            assert abs(float(g) - float(r)) <= 1e-6 * abs(float(r)), kind
        assert forged.targeted_test == TARGETED_TEST[kind]
        for w in (forged.u, forged.u_prime, forged.s, forged.s_prime):
            assert abs(norm_sq(w) - 1.0) < 1e-9


def test_mismatched_probability_gap_is_exact():
    _, forged = _forge("idle", AdversaryKind.MISMATCHED_U, 0.2)
    pa = np.asarray(np.abs(forged.u.amplitudes) ** 2, float)
    pb = np.asarray(np.abs(forged.u_prime.amplitudes) ** 2, float)
    assert abs(np.abs(pa - pb).max() - 0.2) < 1e-12


def test_wrong_start_distance_matches_request():
    for w_req in (0.1, 0.35, 1.0):
        fx, forged = _forge("bell-flip", AdversaryKind.WRONG_START, w_req)
        _, data = conditional_state(forged.s, 0, 0)
        psi = prepare_state_from_circuit(fx.instance, "psi")
        assert abs(phase_optimized_distance(data, psi) - w_req) < 1e-9


def test_wrong_start_keeps_labels_uniform():
    fx, forged = _forge("bell-flip", AdversaryKind.WRONG_START, 0.3)
    probs = np.asarray(register_distribution(forged.s, 0), float)
    assert np.allclose(probs, 1.0 / (2 * fx.instance.m), atol=1e-12)


def test_high_energy_pure_top_eigenvector():
    # at the top of the spectrum the planted state is an exact eigenvector
    fx, forged = _forge("bell-flip", AdversaryKind.HIGH_ENERGY, 1.0)
    _, data = conditional_state(forged.s, 0, 0)
    assert abs(energy_of(fx.instance, data) - 1.0) < 1e-10


def test_high_energy_half_eta2():
    fx, forged = _forge("tilted-target", AdversaryKind.HIGH_ENERGY, 0.25)
    _, data = conditional_state(forged.s, 0, 0)
    assert abs(energy_of(fx.instance, data) - 0.25) < 1e-10


def test_magnitude_ranges_enforced():
    fx = get_fixture("idle")
    cases = [
        (AdversaryKind.MISMATCHED_U, 0.9),  # above 1/(2m)
        (AdversaryKind.MISMATCHED_U, 0.0),
        (AdversaryKind.NONUNIFORM_LABELS, 5.0),
        (AdversaryKind.INCONSISTENT_S, 3.0),
        (AdversaryKind.WRONG_END, 2.0),
        (AdversaryKind.HIGH_ENERGY, 7.0),
        (AdversaryKind.SMEARED_GATE, (0.0, 0.5)),
    ]
    base = honest_proof(fx.instance, fx.certificate)
    for kind, mag in cases:
        with pytest.raises(MagnitudeRangeError):
            forge_adversary(base, fx.instance, AdversarySpec(kind, mag))


def test_high_energy_refuses_an_instance_that_is_not_frustration_free():
    # an identity term gives every state energy at least 1, so no zero-energy anchor exists
    fx = get_fixture("bell-flip")
    first, *rest = fx.instance.terms
    inst = replace(fx.instance, terms=(replace(first, matrix=np.eye(len(first.matrix))), *rest))
    with pytest.raises(MagnitudeRangeError, match="instance is not frustration-free"):
        forge_adversary(honest_proof(inst, fx.certificate), inst, AdversarySpec(AdversaryKind.HIGH_ENERGY, 0.5))


def test_extended_forge_hits_boundary_exactly():
    fx = get_fixture("idle")
    led = derive_parameters(fx.instance)
    base = honest_proof(fx.instance, fx.certificate, extended=True)
    forged = forge_adversary(base, fx.instance, AdversarySpec(AdversaryKind.MISMATCHED_U, led.delta_small))
    with mpmath.workdps(120):
        rel = abs(forged.measured_deviation - led.delta_small) / led.delta_small
        assert rel < mpmath.mpf("1e-30")


def test_sub_resolution_double_request_raises():
    fx = get_fixture("idle")
    led = derive_parameters(fx.instance)
    f_skew = float(1 / (mpmath.mpf(fx.instance.m) * led.t))
    base = honest_proof(fx.instance, fx.certificate)
    with pytest.raises(MagnitudeRangeError):
        forge_adversary(base, fx.instance, AdversarySpec(AdversaryKind.NONUNIFORM_LABELS, f_skew))


def test_composed_adversaries_stack():
    fx = get_fixture("bell-flip")
    specs = (
        AdversarySpec(AdversaryKind.MISMATCHED_U, 0.1),
        AdversarySpec(AdversaryKind.WRONG_START, 0.3),
    )
    forged = build_witnesses(fx.instance, fx.certificate, specs)
    pa = np.asarray(np.abs(forged.u.amplitudes) ** 2, float)
    pb = np.asarray(np.abs(forged.u_prime.amplitudes) ** 2, float)
    assert np.abs(pa - pb).max() > 0.09
    _, data = conditional_state(forged.s, 0, 0)
    psi = prepare_state_from_circuit(fx.instance, "psi")
    assert abs(phase_optimized_distance(data, psi) - 0.3) < 1e-9


def test_forged_proof_records_the_base_certificate():
    fx = get_fixture("bell-flip")
    base = honest_proof(fx.instance, fx.certificate)
    assert base.certificate == fx.certificate
    for kind, mag in ((AdversaryKind.MISMATCHED_U, 0.1), (AdversaryKind.WRONG_START, 0.3)):
        forged = forge_adversary(base, fx.instance, AdversarySpec(kind, mag))
        assert forged.certificate is base.certificate
        assert replace(forged, spec=None).certificate is base.certificate
    # without a certificate the proof records the fixed one it was built on
    assert honest_proof(fx.instance, None).certificate == (0,) * fx.instance.m


def test_smeared_gate_keeps_the_base_gates():
    # bell-flip's certificate is (3,); a smear built on the fixed reference
    # certificate (0,) instead would move labels 1.. off the base's gates and
    # test 5 from 0.0054 to 1/24
    from ffgscon.verifier import run_test
    from ffgscon.witnesses import Proof

    fx = get_fixture("bell-flip")
    inst = fx.instance
    two_m = 2 * inst.m
    x, c = 0.5, 0.25
    base = honest_proof(inst, fx.certificate)
    forged = forge_adversary(base, inst, AdversarySpec(AdversaryKind.SMEARED_GATE, (x, c)))
    gates = honest_gate_assignment(inst, fx.certificate)
    probs = np.abs(forged.u.amplitudes) ** 2
    for i in range(1, two_m):
        assert np.flatnonzero(probs[i]).tolist() == [gates[i]]
    amps = np.zeros((two_m, inst.G), dtype=complex)  # the smear on label 0, the rest on the certificate's gates
    amps[0, gates[0]], amps[0, (gates[0] + 1) % inst.G] = math.sqrt(x * (1 - c)), math.sqrt(x * c)
    for i in range(1, two_m):
        amps[i, gates[i]] = math.sqrt((1 - x) / (two_m - 1))
    u = RegisteredState(amps)
    want = run_test(5, Proof(u, u, base.s, base.s), inst).reject_probability
    got = run_test(5, forged, inst).reject_probability
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert 0 < float(got) < 0.01


def test_forge_refuses_a_base_without_a_certificate():
    # a proof built directly from states records no certificate; forged on the
    # fixed (0,) instead of bell-flip's (3,), this smear read test 5 as 1/24
    from ffgscon.witnesses import Proof

    fx = get_fixture("bell-flip")
    h = honest_proof(fx.instance, fx.certificate)
    spec = AdversarySpec(AdversaryKind.SMEARED_GATE, (0.5, 0.25))
    with pytest.raises(ValueError, match="certificate.*honest_proof"):
        forge_adversary(Proof(h.u, h.u, h.s, h.s), fx.instance, spec)


def test_orthogonal_helper_on_complex_states():
    from ffgscon.states import inner_product
    from ffgscon.witnesses import _orthogonal_state

    rng = np.random.default_rng(51)
    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = normalized(v.reshape(2, 2))
        perp = _orthogonal_state(psi)
        assert abs(inner_product(psi, perp)) < 1e-12
        assert abs(norm_sq(perp) - 1.0) < 1e-12


def test_inconsistent_copies_on_complex_chain():
    # a certificate routed through Y produces complex sequence entries; the
    # planted per-label defect must still land exactly on the request
    fx = get_fixture("blocked-qubit")  # gate set (X, H, Y)
    inst = fx.instance
    cert = (2, 1)  # Y then H
    z = 0.12
    forged = forge_adversary(honest_proof(inst, cert), inst, AdversarySpec(AdversaryKind.INCONSISTENT_S, z))
    assert abs(float(forged.measured_deviation) - z) <= 1e-6 * z
    from ffgscon.verifier import run_test

    out = run_test(4, forged, inst)
    assert float(out.reject_probability) >= z / 4


def test_broken_sequence_on_complex_chain():
    fx = get_fixture("blocked-qubit")
    cert = (2, 2)  # Y, Y
    z = 0.1
    base = honest_proof(fx.instance, cert)
    forged = forge_adversary(base, fx.instance, AdversarySpec(AdversaryKind.BROKEN_SEQUENCE, z))
    assert abs(float(forged.measured_deviation) - z) <= 1e-6 * z
    from ffgscon.verifier import run_test

    out = run_test(5, forged, fx.instance)
    m, G = fx.instance.m, fx.instance.G
    assert float(out.reject_probability) >= (1 / (8 * m * G)) * (z / 4)
