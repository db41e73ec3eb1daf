"""Instance model: validation, energies, circuits, serialization."""

import math

import numpy as np
import pytest

from ffgscon.instances import (
    GsconInstance,
    HamiltonianTerm,
    InstanceFormatError,
    adjoint_index,
    dense_hamiltonian,
    energy_of,
    gate_cnot,
    gate_h,
    gate_i,
    gate_indices,
    gate_ry,
    gate_x,
    gate_y,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    prepare_state_from_circuit,
    save_instance,
    term_energies,
    validate_instance,
)
from ffgscon._kernels import tally_low
from ffgscon.fixtures import builtin_instances, get_fixture
from ffgscon.states import DimensionCapError, basis_state

from oracles import normalized, random_registered_state


def proj1(q=0):
    return HamiltonianTerm(np.diag([0.0, 1.0]), (q,))


def single_qubit_instance(**overrides):
    kwargs = dict(
        n=1,
        m=1,
        terms=(proj1(),),
        eta2=0.5,
        eta3=0.25,
        eta4=0.75,
        delta=0.25,
        psi_circuit=(),
        phi_circuit=(),
        gate_set=(gate_i(0), gate_x(0), gate_h(0)),
    )
    kwargs.update(overrides)
    return GsconInstance(**kwargs)


def test_term_validation():
    with pytest.raises(ValueError):
        HamiltonianTerm(np.eye(2), (0, 0))
    with pytest.raises(ValueError):
        HamiltonianTerm(np.eye(4), (0,))
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            HamiltonianTerm(np.diag([value, 1.0]), (0,))
    t = proj1()
    assert t.hermiticity_error() == 0.0
    assert np.allclose(t.eigenvalues(), [0, 1])


def test_validate_passes_on_simple_instance():
    rep = validate_instance(single_qubit_instance())
    assert rep.ok, "\n".join(rep.lines())


def test_validate_catches_overnormed_term():
    inst = single_qubit_instance(terms=(HamiltonianTerm(np.diag([0.0, 1.5]), (0,)),))
    rep = validate_instance(inst)
    assert not rep.ok
    assert any("operator norm" in c.name and not c.passed for c in rep.checks)


def test_validate_catches_promise_gap():
    inst = single_qubit_instance(eta3=0.6, eta4=0.7)  # eta4 - eta3 < delta
    rep = validate_instance(inst)
    assert any("eta4 - eta3" in c.name and not c.passed for c in rep.checks)


def test_validate_catches_excited_start_state():
    inst = single_qubit_instance(psi_circuit=(gate_x(0),))
    rep = validate_instance(inst)
    assert any("<psi|H|psi>" in c.name and not c.passed for c in rep.checks)


def test_validate_catches_negative_term():
    inst = single_qubit_instance(terms=(HamiltonianTerm(np.diag([-0.5, 1.0]), (0,)),))
    rep = validate_instance(inst)
    assert any("positive semidefinite" in c.name and not c.passed for c in rep.checks)


def test_energy_basics():
    inst = single_qubit_instance()
    zero = basis_state((2,), (0,))
    one = basis_state((2,), (1,))
    plus = normalized([1, 1])
    assert energy_of(inst, zero) <= 1e-10
    assert abs(energy_of(inst, one) - 1.0) < 1e-12
    assert abs(energy_of(inst, plus) - 0.5) < 1e-12


def test_energy_refuses_an_imaginary_expectation():
    # a term that is not hermitian: <+|[[0, i], [0, 0]]|+> = i/2
    inst = single_qubit_instance(terms=(HamiltonianTerm(np.array([[0, 1j], [0, 0]]), (0,)),))
    with pytest.raises(ValueError, match="energy acquired imaginary residue 5.000e-01"):
        energy_of(inst, normalized([1, 1]))


def test_gate_indices_read_true_as_one_and_refuse_a_float():
    inst = get_fixture("bell-flip").instance
    assert gate_indices(inst, (True,)) == (1,)
    with pytest.raises(ValueError, match="assignment entry 1 is 0.0, not a gate index"):
        gate_indices(inst, (0, 0.0), doubled=True)


def test_energy_matches_dense_hamiltonian():
    rng = np.random.default_rng(41)
    for fx in builtin_instances():
        H = dense_hamiltonian(fx.instance)
        for _ in range(5):
            s = random_registered_state((2,) * fx.instance.n, rng)
            v = np.asarray(s.amplitudes, complex).ravel()
            direct = float(np.real(v.conj() @ H @ v))
            assert abs(energy_of(fx.instance, s) - direct) < 1e-12


def test_dense_hamiltonian_refuses_over_the_cap():
    # 4^30 entries: the refusal comes before any array is asked for
    with pytest.raises(DimensionCapError):
        dense_hamiltonian(single_qubit_instance(n=30))


def energy_test_tally(inst, s, seed, stream, n):
    """(accepts, rejects) of n one-shot energy measurements on one data state."""
    table = np.array([term_energies(inst, s)])
    return tally_low(seed, stream, np.arange(n, dtype=np.uint64), 0, np.array([1.0]), table)


def test_energy_test_maximal_state_rejects_surely():
    # two identical projector terms: <H> = R on |1>, so reject probability 1
    inst = single_qubit_instance(terms=(proj1(), proj1()))
    one = basis_state((2,), (1,))
    assert abs(energy_of(inst, one) / inst.R - 1.0) < 1e-12
    assert energy_test_tally(inst, one, 3, 20, 200) == (0, 200)


def test_energy_test_sample_rate_matches_exact():
    inst = single_qubit_instance(terms=(proj1(), HamiltonianTerm(np.diag([0.0, 0.25]), (0,))))
    s = normalized([1, 1])
    p = energy_of(inst, s) / inst.R  # (0.5 + 0.125)/2
    assert abs(p - 0.3125) < 1e-12
    n = 50_000
    _, rejects = energy_test_tally(inst, s, 8, 21, n)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(rejects / n - p) <= 4 * sigma


def test_prepare_state_from_circuit():
    inst = single_qubit_instance()
    assert prepare_state_from_circuit(inst, "psi").amplitudes[0] == 1.0
    inst_h = single_qubit_instance(phi_circuit=(gate_h(0),))
    phi = prepare_state_from_circuit(inst_h, "phi")
    assert abs(phi.amplitudes[0] - 1 / math.sqrt(2)) < 1e-15
    with pytest.raises(ValueError):
        prepare_state_from_circuit(inst, "chi")


def test_fixture_start_states_sit_in_ground_space():
    for fx in builtin_instances():
        for which in ("psi", "phi"):
            s = prepare_state_from_circuit(fx.instance, which)
            assert energy_of(fx.instance, s) <= 1e-10


def test_adjoint_bookkeeping():
    gates = (gate_ry(0.3, 0), gate_ry(-0.3, 0), gate_x(0))
    assert [adjoint_index(gates, i) for i in range(3)] == [1, 0, 2]
    assert adjoint_index((gate_ry(0.3, 0),), 0) is None


def test_fixture_gate_sets_are_adjoint_closed():
    for fx in builtin_instances():
        gates = fx.instance.gate_set
        assert all(adjoint_index(gates, i) is not None for i in range(len(gates))), fx.name


def test_serialization_round_trip_bit_exact(tmp_path):
    for fx in builtin_instances():
        doc = instance_to_dict(fx.instance)
        back = instance_from_dict(doc)
        assert back.n == fx.instance.n and back.m == fx.instance.m
        assert (back.eta2, back.eta3, back.eta4, back.delta) == (
            fx.instance.eta2,
            fx.instance.eta3,
            fx.instance.eta4,
            fx.instance.delta,
        )
        for a, b in zip(back.terms, fx.instance.terms):
            assert a.support == b.support
            assert np.array_equal(a.matrix, b.matrix)
        for ga, gb in zip(back.gate_set, fx.instance.gate_set):
            assert ga.targets == gb.targets
            assert np.array_equal(ga.matrix, gb.matrix)
        path = tmp_path / f"{fx.name}.json"
        save_instance(fx.instance, path)
        loaded = load_instance(path)
        assert instance_to_dict(loaded) == doc  # byte-equal document round trip


def test_serialization_rejects_malformed_documents():
    with pytest.raises(InstanceFormatError):
        instance_from_dict({"format": "something-else"})
    doc = instance_to_dict(get_fixture("idle").instance)
    del doc["terms"]
    with pytest.raises(InstanceFormatError):
        instance_from_dict(doc)


def test_gate_library_unitarity():
    for g in (gate_i(0), gate_x(0), gate_y(0), gate_h(0), gate_cnot(0, 1), gate_ry(1.234, 0)):
        err = np.max(np.abs(g.matrix @ g.matrix.conj().T - np.eye(g.matrix.shape[0])))
        assert err <= 1e-12
