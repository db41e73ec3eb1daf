"""Register layout, gate application, projection and swap-test primitives."""

import math

import mpmath
import numpy as np
import pytest

from ffgscon._kernels import select, tally_bernoulli
from ffgscon.states import (
    DimensionCapError,
    LocalGate,
    NotUnitaryError,
    RegisteredState,
    RegisterShape,
    RegisterRangeError,
    ShapeMismatchError,
    apply_local_gate,
    basis_state,
    conditional_state,
    inner_product,
    phase_optimized_distance,
    project_onto,
    projection_deficit,
    register_distribution,
    swap_test_reject_prob,
    tensor_with,
    uniform_vector,
)

from oracles import random_registered_state, swap_circuit_reject_prob

X = LocalGate("X", np.array([[0, 1], [1, 0]]), (0,))
H = LocalGate("H", np.array([[1, 1], [1, -1]]) / math.sqrt(2), (0,))
CNOT = LocalGate("CNOT", np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]), (0, 1))


def test_shape_index_round_trip():
    shape = RegisterShape((4, 3, 2))
    assert shape.size == 24
    # big-endian: first register is most significant
    assert shape.index_of((1, 0, 0)) == 6
    assert shape.index_of((0, 2, 1)) == 5
    for flat in range(shape.size):
        assert shape.index_of(shape.values_of(flat)) == flat


def test_shape_rejects_bad_dims_and_values():
    with pytest.raises(ValueError):
        RegisterShape((0, 2))
    shape = RegisterShape((2, 2))
    with pytest.raises(RegisterRangeError):
        shape.index_of((2, 0))
    with pytest.raises(RegisterRangeError):
        shape.values_of(4)


def test_state_normalization_guard():
    shape = RegisterShape((2,))
    with pytest.raises(ValueError):
        RegisteredState(shape, [1.0, 1.0])
    s = RegisteredState(shape, [1.0, 1.0], normalize=True)
    assert abs(s.amplitudes[0] - 1 / math.sqrt(2)) < 1e-15
    with pytest.raises(ValueError):
        RegisteredState(shape, [np.nan, 0.0])


def test_state_is_immutable():
    s = basis_state(RegisterShape((2,)), (0,))
    with pytest.raises(AttributeError):
        s.amplitudes = None
    with pytest.raises(ValueError):
        s.amplitudes[0] = 5.0


def test_tensor_basis_case():
    zero = basis_state(RegisterShape((2,)), (0,))
    joint = tensor_with(zero, zero)
    assert joint.shape.dims == (2, 2)
    assert joint.amplitudes[0] == 1.0
    assert np.all(joint.amplitudes[1:] == 0)


def test_tensor_separable_case():
    plus = RegisteredState(RegisterShape((2,)), [1, 1], normalize=True)
    one = basis_state(RegisterShape((2,)), (1,))
    joint = tensor_with(plus, one)
    s = 1 / math.sqrt(2)
    assert abs(joint.amplitude((0, 1)) - s) < 1e-15
    assert abs(joint.amplitude((1, 1)) - s) < 1e-15
    assert joint.amplitude((0, 0)) == 0


def test_tensor_norm_of_random_states():
    rng = np.random.default_rng(7)
    a = random_registered_state((3,), rng)
    b = random_registered_state((4,), rng)
    joint = tensor_with(a, b)
    assert joint.shape.size == 12
    assert abs(joint.norm_sq() - 1.0) < 1e-12


def test_tensor_dimension_cap():
    big = RegisteredState(RegisterShape((1 << 11,)), np.eye(1 << 11)[0])
    with pytest.raises(DimensionCapError):
        tensor_with(big, big)


def test_apply_x_and_h():
    zero = basis_state(RegisterShape((2,)), (0,))
    assert apply_local_gate(zero, X, 0).amplitude((1,)) == 1.0
    rng = np.random.default_rng(3)
    s = random_registered_state((2, 2, 2), rng)
    twice = apply_local_gate(apply_local_gate(s, H, 1), H, 1)
    assert np.max(np.abs(twice.amplitudes - s.amplitudes)) < 1e-12


def test_apply_cnot_textbook():
    plus0 = RegisteredState(RegisterShape((2, 2)), [1, 0, 1, 0], normalize=True)  # (|00>+|10>)/sqrt2
    bell = apply_local_gate(plus0, CNOT, 0)
    s = 1 / math.sqrt(2)
    assert abs(bell.amplitude((0, 0)) - s) < 1e-15
    assert abs(bell.amplitude((1, 1)) - s) < 1e-15


def test_apply_gate_norm_preservation_sweep():
    rng = np.random.default_rng(11)
    for _ in range(25):
        s = random_registered_state((3, 2, 2, 2), rng)
        q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        g = LocalGate("rand", q, (0, 2))
        out = apply_local_gate(s, g, 1)
        assert abs(out.norm_sq() - 1.0) < 1e-12


def test_apply_gate_reversed_and_nonadjacent_targets():
    # control on the later qubit, target on the earlier one
    rev = LocalGate("CNOT", CNOT.matrix, (1, 0))
    s = basis_state(RegisterShape((2, 2)), (0, 1))
    assert apply_local_gate(s, rev, 0).amplitude((1, 1)) == 1.0
    s2 = basis_state(RegisterShape((2, 2)), (1, 0))
    assert apply_local_gate(s2, rev, 0).amplitude((1, 0)) == 1.0
    # non-adjacent pair behind a label register
    far = LocalGate("CNOT", CNOT.matrix, (2, 0))
    s3 = basis_state(RegisterShape((3, 2, 2, 2)), (0, 0, 1, 1))
    assert apply_local_gate(s3, far, 1).amplitude((0, 1, 1, 1)) == 1.0


def test_apply_gate_target_errors():
    s = basis_state(RegisterShape((4, 2)), (0, 0))
    with pytest.raises(RegisterRangeError):
        apply_local_gate(s, X, 2)  # beyond the layout
    with pytest.raises(RegisterRangeError):
        apply_local_gate(s, X, 0)  # register 0 is not a qubit
    with pytest.raises(NotUnitaryError):
        LocalGate("bad", np.array([[1, 0], [0, 2]]), (0,))


def test_project_onto_basis_and_uniform():
    zero = basis_state(RegisterShape((2,)), (0,))
    p, post = project_onto(zero, 0, [1, 0])
    assert p == 1.0 and np.allclose(np.asarray(post.amplitudes, complex), zero.amplitudes)
    four = basis_state(RegisterShape((4,)), (0,))
    p, post = project_onto(four, 0, uniform_vector(4))
    assert abs(p - 0.25) < 1e-15
    assert np.allclose(np.asarray(post.amplitudes, complex), uniform_vector(4))


def test_project_onto_floor_and_mismatch():
    zero = basis_state(RegisterShape((2,)), (0,))
    p, post = project_onto(zero, 0, [0, 1])
    assert p < 1e-15 and post is None
    with pytest.raises(ShapeMismatchError):
        project_onto(zero, 0, [1, 0, 0])


def test_projection_decomposition_sums_to_one():
    rng = np.random.default_rng(5)
    s = random_registered_state((3, 2, 2), rng)
    basis = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    total = sum(project_onto(s, 0, basis[:, k])[0] for k in range(3))
    assert abs(total - 1.0) < 1e-12


def test_projection_deficit_matches_complement():
    rng = np.random.default_rng(9)
    s = random_registered_state((4, 2), rng)
    v = uniform_vector(4)
    p, _ = project_onto(s, 0, v)
    assert abs((1.0 - p) - projection_deficit(s, 0, v)) < 1e-12


def test_register_distribution_and_conditional():
    s = RegisteredState(RegisterShape((2, 2)), [1, 0, 0, 1], normalize=True)
    probs = register_distribution(s, 0)
    assert np.allclose(probs, [0.5, 0.5])
    p, cond = conditional_state(s, 0, 1, drop=True)
    assert abs(p - 0.5) < 1e-15
    assert cond.shape.dims == (2,)
    assert abs(abs(cond.amplitudes[1]) - 1.0) < 1e-12


def test_measure_deterministic_outcome():
    one = basis_state(RegisterShape((2,)), (1,))
    outcome = int(select(1, 16, [0], 0, np.cumsum(register_distribution(one, 0)))[0])
    assert outcome == 1
    _, post = conditional_state(one, 0, outcome)
    assert abs(abs(post.amplitude((1,))) - 1.0) < 1e-12


def test_measure_uniform_label_frequencies():
    # uniform 4-value register: each outcome 0.25 within 4 sigma over 1e5 draws
    s = RegisteredState(RegisterShape((4, 2)), np.kron(uniform_vector(4), [1, 0]))
    n = 100_000
    outcomes = select(99, 17, np.arange(n, dtype=np.uint64), 0, np.cumsum(register_distribution(s, 0)))
    counts = np.bincount(outcomes, minlength=4)
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert np.all(np.abs(counts / n - 0.25) <= 4 * sigma)


def test_swap_reject_identical_and_orthogonal():
    rng = np.random.default_rng(13)
    a = random_registered_state((8,), rng)
    assert swap_test_reject_prob(a, a) == 0.0
    zero = basis_state(RegisterShape((2,)), (0,))
    one = basis_state(RegisterShape((2,)), (1,))
    assert abs(swap_test_reject_prob(zero, one) - 0.5) < 1e-15


def test_swap_reject_at_known_overlap():
    # |<a|b>|^2 = 1 - delta^2/4  ->  reject = delta^2/8
    for delta in (0.5, 0.125, 1e-3):
        ov = math.sqrt(1 - delta**2 / 4)
        a = basis_state(RegisterShape((2,)), (0,))
        b = RegisteredState(RegisterShape((2,)), [ov, math.sqrt(1 - ov**2)])
        assert abs(swap_test_reject_prob(a, b) - delta**2 / 8) < 1e-15


def test_swap_phase_invariance():
    rng = np.random.default_rng(17)
    a = random_registered_state((6,), rng)
    b = random_registered_state((6,), rng)
    base = swap_test_reject_prob(a, b)
    for omega in (0.1, 1.0, 2.5, math.pi):
        rotated = RegisteredState(b.shape, np.exp(1j * omega) * b.amplitudes)
        assert abs(swap_test_reject_prob(a, rotated) - base) < 1e-15


def test_swap_matches_doubled_register_circuit_oracle():
    rng = np.random.default_rng(23)
    for _ in range(30):
        a = random_registered_state((2, 3), rng)
        b = random_registered_state((2, 3), rng)
        assert abs(swap_test_reject_prob(a, b) - swap_circuit_reject_prob(a, b)) < 1e-12


def test_swap_sample_rates():
    rng = np.random.default_rng(27)
    zero = basis_state(RegisterShape((2,)), (0,))
    one = basis_state(RegisterShape((2,)), (1,))
    cases = [(zero, one, 0.5)]
    # overlap^2 = 0.5 -> reject 0.25
    b = RegisteredState(RegisterShape((2,)), [math.sqrt(0.5), math.sqrt(0.5)])
    cases.append((zero, b, 0.25))
    n = 100_000
    for idx, (sa, sb, expect) in enumerate(cases):
        trials = np.arange(n, dtype=np.uint64)
        _, rejects = tally_bernoulli(31 + idx, 18, trials, 0, float(swap_test_reject_prob(sa, sb)))
        sigma = math.sqrt(expect * (1 - expect) / n)
        assert abs(rejects / n - expect) <= 4 * sigma


def test_swap_identical_sample_always_accepts():
    rng = np.random.default_rng(29)
    a = random_registered_state((5,), rng)
    trials = np.arange(500, dtype=np.uint64)
    assert tally_bernoulli(5, 19, trials, 0, float(swap_test_reject_prob(a, a))) == (500, 0)


def test_phase_optimized_distance():
    zero = basis_state(RegisterShape((2,)), (0,))
    one = basis_state(RegisterShape((2,)), (1,))
    assert abs(phase_optimized_distance(zero, one) - math.sqrt(2)) < 1e-15
    spun = RegisteredState(RegisterShape((2,)), [np.exp(1j * 0.7), 0])
    assert phase_optimized_distance(zero, spun) < 1e-7


def test_extended_precision_round_trip():
    with mpmath.workdps(60):
        s = basis_state(RegisterShape((2, 2)), (0, 0), extended=True)
        assert s.extended
        flipped = apply_local_gate(s, X, 1)
        assert abs(complex(flipped.amplitude((0, 1))) - 1) < 1e-30
        tiny = mpmath.mpf("1e-40")
        amps = np.array([mpmath.sqrt(1 - tiny), mpmath.sqrt(tiny), mpmath.mpf(0), mpmath.mpf(0)], dtype=object)
        t = RegisteredState(RegisterShape((2, 2)), amps)
        q = swap_test_reject_prob(s, t)
        # reject = (1 - |<s|t>|^2)/2 = (1 - (1 - 1e-40))/2, far below double eps
        assert abs(q - tiny / 2) / (tiny / 2) < mpmath.mpf("1e-25")


def test_inner_product_shape_guard():
    a = basis_state(RegisterShape((2, 2)), (0, 0))
    b = basis_state(RegisterShape((4,)), (0,))
    with pytest.raises(ShapeMismatchError):
        inner_product(a, b)
