"""Register layout, gate application, projection and swap-test primitives."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffgscon._kernels import select, tally_chain
from ffgscon.fixtures import builtin_instances, get_fixture
from ffgscon.instances import prepare_state_from_circuit
from ffgscon.states import (
    DimensionCapError,
    LocalGate,
    NotUnitaryError,
    RegisteredState,
    RegisterRangeError,
    ShapeMismatchError,
    WITNESS_DPS,
    _apply_matrix_axes,
    _mp_matrix,
    apply_local_gate,
    basis_state,
    conditional_state,
    inner_product,
    phase_optimized_distance,
    precision,
    project_onto,
    projection_deficit,
    register_distribution,
    swap_test_reject_prob,
    tensor_with,
    uniform_vector,
    zeros,
)

from oracles import norm_sq, normalized, random_registered_state, swap_circuit_reject_prob

X = LocalGate("X", np.array([[0, 1], [1, 0]]), (0,))
H = LocalGate("H", np.array([[1, 1], [1, -1]]) / math.sqrt(2), (0,))
CNOT = LocalGate("CNOT", np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]), (0, 1))


def test_flat_order_is_big_endian():
    s = basis_state((4, 3, 2), (1, 0, 0))
    assert s.dims == (4, 3, 2)
    assert s.amplitudes.flags.c_contiguous
    # the first register is the most significant digit of the C-order flat index
    assert s.amplitudes.ravel()[6] == 1
    assert basis_state((4, 3, 2), (0, 2, 1)).amplitudes.ravel()[5] == 1


def test_shape_rejects_bad_dims_and_values():
    for amps in (np.zeros((0, 2)), np.array(1.0)):
        with pytest.raises(ValueError):
            RegisteredState(amps)
    for values in ((2, 0), (0, -1), (0,)):
        with pytest.raises(RegisterRangeError):
            basis_state((2, 2), values)


def test_state_normalization_guard():
    with pytest.raises(ValueError):
        RegisteredState([1.0, 1.0])
    s = normalized([1.0, 1.0])
    assert abs(s.amplitudes[0] - 1 / math.sqrt(2)) < 1e-15
    with pytest.raises(ValueError):
        RegisteredState([np.nan, 0.0])
    with pytest.raises(ValueError, match="finite"):
        RegisteredState([np.inf, 0.0])
    # check=False, for amplitudes an operation has just normalized, computes no norm
    assert RegisteredState([1.0, 1.0], check=False).amplitudes.tolist() == [1, 1]
    with precision(True):
        with pytest.raises(ValueError, match="not normalized"):
            RegisteredState(uniform_vector(4) * 2)
        with pytest.raises(ValueError, match="not normalized"):
            RegisteredState(np.array([mpmath.mpf("nan"), 0], dtype=object))
        assert RegisteredState(uniform_vector(4) * 2, check=False).extended


def test_state_is_immutable():
    assert RegisteredState.__slots__ == ("amplitudes",)
    s = basis_state((2,), (0,))
    with pytest.raises(AttributeError):
        s.amplitudes = None
    with pytest.raises(ValueError):
        s.amplitudes[0] = 5.0


def test_tensor_basis_case():
    zero = basis_state((2,), (0,))
    joint = tensor_with(zero, zero)
    assert joint.dims == (2, 2)
    assert joint.amplitudes[0, 0] == 1.0
    assert np.count_nonzero(joint.amplitudes) == 1


def test_tensor_separable_case():
    plus = normalized([1, 1])
    one = basis_state((2,), (1,))
    joint = tensor_with(plus, one)
    s = 1 / math.sqrt(2)
    assert abs(joint.amplitudes[0, 1] - s) < 1e-15
    assert abs(joint.amplitudes[1, 1] - s) < 1e-15
    assert joint.amplitudes[0, 0] == 0


def test_tensor_norm_of_random_states():
    rng = np.random.default_rng(7)
    a = random_registered_state((3,), rng)
    b = random_registered_state((4,), rng)
    joint = tensor_with(a, b)
    assert joint.dims == (3, 4)
    assert abs(norm_sq(joint) - 1.0) < 1e-12
    # C order: the flat tensor product is the Kronecker product of the flat vectors
    assert np.array_equal(joint.amplitudes.ravel(), np.kron(a.amplitudes, b.amplitudes))


def test_tensor_dimension_cap():
    big = RegisteredState(np.eye(1 << 11)[0])
    with pytest.raises(DimensionCapError):
        tensor_with(big, big)
    # zeros refuses before it allocates, at either precision
    for extended in (False, True):
        with precision(extended), pytest.raises(DimensionCapError):
            zeros((2,) * 21)


def test_apply_x_and_h():
    zero = basis_state((2,), (0,))
    assert apply_local_gate(zero, X, 0).amplitudes[1] == 1.0
    rng = np.random.default_rng(3)
    s = random_registered_state((2, 2, 2), rng)
    twice = apply_local_gate(apply_local_gate(s, H, 1), H, 1)
    assert np.max(np.abs(twice.amplitudes - s.amplitudes)) < 1e-12


def test_apply_cnot_textbook():
    plus0 = normalized([[1, 0], [1, 0]])  # (|00>+|10>)/sqrt2
    bell = apply_local_gate(plus0, CNOT, 0)
    s = 1 / math.sqrt(2)
    assert abs(bell.amplitudes[0, 0] - s) < 1e-15
    assert abs(bell.amplitudes[1, 1] - s) < 1e-15


def test_apply_gate_norm_preservation_sweep():
    rng = np.random.default_rng(11)
    for _ in range(25):
        s = random_registered_state((3, 2, 2, 2), rng)
        q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        g = LocalGate("rand", q, (0, 2))
        out = apply_local_gate(s, g, 1)
        assert abs(norm_sq(out) - 1.0) < 1e-12


def test_apply_gate_reversed_and_nonadjacent_targets():
    # control on the later qubit, target on the earlier one
    rev = LocalGate("CNOT", CNOT.matrix, (1, 0))
    s = basis_state((2, 2), (0, 1))
    assert apply_local_gate(s, rev, 0).amplitudes[1, 1] == 1.0
    s2 = basis_state((2, 2), (1, 0))
    assert apply_local_gate(s2, rev, 0).amplitudes[1, 0] == 1.0
    # non-adjacent pair behind a label register
    far = LocalGate("CNOT", CNOT.matrix, (2, 0))
    s3 = basis_state((3, 2, 2, 2), (0, 0, 1, 1))
    assert apply_local_gate(s3, far, 1).amplitudes[0, 1, 1, 1] == 1.0


def test_apply_gate_target_errors():
    s = basis_state((4, 2), (0, 0))
    with pytest.raises(RegisterRangeError):
        apply_local_gate(s, X, 2)  # beyond the layout
    with pytest.raises(RegisterRangeError):
        apply_local_gate(s, X, 0)  # register 0 is not a qubit
    for bad in (2, np.nan, np.inf):  # NaN > eps is false: a NaN gate used to pass as unitary
        with pytest.raises(NotUnitaryError):
            LocalGate("bad", np.array([[1, 0], [0, bad]]), (0,))
    with pytest.raises(ValueError, match=r"targets must be 1 or 2 distinct qubit indices, got \(0, 1, 2\)"):
        LocalGate("CCX", np.eye(8), (0, 1, 2))
    with pytest.raises(ValueError, match=r"matrix shape \(4, 4\) does not match 1 target\(s\)"):
        LocalGate("XX", np.eye(4), (0,))


def test_project_onto_basis_and_uniform():
    zero = basis_state((2,), (0,))
    p, post = project_onto(zero, 0, [1, 0])
    assert p == 1.0 and np.allclose(np.asarray(post.amplitudes, complex), zero.amplitudes)
    four = basis_state((4,), (0,))
    p, post = project_onto(four, 0, uniform_vector(4))
    assert abs(p - 0.25) < 1e-15
    assert np.allclose(np.asarray(post.amplitudes, complex), uniform_vector(4))


def test_project_onto_floor_and_mismatch():
    zero = basis_state((2,), (0,))
    p, post = project_onto(zero, 0, [0, 1])
    assert p == 0 and post is None
    # no floor: a tiny non-zero branch still has its post-state
    tilted = RegisteredState([math.cos(1e-10), math.sin(1e-10)])
    p, post = project_onto(tilted, 0, [0, 1])
    assert 0 < p < 1e-19 and abs(abs(post.amplitudes[1]) - 1.0) < 1e-12
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
    with pytest.raises(ShapeMismatchError, match="target vector does not match register dimension"):
        projection_deficit(s, 0, uniform_vector(3))


def test_register_distribution_and_conditional():
    s = normalized([[1, 0], [0, 1]])
    probs = register_distribution(s, 0)
    assert np.allclose(probs, [0.5, 0.5])
    p, cond = conditional_state(s, 0, 1)
    assert abs(p - 0.5) < 1e-15
    assert cond.dims == (2,)
    assert abs(abs(cond.amplitudes[1]) - 1.0) < 1e-12


def test_measure_deterministic_outcome():
    one = basis_state((2, 2), (1, 0))
    outcome = int(select(1, 16, [0], 0, np.cumsum(register_distribution(one, 0)))[0])
    assert outcome == 1
    p, post = conditional_state(one, 0, outcome)
    assert p == 1 and post.dims == (2,) and abs(abs(post.amplitudes[0]) - 1.0) < 1e-12


def test_measure_uniform_label_frequencies():
    # uniform 4-value register: each outcome 0.25 within 4 sigma over 1e5 draws
    s = RegisteredState(np.outer(uniform_vector(4), [1, 0]))
    n = 100_000
    outcomes = select(99, 17, np.arange(n, dtype=np.uint64), 0, np.cumsum(register_distribution(s, 0)))
    counts = np.bincount(outcomes, minlength=4)
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert np.all(np.abs(counts / n - 0.25) <= 4 * sigma)


def test_swap_reject_identical_and_orthogonal():
    rng = np.random.default_rng(13)
    a = random_registered_state((8,), rng)
    assert swap_test_reject_prob(a, a) == 0.0
    zero = basis_state((2,), (0,))
    one = basis_state((2,), (1,))
    assert abs(swap_test_reject_prob(zero, one) - 0.5) < 1e-15


def test_swap_reject_at_known_overlap():
    # |<a|b>|^2 = 1 - delta^2/4  ->  reject = delta^2/8
    for delta in (0.5, 0.125, 1e-3):
        ov = math.sqrt(1 - delta**2 / 4)
        a = basis_state((2,), (0,))
        b = RegisteredState([ov, math.sqrt(1 - ov**2)])
        assert abs(swap_test_reject_prob(a, b) - delta**2 / 8) < 1e-15
    # an angle of 1e-10: reject sin^2/2 = 5e-21, far below the spacing of
    # doubles near 1, so 1 - |<a|b>|^2 would read 0.0
    theta = 1e-10
    tilted = RegisteredState([math.cos(theta), math.sin(theta)])
    assert abs(swap_test_reject_prob(basis_state((2,), (0,)), tilted) - 5e-21) <= 1e-30


def test_swap_phase_invariance():
    rng = np.random.default_rng(17)
    a = random_registered_state((6,), rng)
    b = random_registered_state((6,), rng)
    base = swap_test_reject_prob(a, b)
    for omega in (0.1, 1.0, 2.5, math.pi):
        rotated = RegisteredState(np.exp(1j * omega) * b.amplitudes)
        assert abs(swap_test_reject_prob(a, rotated) - base) < 1e-15


def test_swap_matches_doubled_register_circuit_oracle():
    rng = np.random.default_rng(23)
    for _ in range(30):
        a = random_registered_state((2, 3), rng)
        b = random_registered_state((2, 3), rng)
        assert abs(swap_test_reject_prob(a, b) - swap_circuit_reject_prob(a, b)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.sampled_from(("other", "same", "copy", "extended-copy")))
@example(4, 78, "same")  # <a|a> has a rounded phase here: the overlap form alone gives 6.0e-36
def test_swap_reject_matches_circuit_oracle_property(dim, seed, partner):
    rng = np.random.default_rng(seed)
    a = random_registered_state((dim,), rng)
    b = {
        "other": lambda: random_registered_state((dim,), rng),
        "same": lambda: a,
        "copy": lambda: RegisteredState(a.amplitudes.copy()),
        "extended-copy": lambda: RegisteredState(np.array([mpmath.mpc(v) for v in a.amplitudes], dtype=object)),
    }[partner]()
    q = swap_test_reject_prob(a, b)
    assert abs(float(q) - swap_circuit_reject_prob(a, b)) < 1e-12
    if partner != "other":
        assert q == 0 and isinstance(q, mpmath.mpf) == (partner == "extended-copy")


def test_swap_sample_rates():
    rng = np.random.default_rng(27)
    zero = basis_state((2,), (0,))
    one = basis_state((2,), (1,))
    cases = [(zero, one, 0.5)]
    # overlap^2 = 0.5 -> reject 0.25
    b = RegisteredState([math.sqrt(0.5), math.sqrt(0.5)])
    cases.append((zero, b, 0.25))
    n = 100_000
    for idx, (sa, sb, expect) in enumerate(cases):
        trials = np.arange(n, dtype=np.uint64)
        _, rejects = tally_chain(31 + idx, 18, trials, 0, [0.0], [float(swap_test_reject_prob(sa, sb))])
        sigma = math.sqrt(expect * (1 - expect) / n)
        assert abs(rejects / n - expect) <= 4 * sigma


def test_swap_identical_sample_always_accepts():
    rng = np.random.default_rng(29)
    a = random_registered_state((5,), rng)
    trials = np.arange(500, dtype=np.uint64)
    assert tally_chain(5, 19, trials, 0, [0.0], [float(swap_test_reject_prob(a, a))]) == (500, 0)


def test_phase_optimized_distance():
    zero = basis_state((2,), (0,))
    one = basis_state((2,), (1,))
    assert abs(phase_optimized_distance(zero, one) - math.sqrt(2)) < 1e-15
    spun = RegisteredState([np.exp(1j * 0.7), 0])
    assert phase_optimized_distance(zero, spun) < 1e-7


def _constructor_dtypes():
    inst = get_fixture("bell-flip").instance
    built = (
        zeros((2, 3)),
        basis_state((2, 3), (1, 2)).amplitudes,
        uniform_vector(6),
        prepare_state_from_circuit(inst, "psi").amplitudes,
        prepare_state_from_circuit(inst, "phi").amplitudes,
    )
    return {a.dtype for a in built}


def test_constructors_build_at_the_enclosing_precision():
    assert _constructor_dtypes() == {np.dtype(np.complex128)}
    with precision(True):
        assert _constructor_dtypes() == {np.dtype(object)}
        assert abs(sum(abs(a) ** 2 for a in uniform_vector(6)) - 1) <= mpmath.mpf("1e-115")
        with precision(False):
            assert _constructor_dtypes() == {np.dtype(np.complex128)}
        assert _constructor_dtypes() == {np.dtype(object)}
    assert _constructor_dtypes() == {np.dtype(np.complex128)}


def test_extended_precision_round_trip():
    with precision(True):
        s = basis_state((2, 2), (0, 0))
        assert s.extended
        flipped = apply_local_gate(s, X, 1)
        assert abs(complex(flipped.amplitudes[0, 1]) - 1) < 1e-30
        tiny = mpmath.mpf("1e-40")
        amps = np.array([[mpmath.sqrt(1 - tiny), mpmath.sqrt(tiny)], [mpmath.mpf(0), mpmath.mpf(0)]], dtype=object)
        t = RegisteredState(amps)
        q = swap_test_reject_prob(s, t)
        # reject = (1 - |<s|t>|^2)/2 = (1 - (1 - 1e-40))/2, far below double eps
        assert abs(q - tiny / 2) / (tiny / 2) < mpmath.mpf("1e-25")


def _mixed_dtype_contraction(tensor, matrix, axes):
    """The contraction as it was: the complex128 block meets the object tensor, converted on every product."""
    k = len(axes)
    dims = tuple(tensor.shape[ax] for ax in axes)
    out = np.tensordot(np.asarray(matrix).reshape(dims + dims), tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


@pytest.mark.parametrize("build_dps", [15, WITNESS_DPS])
def test_cached_mpmath_block_keeps_every_bit(build_dps):
    # every gate and term matrix of the six fixtures; the blocks are built at
    # build_dps digits and used at 120, where the mixed-dtype contraction
    # converted each entry anew
    rng = np.random.default_rng(61)
    _mp_matrix.cache_clear()
    for fx in builtin_instances():
        inst = fx.instance
        gates = (*inst.gate_set, *inst.psi_circuit, *inst.phi_circuit)
        cases = [(g.matrix, g.targets) for g in gates] + [(t.matrix, t.support) for t in inst.terms]
        with mpmath.workdps(build_dps):
            blocks = [_mp_matrix(m.tobytes(), m.shape) for m, _ in cases]
        with precision(True):
            for (matrix, axes), block in zip(cases, blocks):
                assert not block.flags.writeable and _mp_matrix(matrix.tobytes(), matrix.shape) is block
                re, im = rng.random((2, *(2,) * inst.n))
                tensor = np.frompyfunc(lambda a, b: mpmath.mpc(mpmath.sqrt(a), -mpmath.cbrt(b)), 2, 1)(re, im)
                got = _apply_matrix_axes(tensor, matrix, axes)
                want = _mixed_dtype_contraction(tensor, matrix, axes)
                assert [z._mpc_ for z in got.ravel()] == [z._mpc_ for z in want.ravel()], (fx.name, axes)


def test_inner_product_shape_guard():
    a = basis_state((2, 2), (0, 0))
    b = basis_state((4,), (0,))
    with pytest.raises(ShapeMismatchError):
        inner_product(a, b)
