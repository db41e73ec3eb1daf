"""Exact branch sums, soundness margins, dispatcher, and sampled paths."""

import math

import mpmath
import numpy as np
import pytest
from mpmath import mpf

from ffgscon.fixtures import builtin_instances, get_fixture
from ffgscon.harness import build_witnesses, demo_magnitude
from ffgscon.instances import GsconInstance
from ffgscon.ledger import derive_parameters
from ffgscon.rng import STREAM_ROUND, CounterStream, stream_for_test
from ffgscon.states import (
    RegisteredState,
    RegisterShape,
    ShapeMismatchError,
    basis_state,
    uniform_vector,
)
from ffgscon.verifier import (
    MODE_SAMPLED,
    branch_plan,
    product_test,
    run_protocol_round,
    run_test,
    sample_round,
)
from ffgscon.witnesses import (
    AdversaryKind,
    AdversarySpec,
    WitnessS,
    WitnessU,
    build_honest_S,
    build_honest_U,
    forge_adversary,
)

from oracles import (
    equal_label_projector,
    register_projector,
    unique_test_reject_by_enumeration,
)

YES_FIXTURES = [fx for fx in builtin_instances() if fx.certificate is not None]


def honest(fx):
    return build_witnesses(fx.instance, fx.certificate)


def forge(fx, kind, mag, extended=False):
    return forge_adversary(fx.instance, fx.certificate, AdversarySpec(kind, mag), extended=extended)


# ---------------------------------------------------------------------------
# completeness
# ---------------------------------------------------------------------------


def test_honest_completeness_per_test():
    for fx in YES_FIXTURES:
        w = honest(fx)
        for i in (1, 2, 3, 4, 5, 6, 8):
            out = run_test(i, w, fx.instance)
            assert abs(float(out.accept_probability) - 1.0) <= 1e-9, (fx.name, i)
        out7 = run_test(7, w, fx.instance)
        m, eta3 = fx.instance.m, fx.instance.eta3
        bound = (1 / (2 * m)) * (eta3**2 / 2 - eta3**4 / 8)
        assert float(out7.reject_probability) <= bound + 1e-9, fx.name


def test_honest_round_meets_completeness_bound():
    for fx in YES_FIXTURES:
        led = derive_parameters(fx.instance)
        out = run_protocol_round(honest(fx), fx.instance, led)
        with mpmath.workdps(120):
            # complement comparison: total reject mass within the allowed deficit
            assert mpf(out.reject_probability) <= led.c_prime_deficit + mpf("1e-9")
            assert float(out.accept_probability) >= float(led.c_prime_lower) - 1e-9


def test_adversary_round_capped_by_soundness():
    # a boundary adversary pushes total acceptance to s' or below
    for fx in (get_fixture("idle"), get_fixture("blocked-bell")):
        led = derive_parameters(fx.instance)
        for kind, mag in [
            (AdversaryKind.MISMATCHED_U, led.delta_small),
            (AdversaryKind.WRONG_END, led.eta3 + led.h),
            (AdversaryKind.HIGH_ENERGY, led.eta2 / 2),
        ]:
            forged = forge_adversary(fx.instance, fx.certificate, AdversarySpec(kind, mag), extended=True)
            out = run_protocol_round(forged, fx.instance, led)
            with mpmath.workdps(120):
                # accept <= s'  <=>  reject >= 1 - s'
                assert mpf(out.reject_probability) >= led.one_minus_s_prime * (1 - mpf("1e-12"))


# ---------------------------------------------------------------------------
# test 1
# ---------------------------------------------------------------------------


def test1_mismatched_beats_threshold():
    for delta in (0.05, 0.2):
        fx = get_fixture("bell-flip")
        forged = forge(fx, AdversaryKind.MISMATCHED_U, delta)
        out = run_test(1, forged, fx.instance)
        assert float(out.reject_probability) >= delta**2 / 8


def test1_orthogonal_copy_accepts_half():
    fx = get_fixture("idle")
    u = build_honest_U(fx.instance, fx.certificate)
    t = np.zeros((2, fx.instance.G), dtype=complex)
    t[0, 2], t[1, 3] = 1 / math.sqrt(2), 1 / math.sqrt(2)  # disjoint gate support
    u_orth = WitnessU(RegisteredState(u.state.shape, t.ravel()))
    s = build_honest_S(fx.instance, fx.certificate)
    out = run_test(1, (u, u_orth, s, WitnessS(s.state)), fx.instance)
    assert abs(float(out.accept_probability) - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# test 2
# ---------------------------------------------------------------------------


def test2_smeared_boundary_beats_threshold():
    for name in ("idle", "bell-stepwise"):
        fx = get_fixture(name)
        led = derive_parameters(fx.instance)
        forged = forge(fx, AdversaryKind.SMEARED_GATE, (led.x, led.c), extended=True)
        out = run_test(2, forged, fx.instance)
        with mpmath.workdps(120):
            assert mpf(out.reject_probability) >= led.c * led.x**2 / 4


def test2_exact_matches_enumeration_oracle():
    fx = get_fixture("bell-flip")
    forged = forge(fx, AdversaryKind.SMEARED_GATE, (0.4, 0.2))
    out = run_test(2, forged, fx.instance)
    pa = np.asarray(forged.u.outcome_probabilities(), float)
    pb = np.asarray(forged.u_prime.outcome_probabilities(), float)
    valid = np.arange(fx.instance.G) < len(fx.instance.gate_set)
    oracle = unique_test_reject_by_enumeration(pa, pb, valid)
    assert abs(float(out.reject_probability) - oracle) < 1e-12


def test2_out_of_set_encoding_rejected():
    # register one slot wider than the gate set; mass q sits on the dead slot
    base = get_fixture("idle").instance
    inst = GsconInstance(
        n=base.n, m=base.m, terms=base.terms,
        eta2=base.eta2, eta3=base.eta3, eta4=base.eta4, delta=base.delta,
        psi_circuit=base.psi_circuit, phi_circuit=base.phi_circuit,
        gate_set=base.gate_set, gate_register_dim=len(base.gate_set) + 1,
    )
    q = 0.1
    two_m = 2 * inst.m
    pad = inst.G - 1
    t = np.zeros((two_m, inst.G))
    t[0, 0] = math.sqrt(1 / two_m - q)
    t[0, pad] = math.sqrt(q)
    t[1, 0] = math.sqrt(1 / two_m)
    u = WitnessU(RegisteredState(RegisterShape((two_m, inst.G)), t.ravel()))
    s = build_honest_S(inst, get_fixture("idle").certificate)
    out = run_test(2, (u, WitnessU(u.state), s, WitnessS(s.state)), inst)
    label_collision = float(sum(p * p for p in (0.5, 0.5)))
    assert float(out.reject_probability) >= q * label_collision
    pa = np.asarray(u.outcome_probabilities(), float)
    valid = np.arange(inst.G) < len(inst.gate_set)
    assert abs(float(out.reject_probability) - unique_test_reject_by_enumeration(pa, pa, valid)) < 1e-12


# ---------------------------------------------------------------------------
# test 3
# ---------------------------------------------------------------------------


def test3_honest_gate_projection_is_one_over_g():
    for fx in YES_FIXTURES:
        w = honest(fx)
        out = run_test(3, w, fx.instance)
        trace = dict(out.trace)
        assert abs(float(trace["gate_uniform_prob"]) - 1.0 / fx.instance.G) < 1e-12
        assert float(trace["label_nonuniform_prob"]) < 1e-12
        assert abs(float(out.accept_probability) - 1.0) < 1e-9


def test3_nonuniform_labels_beat_lemma_bound():
    fx = get_fixture("bell-flip")
    m = fx.instance.m
    for f in (0.2, 0.45):
        forged = forge(fx, AdversaryKind.NONUNIFORM_LABELS, f)
        out = run_test(3, forged, fx.instance)
        trace = dict(out.trace)
        # conditional label rejection clears f^2/(4 m^2); gate projection passes surely
        assert float(trace["label_nonuniform_prob"]) > f**2 / (4 * m**2)
        assert abs(float(trace["gate_uniform_prob"]) - 1.0) < 1e-12
        assert float(out.reject_probability) > f**2 / (4 * m**2)


def test3_single_label_uniform_gate_accepts_one_over_2m():
    fx = get_fixture("bell-flip")
    two_m = 2 * fx.instance.m
    amps = np.kron(np.eye(two_m)[0], uniform_vector(fx.instance.G))
    u = WitnessU(RegisteredState(RegisterShape((two_m, fx.instance.G)), amps))
    w = honest(fx)
    out = run_test(3, (u, w[1], w[2], w[3]), fx.instance)
    assert abs(float(out.accept_probability) - 1.0 / two_m) < 1e-12


# ---------------------------------------------------------------------------
# tests 4 and 5
# ---------------------------------------------------------------------------


def test4_inconsistent_copies_beat_threshold():
    fx = get_fixture("bell-stepwise")
    for z in (0.05, 0.2):
        forged = forge(fx, AdversaryKind.INCONSISTENT_S, z)
        out = run_test(4, forged, fx.instance)
        assert float(out.reject_probability) >= z / 4


def test4_orthogonal_sequences_accept_half():
    fx = get_fixture("idle")
    s = build_honest_S(fx.instance, fx.certificate)  # data parts all |0>
    t = np.zeros((2, 2), dtype=complex)
    t[0, 1], t[1, 1] = 1 / math.sqrt(2), 1 / math.sqrt(2)  # data parts all |1>
    s_orth = WitnessS(RegisteredState(s.state.shape, t.ravel()))
    u = build_honest_U(fx.instance, fx.certificate)
    out = run_test(4, (u, WitnessU(u.state), s, s_orth), fx.instance)
    assert abs(float(out.accept_probability) - 0.5) < 1e-12


def test5_honest_joint_projection_matches_projector_oracle():
    for fx in YES_FIXTURES:
        inst = fx.instance
        w = honest(fx)
        out = run_test(5, w, inst)
        trace = dict(out.trace)
        two_m, G = 2 * inst.m, inst.G
        assert abs(float(trace["gate_projection_prob"]) - 1.0 / G) < 1e-12
        assert abs(float(trace["label_match_prob"]) - 1.0 / two_m) < 1e-12
        # independent dense-projector recomputation of the joint success mass
        from ffgscon.states import tensor_with, _apply_matrix_axes

        joint = tensor_with(w[0].state, w[2].state)
        t = np.asarray(joint.as_tensor(), complex).copy()
        for g in range(min(G, len(inst.gate_set))):
            gate = inst.gate_set[g]
            t[:, g] = _apply_matrix_axes(t[:, g], gate.matrix, tuple(2 + tq for tq in gate.targets))
        vec = t.ravel()
        dims = joint.shape.dims
        pg = register_projector(dims, 1, uniform_vector(G))
        pl = equal_label_projector(dims, 0, 2)
        post = pl @ (pg @ vec)
        assert abs(float(np.vdot(post, post).real) - 1.0 / (two_m * G)) < 1e-12
        assert abs(float(out.accept_probability) - 1.0) < 1e-9


def test5_broken_sequence_beats_threshold():
    for name in ("idle", "bell-stepwise"):
        fx = get_fixture(name)
        led = derive_parameters(fx.instance)
        forged = forge(fx, AdversaryKind.BROKEN_SEQUENCE, led.z, extended=True)
        out = run_test(5, forged, fx.instance)
        with mpmath.workdps(120):
            r5 = (1 / (8 * mpf(fx.instance.m) * fx.instance.G)) * (led.z / 4)
            assert mpf(out.reject_probability) >= r5


def test5_macroscopic_break_visible_in_double():
    fx = get_fixture("bell-flip")
    forged = forge(fx, AdversaryKind.BROKEN_SEQUENCE, 0.2)
    out = run_test(5, forged, fx.instance)
    z = 0.2
    m, G = fx.instance.m, fx.instance.G
    assert float(out.reject_probability) >= (1 / (8 * m * G)) * (z / 4)


# ---------------------------------------------------------------------------
# tests 6, 7, 8
# ---------------------------------------------------------------------------


def test6_wrong_start_exact_branch_value():
    fx = get_fixture("bell-flip")
    m = fx.instance.m
    led = derive_parameters(fx.instance)
    for w_req in (0.3, float(led.h)):
        forged = forge(fx, AdversaryKind.WRONG_START, w_req)
        out = run_test(6, forged, fx.instance)
        expect = (1 / (2 * m)) * (w_req**2 / 2 - w_req**4 / 8)
        assert abs(float(out.reject_probability) - expect) < 1e-12
        lower = (1 / (2 * m) - 6 * float(led.mu)) * w_req**2 / 4
        assert float(out.reject_probability) >= lower


def test6_label_mass_away_from_start_always_accepts():
    fx = get_fixture("idle")
    t = np.zeros((2, 2), dtype=complex)
    t[1, 1] = 1.0  # all label mass on label 2
    s = WitnessS(RegisteredState(RegisterShape((2, 2)), t.ravel()))
    u = build_honest_U(fx.instance, fx.certificate)
    out = run_test(6, (u, WitnessU(u.state), s, WitnessS(s.state)), fx.instance)
    assert float(out.accept_probability) == 1.0


def test7_honest_offset_endpoint_rejects_exactly():
    fx = get_fixture("tilted-target")
    m, eta3 = fx.instance.m, fx.instance.eta3
    out = run_test(7, honest(fx), fx.instance)
    expect = (1 / (2 * m)) * (eta3**2 / 2 - eta3**4 / 8)
    assert abs(float(out.reject_probability) - expect) < 1e-9


def test7_exact_endpoint_accepts_perfectly():
    fx = get_fixture("bell-flip")  # honest endpoint equals the target
    out = run_test(7, honest(fx), fx.instance)
    assert abs(float(out.accept_probability) - 1.0) < 1e-12


def test7_wrong_end_beats_threshold():
    fx = get_fixture("blocked-qubit")
    led = derive_parameters(fx.instance)
    forged = forge(fx, AdversaryKind.WRONG_END, float(led.eta3 + led.h))
    out = run_test(7, forged, fx.instance)
    a = float(led.eta3 + led.h)
    r7 = (1 / (2 * fx.instance.m) - 6 * float(led.mu)) * (a**2 / 2 - a**4 / 8)
    assert float(out.reject_probability) >= r7


def test8_high_energy_beats_threshold():
    for name in ("idle", "blocked-bell"):
        fx = get_fixture(name)
        inst = fx.instance
        forged = forge(fx, AdversaryKind.HIGH_ENERGY, inst.eta2 / 2)
        out = run_test(8, forged, inst)
        assert float(out.reject_probability) >= inst.eta2 / (8 * inst.R * inst.m)


def test8_maximal_energy_sequence_rejects_surely():
    from ffgscon.instances import HamiltonianTerm, gate_i, gate_x, gate_h

    term = HamiltonianTerm(np.diag([0.0, 1.0]), (0,))
    inst = GsconInstance(
        n=1, m=1, terms=(term, term), eta2=0.5, eta3=0.25, eta4=0.75, delta=0.25,
        psi_circuit=(), phi_circuit=(), gate_set=(gate_i(0), gate_x(0), gate_h(0)),
    )
    t = np.zeros((2, 2), dtype=complex)
    t[0, 1] = t[1, 1] = 1 / math.sqrt(2)  # every sequence entry is |1>, energy R
    s = WitnessS(RegisteredState(RegisterShape((2, 2)), t.ravel()))
    u = build_honest_U(inst, get_fixture("idle").certificate)
    out = run_test(8, (u, WitnessU(u.state), s, WitnessS(s.state)), inst)
    assert abs(float(out.reject_probability) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def test_round_identity_against_independent_recomputation():
    fx = get_fixture("tilted-target")
    led = derive_parameters(fx.instance)
    w = honest(fx)
    out = run_protocol_round(w, fx.instance, led)
    with mpmath.workdps(120):
        recomputed = mpf(0)
        for i in range(1, 9):
            ti = run_test(i, w, fx.instance)
            recomputed += led.p[i - 1] * mpf(ti.reject_probability)
        assert abs(mpf(out.reject_probability) - recomputed) <= mpf("1e-12")
        assert abs(mpf(out.accept_probability) + mpf(out.reject_probability) - 1) <= mpf("1e-12")


def test_round_sampled_test_frequencies():
    fx = get_fixture("idle")
    led = derive_parameters(fx.instance)
    w = honest(fx)
    n = 20_000
    counts = np.zeros(8)
    base = CounterStream(17, 0, 0)
    for trial in range(n):
        out = run_protocol_round(w, fx.instance, led, mode=MODE_SAMPLED, stream=base.for_trial(trial))
        counts[dict(out.trace)["test"] - 1] += 1
    p = np.asarray(led.p_float())
    sigma = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(counts / n - p) <= 4 * sigma + 1e-12)


def test_sampled_paths_match_exact_rates():
    cases = [
        (1, forge(get_fixture("bell-flip"), AdversaryKind.MISMATCHED_U, 0.2), "bell-flip"),
        (2, forge(get_fixture("bell-flip"), AdversaryKind.SMEARED_GATE, (0.4, 0.25)), "bell-flip"),
        (3, forge(get_fixture("bell-flip"), AdversaryKind.NONUNIFORM_LABELS, 0.4), "bell-flip"),
        (4, forge(get_fixture("bell-flip"), AdversaryKind.INCONSISTENT_S, 0.3), "bell-flip"),
        (5, forge(get_fixture("bell-flip"), AdversaryKind.BROKEN_SEQUENCE, 0.3), "bell-flip"),
        (6, forge(get_fixture("bell-flip"), AdversaryKind.WRONG_START, 0.8), "bell-flip"),
        (7, honest(get_fixture("tilted-target")), "tilted-target"),
        (8, forge(get_fixture("bell-flip"), AdversaryKind.HIGH_ENERGY, 0.9), "bell-flip"),
    ]
    n = 10_000
    for test_id, witnesses, name in cases:
        inst = get_fixture(name).instance
        exact = float(run_test(test_id, witnesses, inst).accept_probability)
        base = CounterStream(23 + test_id, stream_for_test(test_id), 0)
        hits = 0
        for trial in range(n):
            out = run_test(test_id, witnesses, inst, mode=MODE_SAMPLED, stream=base.for_trial(trial))
            hits += out.verdict == "accept"
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / n)
        assert abs(hits / n - exact) <= 4 * sigma, test_id


SHOT_CASES = [("idle", None), ("bell-stepwise", None)] + [("bell-flip", kind) for kind in AdversaryKind]


@pytest.mark.parametrize(
    "name,kind", SHOT_CASES, ids=[name if kind is None else f"{name}-{kind.value}" for name, kind in SHOT_CASES]
)
def test_shot_equals_bulk(name, kind):
    # a sampled shot is its plan's kernel on the one-trial array [t], so the
    # rejecting shots over t < n are exactly the bulk reject tally over n trials
    fx = get_fixture(name)
    inst = fx.instance
    led = derive_parameters(inst)
    specs = () if kind is None else (AdversarySpec(kind, demo_magnitude(kind, inst, led)),)
    w = build_witnesses(inst, fx.certificate, specs)
    plans = {i: branch_plan(i, w, inst) for i in range(1, 9)}
    n, seed = 2000, 41
    trials = np.arange(n, dtype=np.uint64)
    for i in range(1, 9):
        streams = (CounterStream(seed, stream_for_test(i), t) for t in range(n))
        shots = sum(run_test(i, w, inst, mode=MODE_SAMPLED, stream=st).verdict == "reject" for st in streams)
        assert shots == plans[i].tally(seed, stream_for_test(i), trials)[1], i
    streams = (CounterStream(seed, STREAM_ROUND, t) for t in range(n))
    shots = sum(run_protocol_round(w, inst, led, mode=MODE_SAMPLED, stream=st).verdict == "reject" for st in streams)
    assert shots == sample_round(plans.__getitem__, led.round_cdf, seed, STREAM_ROUND, trials)[1]


def test_sampled_needs_stream():
    fx = get_fixture("idle")
    with pytest.raises(ValueError):
        run_test(1, honest(fx), fx.instance, mode=MODE_SAMPLED)


# ---------------------------------------------------------------------------
# product test
# ---------------------------------------------------------------------------


def test_product_identical_composites_accept():
    fx = get_fixture("bell-flip")
    w = honest(fx)
    out = product_test(w, w)
    assert abs(float(out.accept_probability) - 1.0) < 1e-12


def test_product_orthogonal_part_caps_acceptance():
    fx = get_fixture("idle")
    u, up, s, sp = honest(fx)
    t = np.zeros((2, fx.instance.G), dtype=complex)
    t[0, 2], t[1, 3] = 1 / math.sqrt(2), 1 / math.sqrt(2)
    u_orth = WitnessU(RegisteredState(u.state.shape, t.ravel()))
    out = product_test((u, up, s, sp), (u_orth, up, s, sp))
    assert float(out.accept_probability) <= 0.5 + 1e-12


def test_product_accept_is_product_of_swap_factors():
    rng = np.random.default_rng(77)
    from oracles import random_registered_state

    dims_list = [(4,), (3,), (2, 2), (5,)]
    a = [random_registered_state(d, rng) for d in dims_list]
    b = [random_registered_state(d, rng) for d in dims_list]
    out = product_test(a, b)
    expect = 1.0
    for sa, sb in zip(a, b):
        o = abs(np.vdot(np.asarray(sa.amplitudes, complex), np.asarray(sb.amplitudes, complex))) ** 2
        expect *= (1 + o) / 2
    assert abs(float(out.accept_probability) - expect) < 1e-12
    assert abs(float(out.reject_probability) - (1 - expect)) < 1e-12


def test_product_reject_keeps_mass_below_double_resolution():
    # first parts differ by an angle of 1e-10: swap rejection 5e-21, far below
    # the spacing of doubles near 1, so 1 - accept would read 0.0
    theta = 1e-10
    zero = basis_state(RegisterShape((2,)), (0,))
    tilted = RegisteredState(RegisterShape((2,)), [math.cos(theta), math.sin(theta)])
    a = [zero, zero, zero, zero]
    b = [tilted, zero, zero, zero]
    out = product_test(a, b)
    q1 = dict(out.trace)["swap_reject_1"]
    assert abs(q1 - 5e-21) <= 1e-30
    assert out.reject_probability == q1


def test_product_sampled_rate():
    rng = np.random.default_rng(78)
    from oracles import random_registered_state

    a = [random_registered_state((4,), rng) for _ in range(4)]
    b = [random_registered_state((4,), rng) for _ in range(4)]
    exact = float(product_test(a, b).accept_probability)
    n = 20_000
    base = CounterStream(5, 9, 0)
    hits = sum(
        product_test(a, b, mode=MODE_SAMPLED, stream=base.for_trial(t)).verdict == "accept" for t in range(n)
    )
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(hits / n - exact) <= 4 * sigma


def test_product_shape_guard():
    fx = get_fixture("idle")
    u, up, s, sp = honest(fx)
    with pytest.raises(ShapeMismatchError):
        product_test((u, up, s, sp), (u, up, sp, s.state and basis_state(RegisterShape((3,)), (0,))))
    with pytest.raises(ShapeMismatchError):
        product_test((u, up), (u, up))


# ---------------------------------------------------------------------------
# outcome records
# ---------------------------------------------------------------------------


def test_accept_and_reject_branch_sums_are_complementary():
    for fx in builtin_instances():
        settings = [build_witnesses(fx.instance, fx.certificate)]
        settings.append(forge_adversary(fx.instance, fx.certificate, AdversarySpec(AdversaryKind.WRONG_START, 0.4)))
        settings.append(
            forge_adversary(fx.instance, fx.certificate, AdversarySpec(AdversaryKind.HIGH_ENERGY, fx.instance.eta2 / 2))
        )
        for witnesses in settings:
            for i in range(1, 9):
                out = run_test(i, witnesses, fx.instance)
                total = float(out.accept_probability) + float(out.reject_probability)
                assert abs(total - 1.0) <= 1e-12, (fx.name, i)


def test_outcome_record_line():
    fx = get_fixture("idle")
    out = run_test(1, honest(fx), fx.instance)
    line = out.record()
    assert line.startswith("test=1 mode=exact accept=")
    assert "trace=" in line
    sampled = run_test(3, honest(fx), fx.instance, mode=MODE_SAMPLED, stream=CounterStream(1, 3, 42))
    line2 = sampled.record()
    assert "mode=sampled" in line2 and "verdict=" in line2 and "seed=1" in line2 and "trial=42" in line2


def test_outcome_probability_bounds_guard():
    from ffgscon.verifier import TestOutcome

    with pytest.raises(ValueError):
        TestOutcome(1, "exact", accept_probability=1.5)
