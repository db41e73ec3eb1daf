"""Exact branch sums, soundness margins, dispatcher, and sampled paths."""

import math
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from ffgscon import verifier
from ffgscon._kernels import holds_uniform, select
from ffgscon.fixtures import builtin_instances, get_fixture
from ffgscon.harness import build_witnesses, demo_magnitude
from ffgscon.instances import GsconInstance
from ffgscon.ledger import derive_parameters
from ffgscon.rng import STREAM_ROUND, CounterStream
from ffgscon.states import (
    WITNESS_DPS,
    RegisteredState,
    ShapeMismatchError,
    precision,
    uniform_vector,
)
from ffgscon.verifier import (
    MODE_SAMPLED,
    branch_plan,
    run_protocol_round,
    run_test,
    sample_round,
)
from ffgscon.witnesses import (
    AdversaryKind,
    AdversarySpec,
    Proof,
    build_honest_S,
    build_honest_U,
    forge_adversary,
    honest_proof,
)

from oracles import (
    equal_label_projector,
    random_registered_state,
    register_projector,
    unique_test_reject_by_enumeration,
)

YES_FIXTURES = [fx for fx in builtin_instances() if fx.certificate is not None]


def honest(fx):
    return build_witnesses(fx.instance, fx.certificate)


def forge(fx, kind, mag, extended=False):
    base = honest_proof(fx.instance, fx.certificate, extended=extended)
    return forge_adversary(base, fx.instance, AdversarySpec(kind, mag))


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
            base = honest_proof(fx.instance, fx.certificate, extended=True)
            forged = forge_adversary(base, fx.instance, AdversarySpec(kind, mag))
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
    u_orth = RegisteredState(t)
    s = build_honest_S(fx.instance, fx.certificate)
    out = run_test(1, Proof(u, u_orth, s, s), fx.instance)
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
    pa = np.asarray(np.abs(forged.u.amplitudes) ** 2, float)
    pb = np.asarray(np.abs(forged.u_prime.amplitudes) ** 2, float)
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
    u = RegisteredState(t)
    s = build_honest_S(inst, get_fixture("idle").certificate)
    out = run_test(2, Proof(u, u, s, s), inst)
    label_collision = float(sum(p * p for p in (0.5, 0.5)))
    assert float(out.reject_probability) >= q * label_collision
    pa = np.asarray(np.abs(u.amplitudes) ** 2, float)
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
    u = RegisteredState(np.outer(np.eye(two_m)[0], uniform_vector(fx.instance.G)))
    w = honest(fx)
    out = run_test(3, replace(w, u=u), fx.instance)
    assert abs(float(out.accept_probability) - 1.0 / two_m) < 1e-12


def _tilted_gate_proof(fx, k):
    """Extended honest proof whose U has all label mass on label 0 and gate overlap 10^-k with uniform."""
    inst = fx.instance
    two_m, G = 2 * inst.m, inst.G
    with precision(True):
        eps = mpf(10) ** -k
        perp = np.array([1, -1] + [0] * (G - 2), dtype=object) / mpmath.sqrt(2)  # orthogonal to uniform
        gate = eps * uniform_vector(G) + mpmath.sqrt(1 - eps**2) * perp
        amps = np.full((two_m, G), mpmath.mpc(0), dtype=object)
        amps[0] = gate
        u = RegisteredState(amps)
    return replace(honest_proof(inst, fx.certificate, extended=True), u=u, u_prime=u)


def test3_tiny_gate_overlap_keeps_its_reject_mass():
    # the projection onto the uniform gate register succeeds with 1e-18, far
    # below double resolution of 1 but carried by the 120-digit amplitudes
    fx = get_fixture("idle")
    out = run_test(3, _tilted_gate_proof(fx, 9), fx.instance)
    with mpmath.workdps(WITNESS_DPS):
        assert abs(out.reject_probability - mpf("5e-19")) <= mpf("5e-79")
    assert float(out.reject_probability) > float(derive_parameters(fx.instance).r[2])


@settings(max_examples=20, deadline=None)
@given(st.integers(8, 50))
def test3_reject_is_exact_at_any_gate_overlap(k):
    fx = get_fixture("idle")
    two_m = 2 * fx.instance.m
    with mpmath.workdps(WITNESS_DPS):
        expect = mpf(10) ** (-2 * k) * (1 - mpf(1) / two_m)
        proof = _tilted_gate_proof(fx, k)
        assert abs(run_test(3, proof, fx.instance).reject_probability - expect) <= mpf("1e-60") * expect


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
    s_orth = RegisteredState(t)
    u = build_honest_U(fx.instance, fx.certificate)
    out = run_test(4, Proof(u, u, s, s_orth), fx.instance)
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

        joint = tensor_with(w.u, w.s)
        t = np.asarray(joint.amplitudes, complex).copy()
        for g in range(min(G, len(inst.gate_set))):
            gate = inst.gate_set[g]
            t[:, g] = _apply_matrix_axes(t[:, g], gate.matrix, tuple(2 + tq for tq in gate.targets))
        vec = t.ravel()
        dims = joint.dims
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
    s = RegisteredState(t)
    u = build_honest_U(fx.instance, fx.certificate)
    out = run_test(6, Proof(u, u, s, s), fx.instance)
    assert float(out.accept_probability) == 1.0


def test6_tiny_start_label_mass_keeps_its_reject_mass():
    # label 0 holds mass 1e-18 at 120 digits, with data at angle 1 from |psi> = |0>
    fx = get_fixture("idle")
    with mpmath.workdps(WITNESS_DPS):
        amps = np.full((2, 2), mpmath.mpc(0), dtype=object)
        amps[0] = mpf("1e-9") * mpmath.cos(1), mpf("1e-9") * mpmath.sin(1)
        amps[1, 0] = mpmath.sqrt(1 - mpf("1e-18"))
        s = RegisteredState(amps)
        proof = replace(honest_proof(fx.instance, fx.certificate, extended=True), s=s, s_prime=s)
        expect = mpf("1e-18") * mpmath.sin(1) ** 2 / 2
        out = run_test(6, proof, fx.instance)
        assert abs(out.reject_probability - expect) <= mpf("1e-60") * expect


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


@pytest.mark.parametrize("extended", [False, True])
def test_empty_end_label_reads_zero_in_tests_7_and_8(extended):
    # S holds |psi> on label 0 and no mass on label m: the end test cannot pick
    # that label, and the energy test gives it energy 0
    from ffgscon.instances import prepare_state_from_circuit
    from ffgscon.states import conditional_state, zeros

    fx = get_fixture("bell-flip")
    inst = fx.instance
    base = honest_proof(inst, fx.certificate, extended=extended)
    with precision(extended):
        t = zeros(base.s.dims)
        t[0] = prepare_state_from_circuit(inst, "psi").amplitudes
    s = RegisteredState(t)
    assert conditional_state(s, 0, inst.m) == (0, None)
    proof = replace(base, s=s, s_prime=s)
    end, low = branch_plan(7, proof, inst), branch_plan(8, proof, inst)
    assert end.reject == 0 and not end.live
    assert low.reject == 0 and not np.any(low.args[1][inst.m])  # label m's row of the reject table
    trials = np.arange(2000, dtype=np.uint64)
    for plan in (end, low):
        assert plan.tally(5, plan.test_id, trials) == (trials.size, 0)


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
    s = RegisteredState(t)
    u = build_honest_U(inst, get_fixture("idle").certificate)
    out = run_test(8, Proof(u, u, s, s), inst)
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
        out = run_protocol_round(w, fx.instance, led, mode=MODE_SAMPLED, stream=replace(base, trial=trial))
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
        base = CounterStream(23 + test_id, test_id, 0)
        hits = 0
        for trial in range(n):
            out = run_test(test_id, witnesses, inst, mode=MODE_SAMPLED, stream=replace(base, trial=trial))
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
    n, seed = 2000, 41
    trials = np.arange(n, dtype=np.uint64)
    for i in range(1, 9):
        streams = (CounterStream(seed, i, t) for t in range(n))
        shots = sum(run_test(i, w, inst, mode=MODE_SAMPLED, stream=st).verdict == "reject" for st in streams)
        assert shots == branch_plan(i, w, inst).tally(seed, i, trials)[1], i
    streams = (CounterStream(seed, STREAM_ROUND, t) for t in range(n))
    shots = sum(run_protocol_round(w, inst, led, mode=MODE_SAMPLED, stream=st).verdict == "reject" for st in streams)
    assert shots == sample_round(lambda i: branch_plan(i, w, inst), led.round_cdf, seed, STREAM_ROUND, trials)[1]


def _mixed_round():
    """bell-flip with four deviations, so that most tests can reject, and a uniform test choice."""
    fx = get_fixture("bell-flip")
    inst = fx.instance
    led = derive_parameters(inst)
    kinds = (AdversaryKind.MISMATCHED_U, AdversaryKind.NONUNIFORM_LABELS, AdversaryKind.WRONG_START, AdversaryKind.HIGH_ENERGY)
    w = build_witnesses(inst, fx.certificate, tuple(AdversarySpec(k, demo_magnitude(k, inst, led)) for k in kinds))
    return w, inst, replace(led, p=(mpf(1) / 8,) * 8)


def test_round_over_several_tests_equals_bulk():
    # every built-in round_cdf has cdf[0] == 1; a uniform choice sends each
    # test its own masked trials in bulk and the whole one-trial array per shot
    w, inst, led = _mixed_round()
    cdf = led.round_cdf
    n, seed = 800, 43
    trials = np.arange(n, dtype=np.uint64)
    _, bulk_rejects, picks = sample_round(lambda i: branch_plan(i, w, inst), cdf, seed, STREAM_ROUND, trials)
    assert np.array_equal(picks, select(seed, STREAM_ROUND, trials, 0, cdf) + 1)
    assert set(picks.tolist()) == set(range(1, 9))
    shots = [run_protocol_round(w, inst, led, mode=MODE_SAMPLED, stream=CounterStream(seed, STREAM_ROUND, t)) for t in range(n)]
    assert [dict(out.trace)["test"] for out in shots] == picks.tolist()
    assert sum(out.verdict == "reject" for out in shots) == bulk_rejects > 0


# ---------------------------------------------------------------------------
# plans cached on the proof
# ---------------------------------------------------------------------------


def _count_plan_builds(monkeypatch):
    built = Counter()
    for i, build in list(verifier._PLAN_BUILDERS.items()):

        def counted(proof, inst, i=i, build=build):
            built[i] += 1
            return build(proof, inst)

        monkeypatch.setitem(verifier._PLAN_BUILDERS, i, counted)
    return built


def test_shots_build_each_plan_once(monkeypatch):
    built = _count_plan_builds(monkeypatch)
    fx = get_fixture("bell-stepwise")
    inst = fx.instance
    led = derive_parameters(inst)
    w = honest(fx)
    picked = set()
    for t in range(200):
        out = run_protocol_round(w, inst, led, mode=MODE_SAMPLED, stream=CounterStream(3, STREAM_ROUND, t))
        picked.add(dict(out.trace)["test"])
    assert built == {i: 1 for i in picked}
    for i in range(1, 9):
        for t in range(200):
            run_test(i, w, inst, mode=MODE_SAMPLED, stream=CounterStream(3, i, t))
    assert built == {i: 1 for i in range(1, 9)}


def test_replaced_proof_starts_an_empty_cache():
    fx = get_fixture("bell-flip")
    inst = fx.instance
    w = honest(fx)
    for t in range(50):
        run_test(3, w, inst, mode=MODE_SAMPLED, stream=CounterStream(4, 3, t))
    assert abs(float(run_test(3, w, inst).accept_probability) - 1.0) < 1e-9
    two_m = 2 * inst.m
    u = RegisteredState(np.outer(np.eye(two_m)[0], uniform_vector(inst.G)))
    out = run_test(3, replace(w, u=u), inst)
    assert abs(float(out.accept_probability) - 1.0 / two_m) < 1e-12
    assert abs(float(run_test(3, w, inst).accept_probability) - 1.0) < 1e-9


def test_one_proof_against_two_instances():
    # a cached plan answers only for the instance object it was built on
    from ffgscon.instances import HamiltonianTerm, gate_x

    fx = get_fixture("idle")
    inst = fx.instance
    others = {
        8: replace(inst, terms=(HamiltonianTerm(np.diag([1.0, 0.0]), (0,)),)),  # |0> now costs 1
        7: replace(inst, phi_circuit=(gate_x(0),)),  # target |1>, orthogonal to the honest end
    }
    w = honest(fx)
    for test_id, other in others.items():
        for target in (inst, other, inst, other):
            got = run_test(test_id, w, target)
            fresh = run_test(test_id, honest(fx), target)
            assert (got.accept_probability, got.reject_probability) == (
                fresh.accept_probability,
                fresh.reject_probability,
            ), (test_id, target is inst)
        assert run_test(test_id, w, inst).reject_probability != run_test(test_id, w, other).reject_probability


@pytest.mark.parametrize("field", ["u", "u_prime", "s", "s_prime"])
def test_proof_refuses_mixed_precision(field):
    fx = get_fixture("bell-flip")
    f64 = honest_proof(fx.instance, fx.certificate)
    ext = honest_proof(fx.instance, fx.certificate, extended=True)
    with pytest.raises(ShapeMismatchError, match="witnesses must share one precision level"):
        replace(ext, **{field: getattr(f64, field)})


def test_energy_test_refuses_a_sequence_of_the_wrong_data_layout():
    # S on (2m, 4) rather than (2m, 2, 2): the data register is not n qubits
    fx = get_fixture("bell-flip")
    h = honest_proof(fx.instance, fx.certificate)
    s = RegisteredState(h.s.amplitudes.reshape(2, 4))
    with pytest.raises(ValueError, match=r"expected a 2-qubit data state, got layout \(4,\)"):
        run_test(8, Proof(h.u, h.u, s, s), fx.instance)


EXTENDED_AGREEMENT = 1e-13  # absolute, on every test's reject sum, for every proof below


@pytest.mark.parametrize("name", [fx.name for fx in builtin_instances()])
def test_double_and_extended_proofs_agree(name):
    # one proof built on double and on 120-digit amplitudes: the honest one and
    # each adversary kind at its double-representable demo magnitude
    fx = get_fixture(name)
    inst, cert = fx.instance, fx.certificate
    ledger = derive_parameters(inst)
    builds = {"honest": lambda ext: honest_proof(inst, cert, extended=ext)}
    for kind in AdversaryKind:
        spec = AdversarySpec(kind, demo_magnitude(kind, inst, ledger))
        builds[kind.value] = lambda ext, spec=spec: forge_adversary(
            honest_proof(inst, cert, extended=ext), inst, spec
        )
    for label, build in builds.items():
        f64, ext = build(False), build(True)
        for i in range(1, 9):
            gap = abs(float(branch_plan(i, f64, inst).reject) - float(branch_plan(i, ext, inst).reject))
            assert gap <= EXTENDED_AGREEMENT, (label, i, gap)


@st.composite
def _random_proofs(draw):
    fx = draw(st.sampled_from(builtin_instances()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inst = fx.instance
    two_m = 2 * inst.m
    u, up = (random_registered_state((two_m, inst.G), rng) for _ in range(2))
    s, sp = (random_registered_state((two_m,) + (2,) * inst.n, rng) for _ in range(2))
    return inst, Proof(u, up, s, sp)


@settings(max_examples=25, deadline=None)
@given(_random_proofs(), st.integers(0, 2**64 - 1), st.integers(0, 2**20))
def test_cached_plan_equals_a_fresh_one(case, seed, trial):
    inst, proof = case
    for i in range(1, 9):
        branch_plan(i, proof, inst).tally(seed, i, [trial])  # fills the cache
        cached, fresh = branch_plan(i, proof, inst), branch_plan(i, replace(proof), inst)
        assert cached is branch_plan(i, proof, inst) and cached is not fresh
        a, b = cached.exact(), fresh.exact()
        assert (a.accept_probability, a.reject_probability) == (b.accept_probability, b.reject_probability), i
        assert a.trace == b.trace, i
        assert cached.tally(seed, i, [trial]) == fresh.tally(seed, i, [trial]), i


def test_sampled_needs_stream():
    fx = get_fixture("idle")
    with pytest.raises(ValueError):
        run_test(1, honest(fx), fx.instance, mode=MODE_SAMPLED)


@pytest.mark.parametrize(
    "entry",
    [
        lambda w, inst, led: run_test(1, w, inst, mode="Exact", stream=CounterStream(3, 1, 0)),
        lambda w, inst, led: run_protocol_round(w, inst, led, mode="bogus"),
        lambda w, inst, led: run_test(1, w, inst, mode="both"),
        lambda w, inst, led: run_protocol_round(w, inst, led, mode=MODE_SAMPLED),
    ],
    ids=["misspelt-exact-with-stream", "bogus-round", "both", "round-without-stream"],
)
def test_verdict_entry_points_refuse_what_they_cannot_serve(entry):
    fx = get_fixture("idle")
    with pytest.raises(ValueError, match="mode"):
        entry(honest(fx), fx.instance, derive_parameters(fx.instance))


@pytest.mark.parametrize("test_id", [0, 9, "PRODUCT"])
def test_unknown_test_id_is_named(test_id):
    fx = get_fixture("idle")
    proof = honest(fx)
    for entry in (branch_plan, run_test):
        with pytest.raises(ValueError, match=f"test id must be one of 1..8, got {test_id!r}"):
            entry(test_id, proof, fx.instance)
    assert proof.plans == {}


# ---------------------------------------------------------------------------
# reject arguments on the uniform grid
# ---------------------------------------------------------------------------

UNIT_FLOATS = st.one_of(
    st.floats(0, 1),
    st.floats(0, 2.0**-1022),  # subnormals
    st.floats(0, 2.0**-50),  # dust
    st.integers(0, 2**53).map(lambda k: k * 2.0**-53),  # grid multiples, 0 and 1.0 among them
    st.sampled_from([2.0**-54, math.nextafter(2.0**-54, 1), 3 * 2.0**-54, 1.0, 1 / 3]),
)


@settings(max_examples=300, deadline=None)
@given(UNIT_FLOATS)
def test_grid_moves_a_reject_argument_to_the_nearest_uniform(p):
    g = verifier._grid(p)
    assert float(g * 2**53).is_integer()
    assert abs(g - p) <= 2**-54
    if p <= 2**-54:
        assert g == 0


def test_grid_keeps_nan_live():
    g = verifier._grid(math.nan)
    assert math.isnan(g) and holds_uniform(0.0, g)


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("name", ["idle", "bell-flip", "bell-stepwise", "tilted-target"])
def test_honest_dust_leaves_no_plan_live(name, extended):
    # double rounding leaves reject dust far below 2**-54 in tests 3, 5 and 7;
    # on the grid it is 0, so only tilted-target's real end-test mass is live
    fx = get_fixture(name)
    proof = honest_proof(fx.instance, fx.certificate, extended=extended)
    plans = [branch_plan(i, proof, fx.instance) for i in range(1, 9)]
    assert [p.test_id for p in plans if p.live] == ([7] if name == "tilted-target" else [])
    if name == "idle" and not extended:
        # the exact sum keeps its dust; only the kernel argument moved
        assert plans[4].reject == 1.5407439555097894e-33 and plans[4].args[1][2] == 0.0


# ---------------------------------------------------------------------------
# outcome records
# ---------------------------------------------------------------------------


def test_accept_and_reject_branch_sums_are_complementary():
    for fx in builtin_instances():
        settings = [build_witnesses(fx.instance, fx.certificate)]
        base = honest_proof(fx.instance, fx.certificate)
        settings.append(forge_adversary(base, fx.instance, AdversarySpec(AdversaryKind.WRONG_START, 0.4)))
        settings.append(
            forge_adversary(base, fx.instance, AdversarySpec(AdversaryKind.HIGH_ENERGY, fx.instance.eta2 / 2))
        )
        for witnesses in settings:
            for i in range(1, 9):
                out = run_test(i, witnesses, fx.instance)
                total = float(out.accept_probability) + float(out.reject_probability)
                assert abs(total - 1.0) <= 1e-12, (fx.name, i)


def _field_values(outcome):
    return [getattr(outcome, f.name) for f in fields(outcome)]


def test_outcomes_are_built_once_per_plan():
    TestOutcome = verifier.TestOutcome
    w, inst, led = _mixed_round()
    for i in range(1, 9):
        plan = branch_plan(i, w, inst)
        assert run_test(i, w, inst) is plan.exact() is plan.exact()
        assert not {"_verdicts", "_round_verdicts"} & set(vars(plan))  # exact sums build no sampled outcome
    verdicts = Counter()
    for t in range(400):
        for i in range(1, 9):
            stream = CounterStream(47, i, t)
            out = run_test(i, w, inst, mode=MODE_SAMPLED, stream=stream)
            plan = branch_plan(i, w, inst)
            rejected = plan.tally(47, i, [t])[1]
            built = TestOutcome(i, MODE_SAMPLED, verdict="reject" if rejected else "accept", trace=plan.trace)
            assert _field_values(out) == _field_values(built)
            assert run_test(i, w, inst, mode=MODE_SAMPLED, stream=stream) is out
            verdicts[i, out.verdict] += 1
        stream = CounterStream(47, STREAM_ROUND, t)
        out = run_protocol_round(w, inst, led, mode=MODE_SAMPLED, stream=stream)
        _, rejected, picks = sample_round(lambda i: branch_plan(i, w, inst), led.round_cdf, 47, STREAM_ROUND, [t])
        pick = int(picks[0])
        trace = (("test", pick),) + branch_plan(pick, w, inst).trace
        built = TestOutcome("ROUND", MODE_SAMPLED, verdict="reject" if rejected else "accept", trace=trace)
        assert _field_values(out) == _field_values(built)
        assert run_protocol_round(w, inst, led, mode=MODE_SAMPLED, stream=stream) is out
        verdicts["ROUND", out.verdict] += 1
    assert verdicts["ROUND", "reject"] and verdicts["ROUND", "accept"]
    assert sum(verdicts[i, "reject"] > 0 for i in range(1, 9)) >= 4
    for out in (run_test(1, w, inst), run_test(1, w, inst, mode=MODE_SAMPLED, stream=CounterStream(47, 1, 0)), out):
        with pytest.raises(FrozenInstanceError):
            out.verdict = "accept"


def test_outcome_probability_bounds_guard():
    from ffgscon.verifier import TestOutcome

    with pytest.raises(ValueError):
        TestOutcome(1, "exact", accept_probability=1.5)
