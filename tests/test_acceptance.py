"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines live.
All tolerances are pinned here; nothing is deferred to later calibration.
"""

import contextlib
import math

import mpmath
import numpy as np
from mpmath import mpf

from ffgscon.fixtures import brute_force_no_check, builtin_instances
from ffgscon.harness import (
    ExperimentConfig,
    build_witnesses,
    demo_magnitude,
    run_lemma_suite,
    run_monte_carlo,
)
from ffgscon.instances import dense_hamiltonian, energy_test_reject_prob, prepare_state_from_circuit
from ffgscon.ledger import derive_parameters, qma2_tuning
from ffgscon.rng import STREAM_ROUND, stream_for_test
from ffgscon.states import apply_local_gate, swap_test_reject_prob
from ffgscon.verifier import branch_plan, run_protocol_round, run_test, sample_round
from ffgscon.witnesses import AdversaryKind, AdversarySpec, apply_W, build_honest_S, honest_gate_assignment

from oracles import random_registered_state, swap_circuit_reject_prob

FIXTURES = builtin_instances()
YES = [fx for fx in FIXTURES if fx.certificate is not None]
NO = [fx for fx in FIXTURES if fx.certificate is None]


@contextlib.contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {text}")
        raise
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_1_swap_exactness():
    with criterion(1, "swap rejection equals the doubled-register circuit oracle to 1e-12"):
        rng = np.random.default_rng(20260810)
        for k in range(100):
            dims = [(2,), (3,), (4,), (2, 2), (2, 3)][k % 5]
            a = random_registered_state(dims, rng)
            b = random_registered_state(dims, rng)
            got = swap_test_reject_prob(a, b)
            oracle = swap_circuit_reject_prob(a, b)
            formula = (1 - abs(np.vdot(np.asarray(a.amplitudes, complex), np.asarray(b.amplitudes, complex))) ** 2) / 2
            assert abs(float(got) - oracle) < 1e-12
            assert abs(float(got) - formula) < 1e-12


def test_criterion_2_honest_completeness():
    with criterion(2, "honest witnesses: tests 1-6 and 8 accept perfectly, test 7 within its bound"):
        for fx in YES:
            inst = fx.instance
            w = build_witnesses(inst, fx.certificate)
            for i in (1, 2, 3, 4, 5, 6, 8):
                out = run_test(i, w, inst)
                assert abs(float(out.accept_probability) - 1.0) <= 1e-9, (fx.name, i)
            out7 = run_test(7, w, inst)
            bound = (1 / (2 * inst.m)) * (inst.eta3**2 / 2 - inst.eta3**4 / 8)
            assert float(out7.reject_probability) <= bound + 1e-9, fx.name
            led = derive_parameters(inst)
            rnd = run_protocol_round(w, inst, led)
            assert float(rnd.accept_probability) >= float(led.c_prime_lower) - 1e-9, fx.name
            with mpmath.workdps(120):
                assert mpf(rnd.reject_probability) <= led.c_prime_deficit + mpf("1e-9")


def test_criterion_3_w_invariance_and_cycle_identity():
    with criterion(3, "honest sequences are fixed points of the shift-and-gate unitary; the gate cycle composes to 1"):
        for fx in FIXTURES:
            inst = fx.instance
            cert = fx.certificate
            if cert is None:
                from ffgscon.witnesses import reference_certificate

                cert = reference_certificate(inst, None)
            assignment = honest_gate_assignment(inst, cert)
            s = build_honest_S(inst, cert)
            moved = apply_W(inst, assignment, s)
            assert float(np.linalg.norm(np.asarray(moved.state.amplitudes - s.state.amplitudes, complex))) <= 1e-9
            dim = 2**inst.n
            full = np.eye(dim, dtype=complex)
            from ffgscon.states import RegisteredState, RegisterShape

            for idx in assignment:
                op = np.zeros((dim, dim), dtype=complex)
                for j in range(dim):
                    col = np.zeros(dim, dtype=complex)
                    col[j] = 1.0
                    st = RegisteredState(RegisterShape((2,) * inst.n), col, check=False)
                    op[:, j] = np.asarray(apply_local_gate(st, inst.gate_set[idx], 0).amplitudes, complex)
                full = op @ full
            assert np.max(np.abs(full - np.eye(dim))) <= 1e-12, fx.name


def test_criterion_4_ledger_identities():
    with criterion(4, "probabilities sum to 1, p_i r_i is constant, thresholds agree along two evaluation paths"):
        for fx in FIXTURES:
            inst = fx.instance
            led = derive_parameters(inst)
            with mpmath.workdps(60):
                assert abs(sum(led.p) - 1) <= mpf("1e-12")
                for i in range(8):
                    rel = abs(led.p[i] * led.r[i] - led.one_minus_s_prime) / led.one_minus_s_prime
                    assert rel <= mpf("1e-12")
                # independent second path for every threshold
                m, G, R = mpf(inst.m), mpf(inst.G), mpf(inst.R)
                eta2, eta3 = led.eta2, led.eta3
                a = eta3 + led.h
                closed = (
                    1 / (32 * G**4 * m**8 * led.t**6),
                    1 / (4 * G * m**6 * led.t**4),
                    1 / (5 * G * m**4 * led.t**2),
                    led.mu**2 / (4 * m**3),
                    led.mu**2 / (32 * G * m**4),
                    (1 / (2 * m) - 6 * led.mu) * led.h**2 / 4,
                    (1 / (2 * m) - 6 * led.mu) * (a**2 / 2 - a**4 / 8),
                    eta2 / (8 * R * m),
                )
                for i in range(8):
                    assert abs(led.r[i] - closed[i]) / closed[i] <= mpf("1e-9")


def test_criterion_5_lemma_boundary_soundness():
    with criterion(5, "every boundary adversary's targeted test rejects at or above its threshold on every fixture"):
        for fx in FIXTURES:
            rep = run_lemma_suite(fx.instance, fx.certificate, fx.name)
            assert len(rep.lemma_rows) == 8
            for row in rep.lemma_rows:
                assert row.passed, (fx.name, row.kind, row.margin)
                assert mpf(row.margin) >= 0


def test_criterion_6_gap_positivity():
    with criterion(6, "completeness-soundness gap clears p7 h^2 (eta3+h)/(16 m) > 0 on every fixture"):
        for fx in FIXTURES:
            led = derive_parameters(fx.instance)
            with mpmath.workdps(60):
                assert led.gap_lower > 0
                assert led.cs_gap >= led.gap_lower
                # cs_gap is (1 - s') - (1 - c'): the exact c' - s'
                assert abs(led.cs_gap - (led.one_minus_s_prime - led.c_prime_deficit)) <= led.cs_gap * mpf("1e-12")


def test_criterion_7_two_witness_tuning_grid():
    with criterion(7, "product-test tuning: p in [0,1] and gap at least (c'-s')^2/50 on a 20x20 grid"):
        cs = np.linspace(0.05, 1.0, 20)
        for c in cs:
            for s in np.linspace(0.0, float(c) * 0.999, 20):
                tun = qma2_tuning(float(c), float(s))
                assert 0 <= tun.p_product <= 1
                target = (mpf(float(c)) - mpf(float(s))) ** 2 / 50
                assert tun.gap2_lower >= target - mpf("1e-12")


def test_criterion_8_monte_carlo_fidelity():
    with criterion(8, "sampled acceptance within 4 sigma of exact for every test, fixture and adversary; worker-count invariant bytes"):
        seed = 2026
        trials = 100_000
        idx = np.arange(trials, dtype=np.uint64)
        for fx in FIXTURES:
            inst = fx.instance
            led = derive_parameters(inst)
            settings = [()]
            settings += [

                (AdversarySpec(kind, demo_magnitude(kind, inst, led)),) for kind in AdversaryKind
            ]
            for adv in settings:
                witnesses = build_witnesses(inst, fx.certificate, adv)
                plans = {i: branch_plan(i, witnesses, inst) for i in range(1, 9)}
                for i in range(1, 9):
                    exact = float(run_test(i, witnesses, inst).accept_probability)
                    acc, rej = plans[i].tally(seed, stream_for_test(i), idx)
                    sigma = math.sqrt(exact * (1 - exact) / trials)
                    assert abs(acc / trials - exact) <= 4 * sigma + 1e-12, (fx.name, adv, i)
                round_exact = float(run_protocol_round(witnesses, inst, led).accept_probability)
                acc, rej, _ = sample_round(plans.__getitem__, led.round_cdf, seed, STREAM_ROUND, idx)
                sigma = math.sqrt(round_exact * (1 - round_exact) / trials)
                assert abs(acc / trials - round_exact) <= 4 * sigma + 1e-12, (fx.name, adv)
        docs = {
            workers: run_monte_carlo(
                ExperimentConfig("bell-stepwise", mode="both", trials=trials, seed=seed, workers=workers)
            ).to_json()
            for workers in (1, 4)
        }
        assert docs[1] == docs[4]


def test_criterion_9_energy_oracle():
    with criterion(9, "one-shot energy rejection equals <psi|H|psi>/R against dense-matrix expectation to 1e-12"):
        rng = np.random.default_rng(99)
        for fx in FIXTURES:
            inst = fx.instance
            H = dense_hamiltonian(inst)
            for _ in range(20):
                s = random_registered_state((2,) * inst.n, rng)
                v = np.asarray(s.amplitudes, complex)
                oracle = float(np.real(v.conj() @ H @ v)) / inst.R
                assert abs(energy_test_reject_prob(inst, s) - oracle) < 1e-12
            for which in ("psi", "phi"):
                ground = prepare_state_from_circuit(inst, which)
                assert energy_test_reject_prob(inst, ground) <= 1e-10


def test_criterion_10_no_promise_oracle():
    with criterion(10, "exhaustive search certifies the NO label on every brute-forceable NO fixture"):
        assert NO, "the fixture set must include NO instances"
        for fx in NO:
            assert len(fx.instance.gate_set) ** fx.instance.m <= 10**6
            result = brute_force_no_check(fx.instance)
            assert result.certified_no and result.counterexample is None, fx.name
