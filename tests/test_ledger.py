"""Derived constants: frozen oracle values, identities, tuning, gap order."""

import math

import mpmath
import numpy as np
import pytest
from mpmath import mpf

from ffgscon.fixtures import builtin_instances, get_fixture
from ffgscon.instances import GsconInstance, HamiltonianTerm, gate_h, gate_i, gate_ry, gate_x, validate_instance
from ffgscon.ledger import LedgerInvariantError, derive_parameters, qma2_tuning

# Fixture-calibrated floor of gap_lower / (delta^13 m^-32 G^-10): over the
# built-in fixtures and the threshold grid (delta in [0.1, 0.25]) the ratio
# never falls below 1.97e-61 and is independent of m and G; kappa sits an
# order of magnitude under that floor.  A check of the calibration, not a
# bound with independent meaning, so the ledger only reports the ratio.
GAP_ESTIMATE_KAPPA = mpf("1e-62")


def threshold_grid(
    ms=(1, 2, 3, 4),
    gate_counts=(4, 6, 8, 10),
    deltas=(0.1, 0.15, 0.2, 0.25),
) -> list[GsconInstance]:
    """A family of valid instances spanning (m, G, delta) one axis at a time.

    Used to probe how the derived thresholds move with each parameter; the
    traversal content is trivial (psi = phi = |0>) since only the ledger
    inputs matter.
    """
    out = []

    def build(m, n_gates, delta):
        gates = [gate_i(0), gate_x(0)]
        k = 1
        while len(gates) < n_gates:
            gates.append(gate_ry(0.1 * k, 0))
            gates.append(gate_ry(-0.1 * k, 0))
            k += 1
        return GsconInstance(
            n=1,
            m=m,
            terms=(HamiltonianTerm(np.diag([0.0, 1.0]), (0,)),),
            eta2=2.0 * delta,
            eta3=0.25,
            eta4=0.25 + 2.0 * delta,
            delta=delta,
            psi_circuit=(),
            phi_circuit=(),
            gate_set=tuple(gates[:n_gates]),
        )

    for m in ms:
        out.append(build(m, gate_counts[0], deltas[-1]))
    for n_gates in gate_counts:
        out.append(build(ms[0], n_gates, deltas[-1]))
    for delta in deltas:
        out.append(build(ms[0], gate_counts[0], delta))
    return out


# Frozen expected values for the idle fixture (m=1, G=4, R=1, eta2=1/2,
# eta3=1/4, eta4=3/4), produced by a straight-line evaluation of the closed
# forms at 80 significant digits, independent of the ledger code.
IDLE_ORACLE = {
    "h": "0.1178511301977579207334740603508081732141",
    "mu": "0.000262200138496512062036757816764269497591",
    "t": "49338962179.29027684947100194725826579465",
    "z": "0.00000006874891262759010661592914900433359426894",
    "c": "1.026975276584649616373206198369114547775e-22",
    "x": "0.00000000002026795773219047954479043307910778132929",
    "delta_small": "2.60183643722778819098462894152881677499e-34",
    "r1": "8.461941057607737749370165542426107163908e-69",
    "r2": "1.054678218716117578618150283075401502424e-44",
    "r3": "2.053950553169299232746412396738229095551e-23",
    "r4": "0.00000001718722815689752665398228725108339856724",
    "r5": "0.0000000005371008799030477079369464765963562052261",
    "r6": "0.001730648608225767109818678656595188829911",
    "r7": "0.03258140066377658122280276934067278646248",
    "r8": "0.0625",
    "one_minus_s": "8.461941057607737749370158753204030539136e-69",
    "p7": "2.597169208571064453070403273842637313586e-67",
    "gap": "8.293156499025021934416631398372984127442e-71",
}


def _rel(a, b):
    return abs(mpf(a) - mpf(b)) / abs(mpf(b))


def test_idle_ledger_matches_frozen_oracle():
    led = derive_parameters(get_fixture("idle").instance)
    with mpmath.workdps(60):
        for name, field in [
            ("h", led.h), ("mu", led.mu), ("t", led.t), ("z", led.z),
            ("c", led.c), ("x", led.x), ("delta_small", led.delta_small),
            ("one_minus_s", led.one_minus_s_prime), ("p7", led.p[6]), ("gap", led.gap_lower),
        ]:
            # oracle literals carry 40 digits; agreement far beyond the 1e-9 requirement
            assert _rel(field, IDLE_ORACLE[name]) < mpf("1e-35"), name
        for i in range(8):
            assert _rel(led.r[i], IDLE_ORACLE[f"r{i+1}"]) < mpf("1e-35"), f"r{i+1}"


def test_r1_two_path_cross_check():
    # delta route vs closed monomial, recomputed here from scratch
    for fx in builtin_instances():
        led = derive_parameters(fx.instance)
        with mpmath.workdps(80):
            G, m, t = mpf(fx.instance.G), mpf(fx.instance.m), led.t
            via_delta = led.delta_small**2 / 8
            closed = 1 / (32 * G**4 * m**8 * t**6)
            assert _rel(via_delta, led.r[0]) < mpf("1e-9")
            assert _rel(closed, led.r[0]) < mpf("1e-9")


def test_probability_identities():
    for fx in builtin_instances():
        led = derive_parameters(fx.instance)
        with mpmath.workdps(60):
            assert abs(sum(led.p) - 1) < mpf("1e-12")
            for i in range(8):
                assert _rel(led.p[i] * led.r[i], led.one_minus_s_prime) < mpf("1e-12")
            assert all(0 < ri < 1 for ri in led.r)
            assert 6 * led.mu <= led.h
            assert led.mu < 1 / (36 * mpf(fx.instance.m))
            assert led.eta3 + led.h <= mpmath.sqrt(mpf(2))
            assert led.gap_lower > 0
            assert led.cs_gap >= led.gap_lower


def test_gap_monotonicity_over_grid():
    base = dict(gate_counts=(4,), deltas=(0.25,))
    gaps_m = [derive_parameters(inst).gap_lower for inst in threshold_grid(ms=(1, 2, 3, 4), **base)[:4]]
    assert all(gaps_m[i] > gaps_m[i + 1] for i in range(3))
    gaps_g = [
        derive_parameters(inst).gap_lower
        for inst in threshold_grid(ms=(1,), gate_counts=(4, 6, 8, 10), deltas=(0.25,))[1:5]
    ]
    assert all(gaps_g[i] > gaps_g[i + 1] for i in range(3))
    grid_d = threshold_grid(ms=(1,), gate_counts=(4,), deltas=(0.1, 0.15, 0.2, 0.25))[2:]
    gaps_d = [derive_parameters(inst).gap_lower for inst in grid_d]
    assert all(gaps_d[i] < gaps_d[i + 1] for i in range(3))


def test_eta3_plus_h_constraint_is_a_hard_error():
    inst = GsconInstance(
        n=1,
        m=1,
        terms=(HamiltonianTerm(np.diag([0.0, 1.0]), (0,)),),
        eta2=0.5,
        eta3=1.41,
        eta4=2.0,
        delta=0.25,
        psi_circuit=(),
        phi_circuit=(),
        gate_set=(gate_i(0), gate_x(0), gate_h(0)),
    )
    with pytest.raises(LedgerInvariantError, match="sqrt"):
        derive_parameters(inst)


def test_promise_gap_violations_are_hard_errors():
    kwargs = dict(
        n=1, m=1, terms=(HamiltonianTerm(np.diag([0.0, 1.0]), (0,)),),
        psi_circuit=(), phi_circuit=(), gate_set=(gate_i(0), gate_x(0)),
    )
    with pytest.raises(LedgerInvariantError, match="eta4 - eta3"):
        derive_parameters(GsconInstance(eta2=0.5, eta3=0.6, eta4=0.7, delta=0.25, **kwargs))
    with pytest.raises(LedgerInvariantError, match="delta > 0"):
        derive_parameters(GsconInstance(eta2=0.5, eta3=0.25, eta4=0.75, delta=0.0, **kwargs))


def test_threshold_grid_instances_validate():
    grid = threshold_grid()
    assert len(grid) >= 10
    for inst in grid:
        assert validate_instance(inst).ok
        assert inst.promise_h() > 0
        assert inst.eta3 + inst.promise_h() <= math.sqrt(2.0)


# ---------------------------------------------------------------------------
# two-witness tuning, called with the complements 1 - c' and 1 - s'
# ---------------------------------------------------------------------------


def test_qma2_perfect_completeness_limit():
    # c' = 1: p = (1/50)/(11/512) = 512/550, independent of epsilon
    expected = mpf(512) / 550
    for eps in ("1e-2", "1e-4", "1e-8"):
        tun = qma2_tuning(0, mpf(eps))
        assert abs((1 - tun.one_minus_p) - expected) < mpf("1e-12")


def test_qma2_tiny_gap_example():
    tun = qma2_tuning(1 - mpf(0.5), 1 - mpf(0.5 - 1e-6))
    with mpmath.workdps(60):
        assert tun.gap2_lower >= mpf("2e-14") * (1 - mpf("1e-9"))
        assert abs(tun.gap2_lower - mpf(1e-6) ** 2 / 50) < mpf("1e-20")


def test_qma2_probability_stays_in_range():
    for c in np.linspace(0.05, 1.0, 14):
        for s in np.linspace(0.0, float(c) - 1e-3, 7):
            tun = qma2_tuning(1 - mpf(float(c)), 1 - mpf(float(s)))
            assert 0 <= tun.one_minus_p <= 1
            assert tun.one_minus_c_double_prime <= tun.one_minus_s_double_prime_upper


def test_qma2_rejects_inverted_inputs():
    with pytest.raises(ValueError):
        qma2_tuning(0.6, 0.4)
    with pytest.raises(ValueError):
        qma2_tuning(0.5, 0.5)


def test_qma2_tuning_of_every_fixture_ledger():
    # c' and s' both round to 1 at 60 digits; the complements keep the gap
    for fx in builtin_instances():
        led = derive_parameters(fx.instance)
        tun = qma2_tuning(led.c_prime_deficit, led.one_minus_s_prime)
        with mpmath.workdps(60):
            assert 0 <= tun.one_minus_p <= 1, fx.name
            assert _rel(tun.gap2_lower, led.cs_gap**2 / 50) < mpf("1e-12"), fx.name


def test_ledger_report_adds_the_two_paper_claims():
    for fx in builtin_instances():
        led = derive_parameters(fx.instance)
        tun = qma2_tuning(led.c_prime_deficit, led.one_minus_s_prime)
        lines = led.report_lines()
        assert lines[0].startswith("instance: ") and lines[-1].startswith("note: ")
        assert any(line.startswith("QMA(2): ") for line in lines), fx.name
        assert any(line.startswith("1 - p ") and mpmath.nstr(tun.one_minus_p, 25) in line for line in lines)
        assert any(line.startswith("gap order ") and mpmath.nstr(led.gap_monomial, 25) in line for line in lines)


# ---------------------------------------------------------------------------
# order of the gap bound
# ---------------------------------------------------------------------------


def test_ledger_report_mirrors_values_outside_double_range():
    # eta4 = delta = 4e-160 makes h = 1e-160: t overflows a double, and every
    # quantity built from 1/t or 1 - s' underflows
    from dataclasses import replace

    inst = replace(get_fixture("idle").instance, eta3=0.0, eta4=4e-160, delta=4e-160)
    assert validate_instance(inst).ok
    lines = derive_parameters(inst).report_lines()
    assert [line.split("=")[0].strip() for line in lines if "double: overflow" in line] == ["t"]
    assert sum("double: underflow" in line for line in lines) == 16


def test_gap_estimate_monomial_scaling():
    with mpmath.workdps(60):
        est0 = derive_parameters(get_fixture("idle").instance).gap_monomial
        doubled_m = threshold_grid(ms=(2,), gate_counts=(4,), deltas=(0.25,))[0]
        est_m = derive_parameters(doubled_m).gap_monomial
        assert _rel(est_m / est0, mpf(2) ** (-32)) < mpf("1e-20")
        halved_delta = threshold_grid(ms=(1,), gate_counts=(4,), deltas=(0.125,))[-1]
        est_d = derive_parameters(halved_delta).gap_monomial
        assert _rel(est_d / est0, mpf(2) ** (-13)) < mpf("1e-20")


def test_gap_estimate_ratio_finite_positive_on_fixtures():
    for inst in [fx.instance for fx in builtin_instances()] + threshold_grid():
        led = derive_parameters(inst)
        with mpmath.workdps(60):
            ratio = led.gap_lower / led.gap_monomial
            assert ratio > 0 and mpmath.isfinite(ratio)
            assert led.gap_lower >= GAP_ESTIMATE_KAPPA * led.gap_monomial
