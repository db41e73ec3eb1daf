"""Built-in fixtures: label certification."""

import re

import pytest

from ffgscon.fixtures import PROMISE_TOL, builtin_instances, get_fixture, verify_certificate
from ffgscon.instances import validate_instance
from ffgscon.witnesses import honest_gate_assignment

from oracles import brute_force_no_check


def test_all_fixtures_validate():
    for fx in builtin_instances():
        rep = validate_instance(fx.instance)
        assert rep.ok, f"{fx.name}:\n" + "\n".join(rep.lines())


def test_builtin_set_covers_required_shapes():
    fixtures = builtin_instances()
    names = {f.name for f in fixtures}
    assert len(names) == len(fixtures)
    assert any(f.certificate is not None for f in fixtures)
    assert any(f.certificate is None for f in fixtures)
    idle = get_fixture("idle")  # degenerate m=1 with psi = phi
    assert idle.instance.m == 1 and idle.instance.psi_circuit == idle.instance.phi_circuit


def test_yes_certificates_replay_cleanly():
    for fx in builtin_instances():
        if fx.certificate is None:
            continue
        replay = verify_certificate(fx.instance, fx.certificate)
        assert replay.ok, fx.name
        assert replay.max_intermediate_energy <= 1e-10
        assert replay.final_distance <= fx.instance.eta3 + PROMISE_TOL


def test_tilted_target_endpoint_distance_is_exactly_eta3():
    fx = get_fixture("tilted-target")
    replay = verify_certificate(fx.instance, fx.certificate)
    assert abs(replay.final_distance - fx.instance.eta3) < 1e-12


@pytest.mark.parametrize(
    "cert, message",
    [
        pytest.param((-3,), "certificate gate index -3 outside the gate set 0..5", id="-3"),  # not gate 3 (XX)
        pytest.param((6,), "certificate gate index 6 outside the gate set 0..5", id="6"),
        pytest.param(("3",), "certificate entry 0 is '3', not a gate index", id="str"),
        pytest.param((2.9,), "certificate entry 0 is 2.9, not a gate index", id="float"),
        pytest.param((3, 3), "certificate length 2 != m = 1", id="length"),
    ],
)
def test_replay_refuses_what_the_honest_builders_refuse(cert, message):
    fx = get_fixture("bell-flip")
    for check in (verify_certificate, honest_gate_assignment):
        with pytest.raises(ValueError, match=re.escape(message)):
            check(fx.instance, cert)


def test_no_fixtures_certified_by_exhaustion():
    for fx in builtin_instances():
        if fx.certificate is not None:
            continue
        result = brute_force_no_check(fx.instance)
        assert result.certified_no, fx.name
        assert result.counterexample is None
        assert result.sequences_checked == len(fx.instance.gate_set) ** fx.instance.m


def test_yes_fixtures_fail_no_certification_with_counterexample():
    for fx in builtin_instances():
        if fx.certificate is None:
            continue
        result = brute_force_no_check(fx.instance)
        assert not result.certified_no, fx.name
        assert result.counterexample is not None


def test_brute_force_cap():
    fx = get_fixture("blocked-bell")
    with pytest.raises(ValueError):
        brute_force_no_check(fx.instance, cap=3)


def test_unknown_fixture_name():
    with pytest.raises(KeyError):
        get_fixture("does-not-exist")

