"""Edge behaviors: degenerate thresholds, absorbing branches, odd registers."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from ffgscon.cli import main as cli_main
from ffgscon.fixtures import builtin_instances, get_fixture
from ffgscon.harness import CSV_COLUMNS, CSV_HEADER, build_witnesses, run_lemma_suite
from ffgscon.instances import (
    GsconInstance,
    HamiltonianTerm,
    gate_h,
    gate_i,
    gate_x,
    instance_from_dict,
    instance_to_dict,
    save_instance,
    validate_instance,
)
from ffgscon.ledger import LedgerInvariantError, derive_parameters
from ffgscon.states import RegisteredState
from ffgscon.verifier import run_test
from ffgscon.witnesses import Proof


def test_degenerate_eta3_zero_is_perfectly_complete():
    # eta3 = 0: the end test loses its honest slack and c' reaches 1,
    # with no special-casing anywhere in the formulas
    fx = get_fixture("idle")
    base = fx.instance
    inst = GsconInstance(
        n=base.n, m=base.m, terms=base.terms,
        eta2=base.eta2, eta3=0.0, eta4=base.eta4, delta=base.delta,
        psi_circuit=base.psi_circuit, phi_circuit=base.phi_circuit, gate_set=base.gate_set,
    )
    assert validate_instance(inst).ok
    led = derive_parameters(inst)
    assert led.c_prime_deficit == 0
    assert led.c_prime_lower == 1
    assert led.gap_lower > 0
    w = build_witnesses(inst, fx.certificate)
    out = run_test(7, w, inst)
    assert abs(float(out.accept_probability) - 1.0) < 1e-12
    rep = run_lemma_suite(inst, fx.certificate, "idle-eta3-zero")
    assert all(r.passed for r in rep.lemma_rows)


def test_uniform_test_accepts_when_gate_projection_dies():
    # gate register orthogonal to the uniform superposition: the projection
    # fails surely, which is an absorbing accept branch
    fx = get_fixture("idle")
    inst = fx.instance
    two_m = 2 * inst.m
    row = np.array([1, -1, 0, 0]) / math.sqrt(2)  # (|I> - |X>)/sqrt2 per label
    u = RegisteredState(np.outer(np.full(two_m, 1 / math.sqrt(two_m)), row))
    w = build_witnesses(inst, fx.certificate)
    out = run_test(3, replace(w, u=u), inst)
    assert float(out.accept_probability) == 1.0


def test_sequence_test_accepts_when_controlled_branches_cancel():
    # test 5 projects only after applying the encoded gates; with data |+>
    # the I and X branches coincide, so (|I> - |X>)/sqrt2 makes the gate
    # projection fail surely and the absorbing accept branch takes all mass
    fx = get_fixture("idle")
    inst = fx.instance
    two_m = 2 * inst.m
    row = np.array([1, -1, 0, 0]) / math.sqrt(2)
    u = RegisteredState(np.outer(np.full(two_m, 1 / math.sqrt(two_m)), row))
    plus = np.array([1, 1]) / math.sqrt(2)
    s = RegisteredState(np.outer(np.full(two_m, 1 / math.sqrt(two_m)), plus))
    out5 = run_test(5, Proof(u, u, s, s), inst)
    assert float(out5.accept_probability) == 1.0
    assert dict(out5.trace)["label_match_prob"] is None


def test_padded_gate_register_serializes():
    base = get_fixture("idle").instance
    inst = GsconInstance(
        n=base.n, m=base.m, terms=base.terms,
        eta2=base.eta2, eta3=base.eta3, eta4=base.eta4, delta=base.delta,
        psi_circuit=base.psi_circuit, phi_circuit=base.phi_circuit,
        gate_set=base.gate_set, gate_register_dim=len(base.gate_set) + 3,
    )
    doc = instance_to_dict(inst)
    back = instance_from_dict(doc)
    assert back.gate_register_dim == inst.G == len(base.gate_set) + 3
    assert validate_instance(back).ok


def test_shrunken_gate_register_flagged():
    base = get_fixture("idle").instance
    inst = GsconInstance(
        n=base.n, m=base.m, terms=base.terms,
        eta2=base.eta2, eta3=base.eta3, eta4=base.eta4, delta=base.delta,
        psi_circuit=base.psi_circuit, phi_circuit=base.phi_circuit,
        gate_set=base.gate_set, gate_register_dim=2,
    )
    rep = validate_instance(inst)
    assert any("gate register" in c.name and not c.passed for c in rep.checks)


def test_cli_file_instance_with_certificate(tmp_path, capsys):
    fx = get_fixture("bell-flip")
    path = tmp_path / "bf.json"
    save_instance(fx.instance, path)
    rc = cli_main([
        "verify", str(path), "--certificate", "3", "--mode", "exact",
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["config"]["certificate"] == [3]
    # with the honest certificate every test row accepts perfectly except test 7's slack
    accepts = {row["test_id"]: row["exact_accept"] for row in doc["tests"] if row["section"] == "test"}
    assert float(accepts[1]) == 1.0 and float(accepts[6]) == 1.0
    capsys.readouterr()


def test_cli_report_echoes_the_certificate_the_proof_encodes(tmp_path, capsys):
    # without --certificate a file instance is verified on the reference (0,)*m; the echo names it
    fx = get_fixture("bell-flip")
    path = tmp_path / "bf.json"
    save_instance(fx.instance, path)
    assert cli_main(["verify", str(path), "--mode", "exact", "--out", str(tmp_path / "r.json")]) == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    rejects = {row["test_id"]: float(row["exact_reject"]) for row in doc["tests"]}
    assert doc["config"]["certificate"] == [0] and rejects[7] == pytest.approx(0.25)
    assert cli_main(["verify", "bell-flip", "--mode", "exact", "--out", str(tmp_path / "f.json")]) == 0
    assert json.loads((tmp_path / "f.json").read_text())["config"]["certificate"] == list(fx.certificate)
    capsys.readouterr()


@pytest.mark.parametrize("name", [fx.name for fx in builtin_instances()])
def test_cli_lemmas_csv_lines_have_one_cell_per_column(name, tmp_path, capsys):
    # a SMEARED_GATE line's measured=(x, c) holds a comma; the cell is quoted, so a CSV reader keeps it whole
    out = tmp_path / "lemmas.csv"
    assert cli_main(["lemmas", name, "--out", str(out), "--format", "csv"]) == 0
    with open(out, newline="") as fh:
        header, *lines = csv.reader(fh)
    assert header == [CSV_HEADER] and lines[0] == list(CSV_COLUMNS) and len(lines) == 9
    assert [len(cells) for cells in lines] == [len(CSV_COLUMNS)] * 9
    capsys.readouterr()


def test_cli_lemmas_csv_report(tmp_path, capsys):
    out = tmp_path / "lemmas.csv"
    assert cli_main(["lemmas", "idle", "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    lemma_lines = [ln for ln in lines if ln.startswith("lemma,")]
    assert len(lemma_lines) == 8
    assert all(";pass;" in ln or ln.endswith("pass;") or ";pass" in ln for ln in lemma_lines)
    capsys.readouterr()


def test_cli_non_closed_gate_set_exits_one(tmp_path, capsys):
    from ffgscon.instances import gate_ry

    inst = GsconInstance(
        n=1, m=1, terms=(HamiltonianTerm(np.diag([0.0, 1.0]), (0,)),),
        eta2=0.5, eta3=0.25, eta4=0.75, delta=0.25,
        psi_circuit=(), phi_circuit=(), gate_set=(gate_ry(0.3, 0), gate_ry(0.9, 0)),
    )
    path = tmp_path / "open.json"
    save_instance(inst, path)
    assert cli_main(["lemmas", str(path)]) == 1
    assert "adjoint" in capsys.readouterr().err


def test_cli_malformed_instance_file_exits_one(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{nope")
    assert cli_main(["validate", str(path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("verb", ["validate", "ledger", "lemmas", "verify"])
def test_cli_non_object_instance_document_exits_one(tmp_path, capsys, verb):
    for doc in ("[1, 2]", "null", '"idle"', "3"):
        path = tmp_path / "doc.json"
        path.write_text(doc)
        assert cli_main([verb, str(path)]) == 1, doc
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, doc


@pytest.mark.parametrize("verb", ["validate", "ledger", "lemmas", "verify"])
def test_cli_instance_without_terms_exits_one(tmp_path, capsys, verb):
    doc = instance_to_dict(get_fixture("bell-flip").instance)
    doc["terms"] = []
    path = tmp_path / "no-terms.json"
    path.write_text(json.dumps(doc))
    assert cli_main([verb, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err and "terms" in err


def _cli_error(argv, capsys) -> str:
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "certificate, message",
    [pytest.param(i, i, id=i) for i in ("99", "6", "-1", "-7")]
    + [pytest.param("1,2", "certificate length 2 != m = 1", id="1,2")],
)
def test_cli_certificate_index_outside_gate_set_exits_one(capsys, certificate, message):
    # bell-flip has six gates and m = 1; -1 must not silently pick the last one
    assert message in _cli_error(["verify", "bell-flip", "--mode", "exact", "--certificate", certificate], capsys)


def test_cli_adversary_magnitude_out_of_range_exits_one(capsys):
    err = _cli_error(["verify", "bell-stepwise", "--adversary", "BROKEN_SEQUENCE:5"], capsys)
    assert "link defect must lie in (0, 2/m]" in err


def test_cli_term_matrix_of_wrong_size_exits_one(tmp_path, capsys):
    doc = instance_to_dict(get_fixture("idle").instance)
    doc["terms"][0]["matrix"] = doc["terms"][0]["matrix"][:3]
    path = tmp_path / "short-term.json"
    path.write_text(json.dumps(doc))
    assert "expected 4 matrix entries, got 3" in _cli_error(["verify", str(path)], capsys)


def test_cli_three_target_gate_exits_one(tmp_path, capsys):
    doc = instance_to_dict(get_fixture("idle").instance)
    doc["gate_set"].append(
        {"name": "I3", "targets": [0, 1, 2], "matrix": [["1.0" if r == c else "0.0", "0.0"] for r in range(8) for c in range(8)]}
    )
    path = tmp_path / "three-target.json"
    path.write_text(json.dumps(doc))
    assert "targets must be 1 or 2 distinct qubit indices, got (0, 1, 2)" in _cli_error(["validate", str(path)], capsys)


def test_cli_mismatch_on_a_one_gate_register_exits_one(tmp_path, capsys):
    # idle cut to its identity gate: no second gate to move U' mass onto
    doc = instance_to_dict(get_fixture("idle").instance)
    doc["gate_set"], doc["gate_register_dim"] = doc["gate_set"][:1], 1
    path = tmp_path / "one-gate.json"
    path.write_text(json.dumps(doc))
    err = _cli_error(["verify", str(path), "--certificate", "0", "--adversary", "MISMATCHED_U"], capsys)
    assert "gate register of dimension 1 admits no mismatch" in err


def test_validation_failure_exit_code_on_lemmas(tmp_path, capsys):
    bad = GsconInstance(
        n=1, m=1, terms=(HamiltonianTerm(np.diag([0.0, 1.0]), (0,)),),
        eta2=0.5, eta3=0.25, eta4=0.75, delta=0.25,
        psi_circuit=(gate_x(0),),  # excited start state
        phi_circuit=(), gate_set=(gate_i(0), gate_x(0), gate_h(0)),
    )
    path = tmp_path / "bad.json"
    save_instance(bad, path)
    assert cli_main(["lemmas", str(path)]) == 1
    capsys.readouterr()


def test_cli_reports_byte_identical_across_processes(tmp_path):
    import subprocess
    import sys

    outs = []
    for k, workers in enumerate((1, 3)):
        out = tmp_path / f"rep{k}.json"
        cmd = [
            sys.executable, "-m", "ffgscon.cli", "verify", "idle",
            "--mode", "both", "--trials", "8000", "--seed", "77",
            "--workers", str(workers), "--out", str(out),
        ]
        res = subprocess.run(cmd, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


FUZZ_VALUES = [None, "x", -1, 0, 2.5, 1e308, "nan", "inf", "-inf", [], {}, True, 10**6]
FUZZ_VERBS = (["validate"], ["ledger"], ["verify", "--mode", "exact"], ["lemmas"])


@pytest.mark.parametrize("field", sorted(instance_to_dict(get_fixture("bell-flip").instance)))
def test_cli_single_field_fuzz_exits_with_documented_codes(tmp_path, capsys, field):
    # one field of the bell-flip document at a time; every verb must fail where
    # validate does (m = 0 or gate_register_dim = 0 divide by zero in the ledger)
    doc = instance_to_dict(get_fixture("bell-flip").instance)
    path = tmp_path / "fuzz.json"
    for value in FUZZ_VALUES:
        path.write_text(json.dumps({**doc, field: value}))
        codes = {}
        for verb in FUZZ_VERBS:
            codes[verb[0]] = rc = cli_main([verb[0], str(path), *verb[1:]])
            out = capsys.readouterr()
            assert rc in (0, 1, 2), (value, verb)
            assert "Traceback" not in out.err, (value, verb)
            if rc and verb[0] in ("ledger", "verify", "lemmas"):
                assert out.err.startswith("error: "), (value, verb)
        if codes["validate"]:
            assert codes == dict.fromkeys(codes, 1), value


@pytest.mark.parametrize("section, index, entry", [("gate_set", 5, 0), ("terms", 0, 5)])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_non_finite_matrix_entry_is_refused_at_every_verb(tmp_path, capsys, section, index, entry, value):
    # a NaN gate passed the unitarity check (NaN > eps is false): validate passed,
    # verify reported a NaN stage as reject 0 and lemmas printed a FAIL row;
    # a NaN term stopped validate with "Eigenvalues did not converge"
    doc = instance_to_dict(get_fixture("bell-flip").instance)
    doc[section][index]["matrix"][entry][0] = value
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))
    for verb in FUZZ_VERBS:
        assert cli_main([verb[0], str(path), *verb[1:]]) == 1, verb
        err = capsys.readouterr().err
        assert "Traceback" not in err and ("not unitary" in err or "non-finite" in err), (verb, err)


def test_cli_negative_eta3_fails_validation_at_every_verb(tmp_path, capsys):
    # eta3 = -0.25 and h = 0.25 make eta3 + h, the denominator of mu, exactly 0:
    # validate passed this document and ledger, verify and lemmas divided by zero
    doc = {**instance_to_dict(get_fixture("idle").instance), "eta2": "2.5", "eta3": "-0.25", "eta4": "0.75"}
    path = tmp_path / "eta3.json"
    path.write_text(json.dumps(doc))
    for verb in FUZZ_VERBS:
        assert cli_main([verb[0], str(path), *verb[1:]]) == 1, verb
        out = capsys.readouterr()
        assert "Traceback" not in out.err, verb
        assert "[FAIL] eta3 >= 0" in (out.out if verb[0] == "validate" else out.err), verb
    with pytest.raises(LedgerInvariantError, match="eta3 >= 0"):
        derive_parameters(instance_from_dict(doc))


def test_cli_negative_eta2_lists_its_failing_rows(tmp_path, capsys):
    # h = min{(eta4-eta3)/4, sqrt(eta2/R)/6} was taken before any row existed, so
    # validate printed only "error: math domain error"
    doc = {**instance_to_dict(get_fixture("idle").instance), "eta2": "-1"}
    path = tmp_path / "eta2.json"
    path.write_text(json.dumps(doc))
    for verb in FUZZ_VERBS:
        assert cli_main([verb[0], str(path), *verb[1:]]) == 1, verb
        out = capsys.readouterr()
        assert "Traceback" not in out.err and "math domain error" not in out.out + out.err, verb
        rows = out.out if verb[0] == "validate" else out.err
        assert "[FAIL] eta2 >= 0" in rows and "[FAIL] eta3 + h <= sqrt(2)" in rows, verb
    # no term: h divided by R = 0
    rep = validate_instance(replace(get_fixture("idle").instance, terms=()))
    failed = {c.name for c in rep.checks if not c.passed}
    assert {"at least one hamiltonian term", "eta3 + h <= sqrt(2)"} <= failed
