"""Experiment orchestration, reports, reproducibility, and the CLI."""

import json
import math

import numpy as np
import pytest

from ffgscon.cli import main as cli_main
from ffgscon.fixtures import builtin_instances, get_fixture
from ffgscon.harness import (
    CSV_HEADER,
    DESK_CAPS,
    ExperimentConfig,
    HarnessError,
    boundary_specs,
    demo_magnitude,
    emit_report,
    enforce_desk_caps,
    resolve_instance,
    run_lemma_suite,
    run_monte_carlo,
)
from ffgscon.instances import GsconInstance, HamiltonianTerm, gate_i, gate_x, save_instance
from ffgscon.ledger import derive_parameters
from ffgscon.witnesses import AdversaryKind, AdversarySpec


def test_config_validation():
    with pytest.raises(HarnessError):
        ExperimentConfig("idle", mode="weird").check()
    with pytest.raises(HarnessError):
        ExperimentConfig("idle", mode="sampled", trials=0).check()
    with pytest.raises(HarnessError):
        ExperimentConfig("idle", workers=0).check()


def test_desk_caps_enforced():
    big = GsconInstance(
        n=DESK_CAPS["n"] + 1,
        m=1,
        terms=(HamiltonianTerm(np.diag([0.0, 1.0]), (0,)),),
        eta2=0.5, eta3=0.25, eta4=0.75, delta=0.25,
        psi_circuit=(), phi_circuit=(), gate_set=(gate_i(0), gate_x(0)),
    )
    with pytest.raises(HarnessError):
        enforce_desk_caps(big)


def test_desk_caps_at_every_verb(tmp_path, capsys):
    # an over-cap instance file is refused before any state is built
    big = GsconInstance(
        n=DESK_CAPS["n"] + 1,
        m=1,
        terms=(HamiltonianTerm(np.diag([0.0, 1.0]), (0,)),),
        eta2=0.5, eta3=0.25, eta4=0.75, delta=0.25,
        psi_circuit=(), phi_circuit=(), gate_set=(gate_i(0), gate_x(0)),
    )
    path = tmp_path / "big.json"
    save_instance(big, path)
    capsys.readouterr()
    for verb in ("validate", "ledger", "lemmas", "verify"):
        argv = [verb, str(path)] + (["--mode", "exact", "--certificate", "0"] if verb == "verify" else [])
        assert cli_main(argv) == 1, verb
        assert "desk-scale caps" in capsys.readouterr().err, verb
    with pytest.raises(HarnessError, match="desk-scale caps"):
        run_lemma_suite(big)


def test_resolve_instance_paths(tmp_path):
    inst, cert, name = resolve_instance("bell-flip")
    assert name == "bell-flip" and cert is not None
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded, cert2, name2 = resolve_instance(str(path))
    assert cert2 is None and name2 == "inst.json" and loaded.n == inst.n
    _, cert3, _ = resolve_instance(str(path), certificate=(3,))
    assert cert3.gates == (3,)
    with pytest.raises(HarnessError):
        resolve_instance("no-such-thing")


def test_exact_mode_report_contents():
    rep = run_monte_carlo(ExperimentConfig("idle", mode="exact"))
    tests = [r for r in rep.rows if r.section == "test"]
    assert [r.test_id for r in tests] == list(range(1, 9))
    assert all(r.exact_accept is not None and r.trials is None for r in tests)
    assert any(r.section == "round" for r in rep.rows)
    assert rep.ledger["r"][0].startswith("8.4619410576")


def test_sampled_within_four_sigma_everywhere():
    cfg = ExperimentConfig("bell-stepwise", mode="both", trials=30_000, seed=11)
    rep = run_monte_carlo(cfg)
    for row in rep.rows:
        p = float(row.exact_accept)
        rate = row.accepts / row.trials
        sigma = math.sqrt(p * (1 - p) / row.trials)
        assert abs(rate - p) <= 4 * sigma + 1e-12, row.test_id


def test_adversarial_sampled_within_four_sigma():
    led = derive_parameters(get_fixture("bell-flip").instance)
    specs = (AdversarySpec(AdversaryKind.WRONG_START, float(led.h)),)
    rep = run_monte_carlo(ExperimentConfig("bell-flip", mode="both", trials=30_000, seed=2, adversary=specs))
    for row in rep.rows:
        p = float(row.exact_accept)
        sigma = math.sqrt(p * (1 - p) / row.trials)
        assert abs(row.accepts / row.trials - p) <= 4 * sigma + 1e-12


def test_reports_byte_identical_across_runs_and_workers():
    mk = lambda workers: run_monte_carlo(
        ExperimentConfig("tilted-target", mode="both", trials=12_000, seed=9, workers=workers)
    ).to_json()
    one = mk(1)
    assert one == mk(1)
    assert one == mk(3)
    assert one == mk(5)


def test_single_trial_sigma_not_applicable():
    rep = run_monte_carlo(ExperimentConfig("idle", mode="sampled", trials=1, seed=0))
    assert all(r.sigma == "na" for r in rep.rows if r.trials is not None)


def test_timings_excluded_from_document_by_default():
    rep = run_monte_carlo(ExperimentConfig("idle", mode="exact"))
    assert rep.timings["total_s"] > 0
    doc = rep.to_json_dict()
    assert "timings" not in doc
    assert "timings" in rep.to_json_dict(include_timings=True)


def test_emit_json_round_trips_losslessly(tmp_path):
    rep = run_monte_carlo(ExperimentConfig("idle", mode="both", trials=500, seed=4))
    path = tmp_path / "report.json"
    emit_report(rep, path, "json")
    loaded = json.loads(path.read_text())
    assert loaded == rep.to_json_dict()
    assert json.dumps(loaded, indent=1, sort_keys=True) + "\n" == rep.to_json()


def test_emit_csv_schema_and_row_count(tmp_path):
    rep = run_monte_carlo(ExperimentConfig("idle", mode="both", trials=500, seed=4))
    path = tmp_path / "report.csv"
    emit_report(rep, path, "csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("section,")
    data = lines[2:]
    # 9 rows (8 tests + round) x 2 modes in BOTH mode
    assert len(data) == 18
    assert sum(",exact," in ln for ln in data) == 9
    assert sum(",sampled," in ln for ln in data) == 9


def test_emit_io_error():
    rep = run_monte_carlo(ExperimentConfig("idle", mode="exact"))
    with pytest.raises(IOError):
        emit_report(rep, "/no/such/dir/report.json", "json")


def test_lemma_suite_total_and_green():
    for fx in builtin_instances():
        rep = run_lemma_suite(fx.instance, fx.certificate, fx.name)
        assert len(rep.lemma_rows) == 8
        assert {r.targeted_test for r in rep.lemma_rows} == set(range(1, 9))
        assert all(r.passed for r in rep.lemma_rows), fx.name
        if fx.certificate is not None:
            assert any("final-state condition" in n and "holds" in n for n in rep.notes)


def test_boundary_specs_cover_all_kinds():
    fx = get_fixture("idle")
    led = derive_parameters(fx.instance)
    kinds = [s.kind for s in boundary_specs(fx.instance, led)]
    assert kinds == list(AdversaryKind)
    for kind in AdversaryKind:
        mag = demo_magnitude(kind, fx.instance, led)
        assert mag is not None


def test_dispatch_choice_frequencies_at_scale():
    # test-selection frequencies over 1e5 rounds match the ledger within 4 sigma
    from ffgscon import _kernels
    from ffgscon.rng import STREAM_ROUND

    fx = get_fixture("idle")
    led = derive_parameters(fx.instance)
    n = 100_000
    picks = _kernels.select(2026, STREAM_ROUND, np.arange(n, dtype=np.uint64), 0, np.cumsum(led.p_float()))
    counts = np.bincount(picks, minlength=8)
    p = np.asarray(led.p_float())
    sigma = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(counts / n - p) <= 4 * sigma + 1e-12)


def test_sampling_plan_shapes():
    fx = get_fixture("bell-flip")
    from ffgscon import _kernels
    from ffgscon.harness import build_witnesses
    from ffgscon.verifier import branch_plan

    w = build_witnesses(fx.instance, fx.certificate)
    kernels = (_kernels.tally_bernoulli, _kernels.tally_chain, _kernels.tally_unique, _kernels.tally_boundary,
               _kernels.tally_low)
    for i in range(1, 9):
        plan = branch_plan(i, w, fx.instance)
        assert plan.kernel in kernels
    _, reject_table = branch_plan(8, w, fx.instance).args
    assert reject_table.shape == (2 * fx.instance.m, fx.instance.R)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_fixtures_list(capsys):
    assert cli_main(["fixtures", "list"]) == 0
    out = capsys.readouterr().out
    for fx in builtin_instances():
        assert fx.name in out


def test_cli_validate_exit_codes(capsys, tmp_path):
    assert cli_main(["validate", "bell-flip"]) == 0
    bad = GsconInstance(
        n=1, m=1, terms=(HamiltonianTerm(np.diag([0.0, 1.5]), (0,)),),
        eta2=0.5, eta3=0.25, eta4=0.75, delta=0.25,
        psi_circuit=(), phi_circuit=(), gate_set=(gate_i(0), gate_x(0)),
    )
    path = tmp_path / "bad.json"
    save_instance(bad, path)
    assert cli_main(["validate", str(path)]) == 1
    assert cli_main(["validate", "missing-instance"]) == 1
    capsys.readouterr()


def test_cli_ledger_and_lemmas(capsys):
    assert cli_main(["ledger", "idle"]) == 0
    out = capsys.readouterr().out
    assert "r1 = delta^2/8" in out and "note:" in out
    assert cli_main(["lemmas", "blocked-qubit"]) == 0
    out = capsys.readouterr().out
    assert out.count("[pass]") == 8


def test_cli_verify_writes_reports(capsys, tmp_path):
    out_json = tmp_path / "r.json"
    rc = cli_main([
        "verify", "idle", "--mode", "both", "--trials", "2000", "--seed", "5",
        "--out", str(out_json), "--format", "json",
    ])
    assert rc == 0 and out_json.exists()
    doc = json.loads(out_json.read_text())
    assert doc["config"]["seed"] == 5
    out_csv = tmp_path / "r.csv"
    rc = cli_main([
        "verify", "idle", "--adversary", "WRONG_START", "--adversary", "MISMATCHED_U:0.1",
        "--mode", "exact", "--out", str(out_csv), "--format", "csv",
    ])
    assert rc == 0 and out_csv.read_text().startswith(CSV_HEADER)
    capsys.readouterr()


def test_cli_refuses_unknown_report_format(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", "idle", "--mode", "exact", "--out", "r.xml", "--format", "xml"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_bad_adversary_and_io_error(capsys, tmp_path):
    assert cli_main(["verify", "idle", "--adversary", "NOPE"]) == 1
    assert cli_main(["verify", "idle", "--mode", "exact", "--out", "/no/dir/x.json"]) == 2
    capsys.readouterr()


def test_cli_verify_prints_rows(capsys):
    assert cli_main(["verify", "tilted-target", "--mode", "exact"]) == 0
    out = capsys.readouterr().out
    assert "end" in out and "exact accept=" in out
