"""Experiment orchestration, reports, reproducibility, and the CLI."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from ffgscon import _kernels, harness, witnesses
from ffgscon.cli import build_parser
from ffgscon.cli import main as cli_main
from ffgscon.fixtures import builtin_instances, get_fixture
from ffgscon.harness import (
    BLOCK_TRIALS,
    CSV_HEADER,
    DESK_CAPS,
    ExperimentConfig,
    HarnessError,
    boundary_specs,
    build_witnesses,
    demo_magnitude,
    emit_report,
    enforce_desk_caps,
    resolve_instance,
    run_lemma_suite,
    run_monte_carlo,
)
from ffgscon.instances import GsconInstance, HamiltonianTerm, gate_i, gate_x, save_instance
from ffgscon.ledger import derive_parameters
from ffgscon.rng import STREAM_ROUND, CounterStream
from ffgscon.verifier import MODE_EXACT, MODE_SAMPLED, branch_plan, run_protocol_round, run_test, sample_round
from ffgscon.witnesses import TARGETED_TEST, AdversaryKind, AdversarySpec, forge_adversary, honest_proof


def test_config_validation():
    with pytest.raises(HarnessError):
        ExperimentConfig("idle", mode="weird").check()
    with pytest.raises(HarnessError):
        ExperimentConfig("idle", mode="sampled", trials=0).check()
    with pytest.raises(HarnessError):
        ExperimentConfig("idle", workers=0).check()
    with pytest.raises(ValueError, match="kind"):  # refused when the spec is built
        ExperimentConfig("idle", adversary=(AdversarySpec("MISMATCHED_U", 0.1),)).check()


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


def test_blocked_counts_equal_one_unblocked_call(monkeypatch):
    # two full blocks and a remainder; with 8 CPUs reported, workers 2 and 5
    # run 2 and 3 threads that share the three blocks
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    trials, seed = 2 * BLOCK_TRIALS + 7, 9
    inst, cert, _ = resolve_instance("tilted-target")
    plans = {i: branch_plan(i, build_witnesses(inst, cert), inst) for i in range(1, 9)}
    idx = np.arange(trials, dtype=np.uint64)
    want = [plans[i].tally(seed, i, idx) for i in range(1, 9)]
    want.append(sample_round(plans.__getitem__, derive_parameters(inst).round_cdf, seed, STREAM_ROUND, idx)[:2])
    for workers in (1, 2, 5):
        rep = run_monte_carlo(ExperimentConfig("tilted-target", mode="sampled", trials=trials, seed=seed, workers=workers))
        assert [(r.accepts, r.rejects) for r in rep.rows] == want, workers


def test_worker_pool_bounded_by_blocks_and_cpus(monkeypatch):
    sizes = []

    class RecordingPool:
        # runs the shares on the calling thread, so the test starts no thread
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
    run = lambda trials, workers: run_monte_carlo(
        ExperimentConfig("idle", mode="sampled", trials=trials, seed=5, workers=workers)
    ).to_json()
    one = run(3 * BLOCK_TRIALS, 1)
    for cpus, pool in ((64, [3]), (2, [2]), (None, [])):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        sizes.clear()
        assert run(3 * BLOCK_TRIALS, 10**6) == one
        assert sizes == pool, cpus
    sizes.clear()
    run(BLOCK_TRIALS, 10**6)
    assert sizes == []


def test_sampled_memory_flat_in_trials():
    def peak(trials):
        tracemalloc.start()
        try:
            run_monte_carlo(ExperimentConfig("idle", mode="sampled", trials=trials, seed=3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_monte_carlo(ExperimentConfig("idle", mode="sampled", trials=BLOCK_TRIALS, seed=3))  # warm caches
    assert peak(8 * BLOCK_TRIALS) <= 1.5 * peak(BLOCK_TRIALS)


def counting_philox(monkeypatch):
    """Record the lane count of every Philox call from here on."""
    lanes = []
    body = _kernels._philox

    def counting(c0, *rest):
        lanes.append(np.size(c0))
        return body(c0, *rest)

    monkeypatch.setattr(_kernels, "_philox", counting)
    return lanes


def test_philox_lanes_per_trial(monkeypatch):
    # one Philox block gives two uniforms, and plans that cannot reject draw
    # nothing: on honest idle only tests 3 and 5 draw (about 2.1 lanes per
    # trial); test 2 drawing again needs about 3.1, every plan about 11.1
    lanes = counting_philox(monkeypatch)
    trials = 2 * BLOCK_TRIALS
    run_monte_carlo(ExperimentConfig("idle", mode="sampled", trials=trials))
    assert sum(lanes) / trials <= 2.5


# Philox lanes of run_monte_carlo(mode="sampled", trials=200_000, seed=0) per sampled-bulk config
SAMPLED_BULK_LANES = {
    "idle": 425_088,
    "bell-flip": 416_755,
    "bell-stepwise": 408_471,
    "tilted-target": 625_088,
    "blocked-bell": 450_147,
    "blocked-qubit": 300_144,
    "bell-flip+WRONG_END+MISMATCHED_U": 1_216_755,
    "bell-stepwise+BROKEN_SEQUENCE+HIGH_ENERGY": 858_636,
}


@pytest.mark.parametrize("config", SAMPLED_BULK_LANES)
def test_sampled_bulk_lane_totals_are_pinned(config, monkeypatch):
    # a kernel or plan change that keeps every tally's bits keeps these totals;
    # each adversary runs at its kind's demo magnitude
    name, *kinds = config.split("+")
    inst = get_fixture(name).instance
    ledger = derive_parameters(inst)
    specs = tuple(AdversarySpec(AdversaryKind[k], demo_magnitude(AdversaryKind[k], inst, ledger)) for k in kinds)
    lanes = counting_philox(monkeypatch)
    run_monte_carlo(ExperimentConfig(name, mode="sampled", trials=200_000, seed=0, adversary=specs))
    assert sum(lanes) == SAMPLED_BULK_LANES[config]


def test_shots_without_reject_mass_draw_nothing(monkeypatch):
    # honest idle: tests 1, 4, 6, 7 and 8 have float reject mass 0, test 2 has
    # no reachable mismatching pair, and the round picks test 1 surely, so
    # none of their shots reads a Philox block
    fx = get_fixture("idle")
    proof = build_witnesses(fx.instance, fx.certificate)
    ledger = derive_parameters(fx.instance)
    run_protocol_round(proof, fx.instance, ledger)  # builds the eight plans
    lanes = counting_philox(monkeypatch)
    for trial in range(50):
        for i in (1, 2, 4, 6, 7, 8):
            stream = CounterStream(3, i, trial)
            assert run_test(i, proof, fx.instance, mode=MODE_SAMPLED, stream=stream).verdict == "accept"
        stream = CounterStream(3, STREAM_ROUND, trial)
        shot = run_protocol_round(proof, fx.instance, ledger, mode=MODE_SAMPLED, stream=stream)
        assert shot.verdict == "accept" and shot.trace[0] == ("test", 1)
    assert lanes == []


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


def test_emit_refuses_an_unknown_format(tmp_path):
    # an unknown format used to write CSV under any name
    rep = run_monte_carlo(ExperimentConfig("idle", mode="exact"))
    path = tmp_path / "r.xml"
    with pytest.raises(HarnessError, match="'xml'"):
        emit_report(rep, path, "xml")
    assert not path.exists()


def test_csv_lines_read_their_cells_by_column_name():
    rep = harness.RunReport({}, "x", {})
    rep.rows.append(harness.TestRow("test", 3, "uniform", "0.75", "0.25", 4, 3, 1, "0.2", "e"))
    rep.lemma_rows.append(harness.LemmaRow("WRONG_END", 7, "0.5", "0.4", "0.1", "0.2", "-0.1", False, "x=1"))
    assert rep.lemma_rows[0].status == "FAIL"
    assert rep.to_csv().splitlines()[1:] == [
        ",".join(harness.CSV_COLUMNS),
        "test,3,uniform,exact,0.75,0.25,,,,,e",
        "test,3,uniform,sampled,0.75,,4,3,1,0.2,e",
        "lemma,7,WRONG_END,exact,,0.1,,,,,threshold=0.2;margin=-0.1;measured=0.4;FAIL;x=1",
    ]


# sha256 of the default (no timings) report bytes; a deliberate format change
# bumps the format version and updates these digests in the same change
REPORT_SHA256 = {
    "verify idle json": "8e0811bd2176e56320f959dd9d1c3b0c733474a67245980cdb31c14733feb4a2",
    "verify idle csv": "62ad1d005e84254a68f5440ef6ae7288eff587e4fb68d3c1c8e62cccccfb25ae",
    "verify bell-flip json": "c94745feb09bc794ade33f1b82be12f5ef3f01cff275d3501976674f3312f39e",
    "verify bell-flip csv": "80dbd7ce57d7ae8ebda82d7b21c7eefa6b10b9260d8d28baf844202a98b7e621",
    "verify bell-stepwise json": "31a837a227160faf450b36037b561ef38e3ef9695a60763d71a955c24ac4f20b",
    "verify bell-stepwise csv": "b5e587f4bb1f9a2ad450522c41d51874abe606bd905f3869f78ddbc5bd618381",
    "verify tilted-target json": "ed2029548e7913fb3261f6ef5f912bafcb28019e328e69387a91d4ff14c3b616",
    "verify tilted-target csv": "6bfe66bb48dd5000ea5f439c30dfbe1f38ee2fca826bf725b5ecba82ebf5aaa6",
    "verify blocked-bell json": "0ff9697c4d13d05e22f1c4b1a373871768cabc55a0fa0009099e670a916992fb",
    "verify blocked-bell csv": "bedaf99b5ee0b26bd08961e073988e1b6766ad35f99c33df9ec9b37dc9607fb6",
    "verify blocked-qubit json": "690e4ef93e5e55ca172edd6e546bb202fa5d70a806d9435c43fbd9b11041ebe9",
    "verify blocked-qubit csv": "382004f30e268cb3323efd7c3e5530fa1ed2abb12f0dc5c0b1e9ff602b1a66e8",
    "verify bell-flip+WRONG_END+MISMATCHED_U json": "40653a97cbd094c5d10d5c6c34c805ab3c3525e71bc8155979eafef74eaa2e20",
    "verify bell-flip+WRONG_END+MISMATCHED_U csv": "073df50951b6d21fbe8f3fb3bb50ab9be1edbabaa1b0a6b6261badca35d36e5d",
    "verify bell-stepwise+BROKEN_SEQUENCE+HIGH_ENERGY json": "72ea5a19a3409a715433cfded15327e04433d4ec715295f14b2438769cc647a1",
    "verify bell-stepwise+BROKEN_SEQUENCE+HIGH_ENERGY csv": "1b757a82a6b13b6353750fd72b1d57dc7384de87e116d64328b357134dccbcc6",
    "lemmas idle json": "e1bd45f9e3d03989308403f022458abdb8c3263590cb20c34d6477eb1deef477",
    "lemmas bell-flip json": "97405584cd7b37ea02cf687779466b37b756db74353f723fde5fa1e00e2996fc",
    "lemmas bell-stepwise json": "bca29148425273b3462eb1974d116f90da8cf4adf9123aee85b0bd1fa2dd04d0",
    "lemmas tilted-target json": "d68e621ecbb48f5281cc1c3101edb880c8c52f2a9c6906b414a6e1f2dc3c1a20",
    "lemmas blocked-bell json": "852c2114ac3caada2c69d28107183139cc1e8c7ff8c7a71eb66f6f96723188c6",
    "lemmas blocked-qubit json": "0e74ace9bf78bcd51d4e5aea9dd505b81735e05dafa63b62304808cfb49ef67d",
    "lemmas idle csv": "2b8955e93d05d1b3fd4fb3e7ac3edacc52496dcb7085748b41da1f696696b00a",
    "lemmas bell-flip csv": "e51e080d13e11bbfaf7faa904b99e844f1f58c61fbf037dde00b153e5a053d53",
    "lemmas bell-stepwise csv": "6d2bb6a463acd07647bacdd8a92338bf9b1bc6c1b7396d46918a05fff7d49fd4",
    "lemmas tilted-target csv": "04ba0ba25ba88dd710400051a55f7adb736041e60e9bea4da0d740e1cfd77e40",
    "lemmas blocked-bell csv": "788448c0e73198f44b33eb5c35d1bf4fbd579189a34b67bc5c2ef89c76f1deee",
    "lemmas blocked-qubit csv": "6cc734019331fbeb00a268ffc3fca8ed297c6ca42afafa4fa4943c23c03b6fbf",
    "verify idle --mode exact json": "161349c78e004050a2b08a6748fb54150ecc480d2a6072606ff845c2c4f44648",
    "verify idle --mode exact csv": "9d4792b0acd1c91c15af868acc18502327f00d1542cd99aa63b1848728850501",
    "verify idle --mode sampled --trials 1 --seed 3 json": "a8e333f76ef1b3c5502cb749b52c51f8afd1c0310681ebc1ec77968d9d86d7b7",
    "verify idle --mode sampled --trials 1 --seed 3 csv": "fabc4b5c9f5bc0119336217726437a48f1d274efad90cf861486c3444b1f467d",
}


@pytest.mark.parametrize("config", sorted({key.rpartition(" ")[0] for key in REPORT_SHA256}))
def test_default_report_bytes_are_pinned(config, tmp_path):
    # verify: --mode both --trials 20000 --seed 7 at each kind's demo magnitude, or the options given
    # with the CLI's defaults for the rest; lemmas: as the CLI runs them
    verb, target, *options = config.split(" ")
    name, *kinds = target.split("+")
    inst, cert, display = resolve_instance(name)
    if verb == "lemmas":
        rep = run_lemma_suite(inst, cert, display)
    elif options:
        args = build_parser().parse_args([verb, name, *options])
        rep = run_monte_carlo(ExperimentConfig(name, mode=args.mode, trials=args.trials, seed=args.seed))
    else:
        ledger = derive_parameters(inst)
        specs = tuple(AdversarySpec(AdversaryKind[k], demo_magnitude(AdversaryKind[k], inst, ledger)) for k in kinds)
        rep = run_monte_carlo(ExperimentConfig(name, mode="both", trials=20_000, seed=7, adversary=specs))
    for fmt in ("json", "csv"):
        if f"{config} {fmt}" in REPORT_SHA256:
            path = tmp_path / f"report.{fmt}"
            emit_report(rep, path, fmt)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_SHA256[f"{config} {fmt}"], fmt


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
    from ffgscon.states import register_distribution
    from ffgscon.verifier import branch_plan

    w = build_witnesses(fx.instance, fx.certificate)
    kernels = {2: _kernels.tally_unique, 8: _kernels.tally_low}
    for i in range(1, 9):
        plan = branch_plan(i, w, fx.instance)
        assert plan.kernel is kernels.get(i, _kernels.tally_chain)
    _, reject_table = branch_plan(8, w, fx.instance).args
    assert reject_table.shape == (2 * fx.instance.m, fx.instance.R)
    # m = 1: the end test's target label m is the last of 2m, reached through the pick's clamp
    lo, hi = branch_plan(7, w, fx.instance).args
    label_cdf = np.cumsum(np.asarray(register_distribution(w.s, 0), dtype=np.float64))
    assert fx.instance.m == 1 and (lo[0], hi[0]) == (label_cdf[-2], 1.0)


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


def test_cli_smeared_gate_magnitude_pair(capsys):
    assert cli_main(["verify", "bell-flip", "--mode", "exact", "--adversary", "SMEARED_GATE:0.125,0.25"]) == 0
    # two equal copies reject test 2 with 2 x^2 c (1 - c), exact in double
    assert "test=    2 unique     exact accept=0.994140625 reject=0.005859375" in capsys.readouterr().out
    for mag in ("0.1", "a,b"):
        assert cli_main(["verify", "bell-flip", "--mode", "exact", "--adversary", f"SMEARED_GATE:{mag}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_lemma_suite_scales_extended_amplitudes_array_first(monkeypatch):
    # an mpmath scalar times an ndarray first tries mpmath's conversion of the
    # whole array, which formats every element into an error message before
    # numpy takes over; every product of a scalar and an array is written array first
    import mpmath

    ctx = type(mpmath.mp)
    seen = []
    convert = ctx.npconvert
    monkeypatch.setattr(ctx, "npconvert", lambda self, x: seen.append(type(x)) or convert(self, x))
    fx = get_fixture("bell-stepwise")
    run_lemma_suite(fx.instance, fx.certificate, fx.name)
    assert np.ndarray not in seen


def test_lemma_suite_builds_one_honest_proof(monkeypatch):
    # the eight boundary adversaries are planted on one shared 120-digit honest proof
    calls = []
    build = witnesses.build_honest_S
    monkeypatch.setattr(witnesses, "build_honest_S", lambda *a, **kw: calls.append(kw) or build(*a, **kw))
    fx = get_fixture("bell-stepwise")
    run_lemma_suite(fx.instance, fx.certificate, fx.name)
    assert calls == [{"extended": True}]


@pytest.mark.parametrize("name", [fx.name for fx in builtin_instances()])
def test_lemma_rows_equal_one_shot_forges(monkeypatch, name):
    # forging on the shared honest proof keeps every bit of each row's reject
    fx = get_fixture(name)
    inst, cert = fx.instance, fx.certificate
    rejects = []

    def spy(*a, **kw):
        out = run_test(*a, **kw)
        rejects.append(out.reject_probability)
        return out

    monkeypatch.setattr(harness, "run_test", spy)
    run_lemma_suite(inst, cert, name)
    specs = boundary_specs(inst, derive_parameters(inst))
    assert len(rejects) == len(specs) == 8
    for spec, got in zip(specs, rejects):
        forged = forge_adversary(honest_proof(inst, cert, extended=True), inst, spec)
        want = run_test(TARGETED_TEST[spec.kind], forged, inst, mode=MODE_EXACT).reject_probability
        assert got._mpf_ == want._mpf_, spec.kind


def test_cli_refuses_seeds_outside_the_philox_key(capsys):
    # a seed outside [0, 2**64) would silently draw another seed's stream
    for seed in ("-1", str(2**64)):
        assert cli_main(["verify", "idle", "--mode", "sampled", "--trials", "100", "--seed", seed]) == 1
        assert "seed" in capsys.readouterr().err
    assert cli_main(["verify", "idle", "--mode", "sampled", "--trials", "100", "--seed", str(2**64 - 1)]) == 0


def test_cli_verify_prints_rows(capsys):
    assert cli_main(["verify", "tilted-target", "--mode", "exact"]) == 0
    out = capsys.readouterr().out
    assert "end" in out and "exact accept=" in out
