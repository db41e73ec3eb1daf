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
    assert cert3 == (3,)
    with pytest.raises(HarnessError):
        resolve_instance("no-such-thing")


def test_config_echo_writes_a_numpy_certificate_as_ints():
    rep = run_monte_carlo(ExperimentConfig("bell-flip", mode="exact", certificate=(np.int64(3),)))
    assert rep.config["certificate"] == [3]
    assert json.loads(rep.to_json())["config"]["certificate"] == [3]


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
    # plans that cannot reject draw nothing, and every reject argument of
    # honest idle is 0 on the uniform grid (tests 3 and 5 hold double dust),
    # so no plan is live and the run reads no Philox block
    lanes = counting_philox(monkeypatch)
    run_monte_carlo(ExperimentConfig("idle", mode="sampled", trials=2 * BLOCK_TRIALS))
    assert lanes == []


NONE = (200_000, 0)  # every trial accepted

# Philox lanes of run_monte_carlo(mode="sampled", trials=200_000, seed=0) per sampled-bulk config, and its
# (accepts, rejects) of tests 1..8 and the round
SAMPLED_BULK_LANES = {
    "idle": (0, (NONE,) * 9),
    "bell-flip": (0, (NONE,) * 9),
    "bell-stepwise": (0, (NONE,) * 9),
    "tilted-target": (200_000, (NONE,) * 6 + ((196_916, 3084), NONE, NONE)),
    "blocked-bell": (450_147, (NONE,) * 6 + ((175_090, 24_910), (149_853, 50_147), NONE)),
    "blocked-qubit": (300_144, (NONE,) * 7 + ((99_856, 100_144), NONE)),
    "bell-flip+WRONG_END+MISMATCHED_U": (1_016_755, (
        (187_070, 12_930), (187_574, 12_426), NONE, NONE, (199_090, 910),
        NONE, (194_584, 5416), NONE, (187_037, 12_963),
    )),
    "bell-stepwise+BROKEN_SEQUENCE+HIGH_ENERGY": (658_636, (
        NONE, NONE, NONE, NONE, (199_307, 693),
        (193_757, 6243), NONE, (184_668, 15_332), NONE,
    )),
}


@pytest.mark.parametrize("config", SAMPLED_BULK_LANES)
def test_sampled_bulk_lane_totals_are_pinned(config, monkeypatch):
    # a kernel or plan change that keeps every tally's bits keeps these totals
    # and tallies; each adversary runs at its kind's demo magnitude
    name, *kinds = config.split("+")
    inst = get_fixture(name).instance
    ledger = derive_parameters(inst)
    specs = tuple(AdversarySpec(AdversaryKind[k], demo_magnitude(AdversaryKind[k], inst, ledger)) for k in kinds)
    lanes = counting_philox(monkeypatch)
    rep = run_monte_carlo(ExperimentConfig(name, mode="sampled", trials=200_000, seed=0, adversary=specs))
    assert (sum(lanes), tuple((r.accepts, r.rejects) for r in rep.rows)) == SAMPLED_BULK_LANES[config]


def test_shots_without_reject_mass_draw_nothing(monkeypatch):
    # honest idle: every test's float reject mass is 0 on the uniform grid
    # (tests 3 and 5 carry double dust below 2**-54), test 2 has no reachable
    # mismatching pair, and the round picks test 1 surely, so no shot reads a
    # Philox block
    fx = get_fixture("idle")
    proof = build_witnesses(fx.instance, fx.certificate)
    ledger = derive_parameters(fx.instance)
    run_protocol_round(proof, fx.instance, ledger)  # builds the eight plans
    lanes = counting_philox(monkeypatch)
    for trial in range(50):
        for i in range(1, 9):
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
    "verify idle json": "7b8d7fc30327c716c357bc791237085f027715645c4ae3ae8f73c5a362e111ac",
    "verify idle csv": "ca39d79333246564f915157e9012a5cf6e204d92129f472ca024fd2a0254d403",
    "verify bell-flip json": "a79f6ad648124cd8b527235edcaa6d36495ca168f3f4edeab325b1e04980fea1",
    "verify bell-flip csv": "556e7c1fb262fa3205e2c77803f4ce8eed9293ec4dcde17b6cb875d091afb3c1",
    "verify bell-stepwise json": "e87539fc24d5b9d72aef5f696fe4aa846f901bdee46ffa38d9634c084d05ff6d",
    "verify bell-stepwise csv": "924e62b5f8a6664a0046395adefbe19059745db6d20d805cd3b28f1967b20ef9",
    "verify tilted-target json": "0e6df53e770f35de42ead37510b35d27a15941e782a3dbd9d6eaafdfee4f5405",
    "verify tilted-target csv": "58ba79fe4ce5ea44924c2cbf640acd3f0199d8a2d6c199565bdd713ff7f8d804",
    "verify blocked-bell json": "551d6ddd29096c8c89778830086f02da9900a466499987e785c1833759a711da",
    "verify blocked-bell csv": "9d5f23584be6c16685ae672f6ec549624d1cd0fd946337740e2052e157bdfca2",
    "verify blocked-qubit json": "64d125620a1948b7530136db56c85eaf487b6c28e82f75d5c67d78610880f21f",
    "verify blocked-qubit csv": "0e70876e9ce36fe12ae96a071bec77e6cd079a95e323f6b370ecc686147223d9",
    "verify bell-flip+WRONG_END+MISMATCHED_U json": "775afafd28951409a323f6028a6962b70edf5a93c9b598fd347f6bc3534dd704",
    "verify bell-flip+WRONG_END+MISMATCHED_U csv": "833f390b0f374fdc5bef1d5f2cc71e93ed4f96353536f82cad6e9396b10ff2b1",
    "verify bell-stepwise+BROKEN_SEQUENCE+HIGH_ENERGY json": "dc6ba3ba3b837cb6bc3c0ef3799737f5ecd2a21e8b77d8682c42eade494b1191",
    "verify bell-stepwise+BROKEN_SEQUENCE+HIGH_ENERGY csv": "1f564b8ad361cbf8171a5fbaacb9249d422a7b1a66957f932190c3d505ea2136",
    "lemmas idle json": "934bf76a8391dad391b75ae339a7b0eb547799e09c58a5b19feea3eac8ffd896",
    "lemmas bell-flip json": "9660918e1af914a4bcb50ccbc14fe5a6c510c8567c649d5993835167a03ca411",
    "lemmas bell-stepwise json": "6de230e17792cfe8310d541332a53e6e29416e434377e6dae6e1d18a62a0a186",
    "lemmas tilted-target json": "fae959b053e11a0f398c70ee876a8ea770eb2308bac02edadb0022a8fcda078e",
    "lemmas blocked-bell json": "f800813ca0d5f3e5e41f20f00f4f969fa0e9b2e1169b8d596da756783dea0d29",
    "lemmas blocked-qubit json": "26fc8eff40a6aa2e0d991221beb78aacd0f8c7b754b51602ee6852e47b43face",
    "lemmas idle csv": "096d0e8a567ba1865cd45acde8dae048d1ff41b21ff0bf100c87130e0537c71d",
    "lemmas bell-flip csv": "4aae4942fb5ef93f3933b2a748da26cef5ee4f478ffee7f3d4162e1ff15031dd",
    "lemmas bell-stepwise csv": "730cff42e641ce834ab4413a385c9739dfd1680bce32fe77a82b4559d5867a0d",
    "lemmas tilted-target csv": "20b85ccb8d97f2241a40ceb6c901c98f3614b527faf1fca1fdfde1d91a5308db",
    "lemmas blocked-bell csv": "d75911f562993ba58b501275eb7e301816df8e2a48ded0771a151f1c71ed425e",
    "lemmas blocked-qubit csv": "1e42435d822a2008c3a99c36f0f6c08c3cf06cb12e9bf48f9c56ef99ea78e89a",
    "verify idle --mode exact json": "bb372bc94da1c4a4ecf3ae9f04f929213764453453b4ee29a440235039a4ffd8",
    "verify idle --mode exact csv": "aff9177151b511f520ce509a004a120e79d52a765bd97bbb28f65f6984618e17",
    "verify idle --mode sampled --trials 1 --seed 3 json": "4c083605d21a0f26cb34df21cbacf53af39183eb1a20143093f464918159d5fd",
    "verify idle --mode sampled --trials 1 --seed 3 csv": "b11a4c9d560c660b8bfc29f1ed3341b60cb2df77c46c72e8da159cb84d4189e8",
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
