"""ffgscon benchmark: three closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload sampled-bulk --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``; one process, one op at a time):

* ``sampled-bulk``   one op is ``run_monte_carlo(mode="both", trials=10**6,
  workers=1)``, rotating over the four YES fixtures with honest witnesses and
  two adversarial configs at demo magnitudes.
* ``exact-extended`` one op is ``run_lemma_suite`` on one of the six fixtures.
* ``per-shot``       one op is one sampled ``run_test`` (tests 1..8) or one
  sampled ``run_protocol_round`` on the honest witnesses of a YES fixture.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced blocks of ops: the traced blocks give the
per-layer metrics (``tracer.py``), the difference between the two gives the
tracing overhead, and the spans go to ``perfbench/out/``.  Every op's output
is checked (``workloads.failures``); the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics, on every workload:

* ``op_p50_ref``, ``op_p90_ref``, ``op_mean_ref``: op time in multiples of
  the workload's reference computation (``workloads.py``: fixed numpy or
  mpmath work of the same kind as the ops), timed right after every block of
  ops, as percentiles and mean over blocks (``Timings``).  On a 2-vCPU
  virtual machine whose cores are shared with other tenants, a 30-s run can
  sit in a phase where pure-Python code runs 1.6x slower; there, raw op
  times moved 16-49% between runs of the same code while these ratios moved
  3-5%.
* ``setup_s``: median over repeats of a fresh interpreter's package import
  plus fixture resolution, ``validate_instance``, ``derive_parameters`` and
  witness builds.
* ``peak_rss_mb``: peak resident set of a fresh interpreter that sets up and
  runs one block of ops.

The same op times in wall-clock units are printed, and recorded under
``info.wall_clock``, by the workloads' own names: ``verify_s_p50`` and
``sampled_trials_per_s`` (sampled-bulk), ``lemma_suite_ms_p50``/``_p90``
(exact-extended), ``shots_per_s``, ``shot_us_p50``/``_p90`` (per-shot).
``error_rate`` (failed / attempted ops) is carried by ``attempted`` and
``failed`` in the result and printed by name; it is zero on a correct
program, so it is no bounded metric.

Per-layer metrics are defined in ``layer_metrics``.  Durations named
``*_self_ms``, ``harness.sample_*_s``, ``harness.sampling_plan_ms`` and
``harness.exact_phase_ms`` are totals per op; ``*_calls`` and
``rng.uniform_calls_per_shot`` are counts per op; every other duration is a
mean per call.  A layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 7
BLOCK_S = 0.1  # op seconds between two timings of the reference computation
REF_WINDOW_S = 0.5  # reference timings this close to a block are pooled for its ratio
KERNELS = ("tally_bernoulli", "tally_chain", "tally_unique", "tally_boundary", "tally_low", "select")
STATES = ("swap_test_reject_prob", "project_onto", "conditional_state")

E2E_UNITS = {"op_p50_ref": "ref", "op_p90_ref": "ref", "op_mean_ref": "ref", "setup_s": "s", "peak_rss_mb": "MiB"}

LAYER_UNITS = {
    "kernels.uniforms_per_s": "1/s",
    **{f"kernels.{k}_trials_per_s": "1/s" for k in KERNELS},
    "kernels.busy_share": "share",
    "harness.sample_test_s": "s",
    "harness.sample_round_s": "s",
    "harness.sampling_plan_ms": "ms",
    "harness.exact_phase_ms": "ms",
    "harness.report_to_json_ms": "ms",
    **{f"verifier.exact_t{i}_ext_ms": "ms" for i in range(1, 9)},
    "verifier.exact_round_f64_ms": "ms",
    **{f"verifier.shot_t{i}_us": "us" for i in range(1, 9)},
    "verifier.shot_round_us": "us",
    **{f"states.{f}_self_ms": "ms" for f in STATES},
    **{f"states.{f}_calls": "count" for f in STATES},
    "witnesses.build_honest_f64_ms": "ms",
    "witnesses.build_honest_ext_ms": "ms",
    "witnesses.forge_adversary_ext_ms": "ms",
    "witnesses.forge_calls": "count",
    "rng.uniform_calls_per_shot": "count",
    "rng.uniform_us": "us",
    "ledger.derive_parameters_ms": "ms",
    "instances.validate_instance_ms": "ms",
    "trace.overhead_ms_p50": "ms",
    "trace.overhead_share": "share",
}

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); "
    "import ffgscon.harness, ffgscon.cli; print(time.perf_counter() - t)"
)


def _import_package():
    sys.path.insert(0, str(SRC))
    try:
        import ffgscon
    except ImportError as exc:
        raise SystemExit(f"error: cannot import ffgscon from {SRC}: {exc}")
    if Path(ffgscon.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: ffgscon imported from {ffgscon.__file__}, not from {SRC}")


_import_package()

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from ffgscon import _kernels  # noqa: E402


class Timings:
    """Op time per block, and the workload's reference computation timed after it.

    A block is whole rotations over the workload's op kinds (sampled-bulk 1
    op, exact-extended 6, per-shot 36) until it holds BLOCK_S of op time.
    Percentiles are taken over blocks: the kinds differ in cost by up to 10x
    and single sampled shots branch, so a percentile over single ops would
    fall in a gap between modes and jump with the mix.  A block's ratio
    divides by the median reference time within REF_WINDOW_S of its own, so
    that one jittery reference timing does not set it.
    """

    def __init__(self):
        self.op_s = array("d")  # mean op seconds per block
        self.ref_s = array("d")  # reference seconds after each block
        self.ref_at = array("d")  # when each reference timing ended
        self.ops = 0
        self.seconds = 0.0

    def add_block(self, ops: int, seconds: float, reference_s: float):
        self.op_s.append(seconds / ops)
        self.ref_s.append(reference_s)
        self.ref_at.append(time.perf_counter())
        self.ops += ops
        self.seconds += seconds

    def pct_ms(self, q) -> float:
        return float(np.percentile(self.op_s, q)) * 1e3 if self.op_s else 0.0

    def ratios(self) -> np.ndarray:
        at, ref = np.asarray(self.ref_at), np.asarray(self.ref_s)
        lo = np.searchsorted(at, at - REF_WINDOW_S, side="left")
        hi = np.searchsorted(at, at + REF_WINDOW_S, side="right")
        return np.asarray(self.op_s) / np.array([np.median(ref[a:b]) for a, b in zip(lo, hi)])


def _time_import() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(wl) -> tuple[float, object]:
    """Median of import-plus-set-up over SETUP_REPEATS, and the last set-up state."""
    samples, state = [], None
    for _ in range(SETUP_REPEATS):
        t_import = _time_import()
        t0 = time.perf_counter()
        state = wl.setup()
        samples.append(t_import + time.perf_counter() - t0)
    return statistics.median(samples), state


def run_ops(wl, state, expected, seconds, k0, records, timings, tracer=None):
    """Closed loop from op index k0 until ``seconds`` pass at a block boundary.

    Adds each block's op time and reference time to ``timings`` and each op's
    check record to ``records``.
    """
    k = k0
    block_ops, block_s = 0, 0.0
    deadline = time.perf_counter() + seconds
    while True:
        op = wl.op(state, k)
        error = None
        if tracer is not None:
            tracer.begin("op", k)
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # an op that raises is a failed op, and the run goes on
            error = f"op {k}: {exc!r}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end()
        block_ops += 1
        block_s += t1 - t0
        if error is None:
            if tracer is not None:
                tracer.begin("check", k)
            try:
                records.append(wl.check(state, expected, k, out))
            except Exception as exc:  # a malformed output fails the op
                records.append(workloads.Failure(f"check {k}: {exc!r}"))
            if tracer is not None:
                tracer.end()
        else:
            records.append(workloads.Failure(error))
        k += 1
        if (k - k0) % wl.rotation == 0 and block_s >= BLOCK_S:
            t_ref = time.perf_counter()
            wl.reference()
            timings.add_block(block_ops, block_s, time.perf_counter() - t_ref)
            block_ops, block_s = 0, 0.0
            if t1 >= deadline:
                return


def worker_invariance(wl, state) -> bool:
    """Sampled-bulk: one config's tallies with workers=1 equal those with workers=2."""
    k = wl.seed % len(state)
    tallies = []
    for workers in (1, 2):
        report = workloads.harness.run_monte_carlo(wl.config(state, k, workers))
        tallies.append([(r.test_id, r.accepts, r.rejects) for r in report.rows])
    return tallies[0] == tallies[1]


def peak_rss_probe(args) -> float:
    """Peak resident set of a fresh interpreter that sets up and runs one block of ops.

    Measured in its own process, as ``ffgscon verify`` or ``lemmas`` would run:
    in a long-lived process the peak depends on how the allocator reuses the
    freed 10**6-trial arrays, which differs from run to run.  The probe reads
    its own high-water mark (``VmHWM``): ``ru_maxrss`` of a child also counts
    the parent's resident set at the fork.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trials", str(args.trials), "--peak-rss-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _own_peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def e2e_metrics(timings, setup_s, peak_rss_mb) -> dict:
    ratios = timings.ratios()
    return {
        "op_p50_ref": float(np.percentile(ratios, 50)),
        "op_p90_ref": float(np.percentile(ratios, 90)),
        "op_mean_ref": float(ratios.mean()),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def raw_metrics(timings) -> dict:
    """The same op times in wall-clock units, as printed under the workloads' own names."""
    return {"op_ms_p50": timings.pct_ms(50), "op_ms_p90": timings.pct_ms(90),
            "ops_per_s": timings.ops / timings.seconds}


def layer_metrics(tr, n_ops, op_wall_s, uniforms_per_s, untraced, traced) -> dict:
    def mean(key, scale, *, phase="op", parent=None):
        calls, total, _, _ = tr.agg(key, phase=phase, parent=parent)
        return total / calls * scale if calls else 0.0

    def per_op(key, field, scale, *, parent=None):
        return tr.agg(key, parent=parent)[field] / n_ops * scale

    def rate(key):
        _, total, _, items = tr.agg(key)
        return items / total if total else 0.0

    exact = lambda k: k.startswith("verifier.exact_") or k.startswith("verifier.round_exact_")  # noqa: E731
    m = {"kernels.uniforms_per_s": uniforms_per_s}  # the _kernels module
    for k in KERNELS:
        m[f"kernels.{k}_trials_per_s"] = rate(f"_kernels.{k}")
    m["kernels.busy_share"] = tr.agg(lambda k: k.startswith("_kernels."))[2] / op_wall_s
    m["harness.sample_test_s"] = per_op("harness.sample_test", 1, 1.0)
    m["harness.sample_round_s"] = per_op("harness.sample_round", 1, 1.0)
    m["harness.sampling_plan_ms"] = per_op("harness.sampling_plan", 1, 1e3)
    m["harness.exact_phase_ms"] = per_op(exact, 1, 1e3, parent="harness.run_monte_carlo")
    m["harness.report_to_json_ms"] = mean("harness.report_to_json", 1e3, phase=None)
    for i in range(1, 9):
        m[f"verifier.exact_t{i}_ext_ms"] = mean(f"verifier.exact_t{i}_ext", 1e3)
    m["verifier.exact_round_f64_ms"] = mean("verifier.round_exact_f64", 1e3)
    for i in range(1, 9):
        m[f"verifier.shot_t{i}_us"] = mean(f"verifier.sampled_t{i}_f64", 1e6, parent="op")
    m["verifier.shot_round_us"] = mean("verifier.round_sampled_f64", 1e6, parent="op")
    for f in STATES:
        m[f"states.{f}_self_ms"] = per_op(f"states.{f}", 2, 1e3)
    for f in STATES:
        m[f"states.{f}_calls"] = per_op(f"states.{f}", 0, 1.0)
    m["witnesses.build_honest_f64_ms"] = mean("witnesses.build_honest_f64", 1e3, phase=None)
    m["witnesses.build_honest_ext_ms"] = mean("witnesses.build_honest_ext", 1e3, phase=None)
    m["witnesses.forge_adversary_ext_ms"] = mean("witnesses.forge_adversary_ext", 1e3, phase=None)
    m["witnesses.forge_calls"] = per_op(lambda k: k.startswith("witnesses.forge_"), 0, 1.0)
    m["rng.uniform_calls_per_shot"] = per_op("rng.uniform", 0, 1.0)
    m["rng.uniform_us"] = mean("rng.uniform", 1e6, phase=None)
    m["ledger.derive_parameters_ms"] = mean("ledger.derive_parameters", 1e3, phase=None)
    m["instances.validate_instance_ms"] = mean("instances.validate_instance", 1e3, phase=None)
    m["trace.overhead_ms_p50"] = traced.pct_ms(50) - untraced.pct_ms(50)
    m["trace.overhead_share"] = float(np.median(traced.ratios()) / np.median(untraced.ratios()) - 1.0)
    return m


def uniforms_probe(seed: int) -> float:
    """Philox uniforms per second through the public kernel, 10**6 at a time."""
    fn = getattr(_kernels, "uniforms", None)
    if fn is None:
        return 0.0
    idx = np.arange(10**6, dtype=np.uint64)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        fn(seed, workloads.rng.STREAM_USER, idx, 0)
        times.append(time.perf_counter() - t0)
    return idx.size / statistics.median(times)


def _line_count(directory: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(directory.rglob("*.py")))


def _cache_sizes() -> dict:
    sizes = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
            sizes[level.lower()] = int(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            sizes[level.lower()] = None
    return sizes


def environment() -> dict:
    import importlib.util

    import mpmath

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **_cache_sizes(),
        "kernel_backend": "numba" if getattr(_kernels, "USE_NUMBA", False) else "numpy",
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "src_lines": _line_count(SRC),
        "tests_lines": _line_count(ROOT / "tests") if (ROOT / "tests").is_dir() else 0,
    }


def make_workload(name: str, seed: int, trials: int):
    cls = workloads.WORKLOADS[name]
    return cls(seed, trials) if cls is workloads.SampledBulk else cls(seed)


def run(args) -> dict:
    wl = make_workload(args.workload, args.seed, args.trials)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "env": environment()}
    if args.workload == "sampled-bulk":
        info["trials_per_op"] = args.trials
    if args.trace:
        state = wl.setup()  # set-up time is an end-to-end metric, measured with tracing off
    else:
        setup_s, state = measure_setup(wl)
    expected = wl.expected(state, args.plant_wrong_expected)
    records: list = []
    invariant = True
    if isinstance(wl, workloads.SampledBulk):
        invariant = worker_invariance(wl, state)  # also warms the kernels up
        info["worker_invariance"] = invariant
    else:
        run_ops(wl, state, expected, 0.0, wl.rotation * 10**9, [], Timings())  # warm-up block, not counted

    if not args.trace:
        timings = Timings()
        run_ops(wl, state, expected, args.seconds, 0, records, timings)
        metrics = e2e_metrics(timings, setup_s, peak_rss_probe(args))
        units = E2E_UNITS
    else:
        tr = tracing.Tracer()
        tr.prepare()
        tr.install()
        tr.begin("setup")
        wl.setup()
        tr.end()
        tr.uninstall()
        untraced, traced = Timings(), Timings()
        slice_s = max(args.seconds / 8.0, 0.25)  # alternate so both halves see the same machine
        deadline = time.perf_counter() + args.seconds
        k = 0
        while time.perf_counter() < deadline:
            run_ops(wl, state, expected, slice_s, k, records, untraced)
            k = len(records)
            tr.install()
            run_ops(wl, state, expected, slice_s, k, records, traced, tr)
            tr.uninstall()
            k = len(records)
        probe = uniforms_probe(args.seed) if isinstance(wl, workloads.SampledBulk) else 0.0
        metrics = layer_metrics(tr, traced.ops, traced.seconds, probe, untraced, traced)
        units = LAYER_UNITS
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tr.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        info["absent_layer_functions"] = tr.absent
        info["traced_ops"] = traced.ops
        info["untraced_ops"] = untraced.ops
        timings = untraced
    failed, gate = workloads.failures(wl, expected, records)
    errors = [r for r in records if isinstance(r, workloads.Failure)]
    info.update(gate)
    info["ops"] = len(records)
    info["first_errors"] = errors[:3]
    n_failed = sum(failed)
    info["error_rate"] = n_failed / len(records)
    info["ops_per_rotation"] = wl.rotation
    info["timed_blocks"] = len(timings.op_s)
    info["wall_clock"] = raw_metrics(timings)
    _print_report(args, wl, info, metrics, units, timings)
    return {
        "correct": n_failed == 0 and invariant,
        "attempted": len(records),
        "failed": n_failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _workload_named(wl, m) -> list[tuple]:
    """The wall-clock op metrics under the workload's own names."""
    if isinstance(wl, workloads.SampledBulk):
        return [("verify_s_p50", m["op_ms_p50"] / 1e3, "s"),
                ("sampled_trials_per_s", m["ops_per_s"] * 9 * wl.trials, "1/s")]
    if isinstance(wl, workloads.ExactExtended):
        return [("lemma_suite_ms_p50", m["op_ms_p50"], "ms"), ("lemma_suite_ms_p90", m["op_ms_p90"], "ms")]
    return [("shots_per_s", m["ops_per_s"], "1/s"), ("shot_us_p50", m["op_ms_p50"] * 1e3, "us"),
            ("shot_us_p90", m["op_ms_p90"] * 1e3, "us")]


def _print_report(args, wl, info, metrics, units, timings):
    print(json.dumps({"info": info}, sort_keys=True))
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {info['ops']} ops, "
          f"error_rate = {info['error_rate']:.6g} ({len(timings.op_s)} timed blocks)")
    if not args.trace:
        named = _workload_named(wl, info["wall_clock"])
        for name, value, unit in [("error_rate", info["error_rate"], "share")] + named:
            print(f"{name:32s} {value:16.6g} {unit}")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:16.6g} {unit}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trials", type=int, default=10**6, help="sampled-bulk trials per op (smaller in the smoke test)")
    p.add_argument("--plant-wrong-expected", action="store_true",
                   help="shift one expected value so the correctness gate must fail (smoke test)")
    p.add_argument("--peak-rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.trials < 1:
        p.error("--seed must be >= 0, --seconds > 0 and --trials >= 1")
    if args.peak_rss_probe:
        wl = make_workload(args.workload, args.seed, args.trials)
        state = wl.setup()
        run_ops(wl, state, wl.expected(state, False), 0.0, 0, [], Timings())
        print(_own_peak_rss_mb())
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
