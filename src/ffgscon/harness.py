"""Monte Carlo orchestration, the per-threshold adversary suite, and reports.

A run builds one :class:`~ffgscon.witnesses.Proof` and each test's
:class:`~ffgscon.verifier.BranchPlan` on it once, before any worker starts;
the exact rows, the exact round and the sampled tallies all read from those
eight plans.  Sampling runs each plan's kernel from :mod:`ffgscon._kernels`
over blocks of at most ``BLOCK_TRIALS`` trial indices, sized so that a
block's temporaries stay in a per-core L2 cache; the blocks are what workers
share.  Trials are addressed, not sequenced, so neither the blocking nor the
sharing can change a single tally; reports
serialize deterministically (wall-clock timings are kept out of the emitted
document unless explicitly requested, and the worker count never enters it).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import mpmath
import numpy as np

from .fixtures import builtin_instances, get_fixture, verify_certificate
from .instances import GsconInstance, load_instance, validate_instance
from .ledger import LEDGER_DPS, ParameterLedger, derive_parameters
from .rng import STREAM_ROUND
from .states import precision
from .verifier import MODE_EXACT, TEST_NAMES, branch_plan, exact_round, run_test, sample_round
from .witnesses import AdversaryKind, AdversarySpec, Proof, forge_adversary, honest_proof

DESK_CAPS = {"n": 6, "m": 4, "G": 16}
BLOCK_TRIALS = 1 << 14  # a block's ~16 live uint64 temporaries (128 KiB each) fit a 2 MiB L2
CSV_HEADER = "# ffgscon-report-csv-v3"
CSV_COLUMNS = ("section", "id", "name", "mode", "accept", "reject", "trials", "accepts", "rejects", "sigma", "extra")


class HarnessError(ValueError):
    """Configuration or scale problem the caller must fix."""


@dataclass(frozen=True)
class ExperimentConfig:
    instance: str
    mode: str = "both"  # exact | sampled | both
    trials: int = 100_000
    seed: int = 0
    adversary: tuple[AdversarySpec, ...] = ()
    certificate: tuple[int, ...] | None = None  # override for file-loaded instances
    workers: int = 1

    def check(self):
        if self.mode not in ("exact", "sampled", "both"):
            raise HarnessError(f"mode must be exact, sampled or both, got {self.mode!r}")
        if self.mode in ("sampled", "both") and self.trials < 1:
            raise HarnessError("sampled mode needs trials >= 1")
        if self.workers < 1:
            raise HarnessError("workers must be >= 1")
        # a seed is the 64-bit Philox key: any other value would alias one inside the range
        if not 0 <= self.seed < 2**64:
            raise HarnessError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass
class TestRow:
    section: str  # test | round
    test_id: object
    name: str
    exact_accept: str | None = None
    exact_reject: str | None = None
    trials: int | None = None
    accepts: int | None = None
    rejects: int | None = None
    sigma: str | None = None  # decimal string or "na"
    extra: str = ""

    def csv_cells(self):
        """One column -> value map per CSV line: the exact line and the sampled one, where the run made each."""
        row = {"section": self.section, "id": self.test_id, "name": self.name, "extra": self.extra}
        if self.exact_accept is not None:
            yield {**row, "mode": "exact", "accept": self.exact_accept, "reject": self.exact_reject}
        if self.trials is not None:
            yield {**row, "mode": "sampled", "accept": self.accepts / self.trials, "trials": self.trials,
                   "accepts": self.accepts, "rejects": self.rejects, "sigma": self.sigma}


@dataclass
class LemmaRow:
    kind: str
    targeted_test: int
    requested: str
    measured: str
    exact_reject: str
    threshold: str
    margin: str
    passed: bool
    extra: str = ""

    @property
    def status(self) -> str:
        return "pass" if self.passed else "FAIL"

    def csv_cells(self):
        """The lemma's one CSV line as a column -> value map."""
        extra = f"threshold={self.threshold};margin={self.margin};measured={self.measured};{self.status};{self.extra}"
        yield {"section": "lemma", "id": self.targeted_test, "name": self.kind, "mode": "exact",
               "reject": self.exact_reject, "extra": extra}


@dataclass
class RunReport:
    config: dict
    instance_name: str
    ledger: dict
    rows: list[TestRow] = field(default_factory=list)
    lemma_rows: list[LemmaRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.lemma_rows)

    def to_json_dict(self, include_timings: bool = False) -> dict:
        doc = {
            "format": "ffgscon-report-v3",
            "config": self.config,
            "instance": self.instance_name,
            "ledger": self.ledger,
            "tests": [vars(r) for r in self.rows],
            "lemma_suite": [vars(r) for r in self.lemma_rows],
            "notes": self.notes,
        }
        if include_timings:
            doc["timings"] = self.timings
        return doc

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_json_dict(include_timings), indent=1, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        """The column-name line, then each row's lines in ``CSV_COLUMNS`` order; a column a line lacks is empty.

        A cell that holds a comma, such as a SMEARED_GATE lemma's ``measured=(x, c)``, is quoted.
        """
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        writer = csv.DictWriter(out, CSV_COLUMNS, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writeheader()
        for row in self.rows + self.lemma_rows:
            writer.writerows(row.csv_cells())
        return out.getvalue()


def emit_report(report: RunReport, path: str, fmt: str = "json", *, include_timings: bool = False) -> str:
    """Write the report; JSON is the lossless nested form, CSV the flat rows."""
    if fmt not in ("json", "csv"):
        raise HarnessError(f"unknown report format {fmt!r}; choose json or csv")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(include_timings) if fmt == "json" else report.to_csv())
    except OSError as exc:
        raise IOError(f"cannot write report to {path}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# instance / witness resolution
# ---------------------------------------------------------------------------


def resolve_instance(source: str, certificate=None):
    """(instance, certificate-or-None, display name) from a fixture name or file path."""
    try:
        fx = get_fixture(source)
        return fx.instance, certificate if certificate is not None else fx.certificate, fx.name
    except KeyError:
        pass
    if os.path.exists(source):
        inst = load_instance(source)
        enforce_desk_caps(inst)
        return inst, certificate, os.path.basename(source)
    raise HarnessError(
        f"{source!r} is neither a built-in fixture ({[f.name for f in builtin_instances()]}) nor a file"
    )


def enforce_desk_caps(inst: GsconInstance):
    if inst.n > DESK_CAPS["n"] or inst.m > DESK_CAPS["m"] or inst.G > DESK_CAPS["G"]:
        raise HarnessError(
            f"instance exceeds desk-scale caps n<={DESK_CAPS['n']}, m<={DESK_CAPS['m']}, G<={DESK_CAPS['G']}: "
            f"n={inst.n}, m={inst.m}, G={inst.G}"
        )


def require_valid(inst: GsconInstance):
    """Raise HarnessError listing every check when the instance fails validation.

    Parameters are derived only from a valid instance: ``m = 0`` or an empty
    gate register would otherwise divide by zero in the ledger.
    """
    val = validate_instance(inst)
    if not val.ok:
        raise HarnessError("instance failed validation:\n" + "\n".join(val.lines()))


def build_witnesses(inst: GsconInstance, cert, adversary=()) -> Proof:
    """The honest proof on double amplitudes, with the adversary specs planted on it in order.

    Later kinds rebuild the registers they touch, so order matters; the
    measured deviation of the last spec is reported.
    """
    proof = honest_proof(inst, cert)
    for spec in adversary:
        proof = forge_adversary(proof, inst, spec)
    return proof


# ---------------------------------------------------------------------------
# the experiment entry points
# ---------------------------------------------------------------------------


def _dec(v, digits: int) -> str:
    """A report decimal: ``digits`` significant digits of an mpf, ``repr`` of a double; a tuple joins its parts."""
    if isinstance(v, tuple):
        return "(" + ", ".join(_dec(x, digits) for x in v) + ")"
    if isinstance(v, mpmath.mpf):
        return mpmath.nstr(v, digits)
    return repr(float(v))


def _sigma_str(p_exact, trials) -> str:
    if trials < 2:
        return "na"
    p = min(max(float(p_exact), 0.0), 1.0)
    return repr(math.sqrt(p * (1.0 - p) / trials))


def _sample_all(plans: dict, cdf, seed: int, trials: int, workers: int) -> list[tuple[int, int]]:
    """(accepts, rejects) of tests 1..8 and the round over trials 0..trials-1.

    Trials are tallied in blocks of at most ``BLOCK_TRIALS``; each block runs
    the nine tallies on its own ``arange`` and the block counts are summed, so
    memory does not grow with ``trials``.  Worker ``w`` of ``k`` takes every
    k-th block from block ``w``.  Trials are addressed, so neither the blocks
    nor their sharing can change a count, and the pool is never larger than
    the block count or the CPU count.  One worker runs on the calling thread.
    """

    def run(starts):
        total = [(0, 0)] * 9
        for start in starts:
            block = np.arange(start, min(start + BLOCK_TRIALS, trials), dtype=np.uint64)
            counts = [plans[i].tally(seed, i, block) for i in range(1, 9)]  # test i draws on stream i
            counts.append(sample_round(plans.__getitem__, cdf, seed, STREAM_ROUND, block)[:2])
            total = [(a + da, r + dr) for (a, r), (da, dr) in zip(total, counts)]
        return total

    starts = range(0, trials, BLOCK_TRIALS)
    threads = min(workers, len(starts), os.cpu_count() or 1)
    if threads == 1:
        return run(starts)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(run, [starts[w::threads] for w in range(threads)]))
    return [tuple(map(sum, zip(*counts))) for counts in zip(*parts)]


def run_monte_carlo(cfg: ExperimentConfig) -> RunReport:
    """Exact probabilities and/or counter-based sampled tallies for all tests."""
    cfg.check()
    t_start = time.perf_counter()
    inst, cert, name = resolve_instance(cfg.instance, cfg.certificate)
    require_valid(inst)
    ledger = derive_parameters(inst)
    proof = build_witnesses(inst, cert, cfg.adversary)

    config_echo = {
        "instance": cfg.instance,
        "mode": cfg.mode,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "adversary": [{"kind": sp.kind.value, "magnitude": str(sp.magnitude)} for sp in cfg.adversary],
        "certificate": list(proof.certificate),  # the one the proof encodes, given or not
    }
    report = RunReport(config_echo, name, ledger.as_decimal_dict())
    t_setup = time.perf_counter()

    plans = {i: branch_plan(i, proof, inst) for i in range(1, 9)}
    keys = list(range(1, 9)) + ["ROUND"]
    exact = {}
    if cfg.mode in ("exact", "both"):
        exact = {i: plans[i].exact() for i in range(1, 9)}
        exact["ROUND"] = exact_round(plans, ledger)
    t_exact = time.perf_counter()

    tallies = {}
    if cfg.mode in ("sampled", "both"):
        tallies = dict(zip(keys, _sample_all(plans, ledger.round_cdf, cfg.seed, cfg.trials, cfg.workers)))
    t_sampled = time.perf_counter()

    for key in keys:
        row = TestRow("round", key, "dispatch") if key == "ROUND" else TestRow("test", key, TEST_NAMES[key])
        if key in exact:
            row.exact_accept = _dec(exact[key].accept_probability, 30)
            row.exact_reject = _dec(exact[key].reject_probability, 30)
        if key in tallies:
            row.trials, row.accepts, row.rejects = cfg.trials, *tallies[key]
            # test rows measure sigma at the exact acceptance when there is one; the round at its own rate
            p = exact[key].accept_probability if key in exact and key != "ROUND" else row.accepts / cfg.trials
            row.sigma = _sigma_str(p, cfg.trials)
        report.rows.append(row)

    report.timings = {
        "setup_s": t_setup - t_start,
        "exact_s": t_exact - t_setup,
        "sampled_s": t_sampled - t_exact,
        "total_s": t_sampled - t_start,
    }
    return report


# ---------------------------------------------------------------------------
# threshold suite: one boundary adversary per test
# ---------------------------------------------------------------------------


def boundary_specs(inst: GsconInstance, ledger: ParameterLedger) -> list[AdversarySpec]:
    """The eight boundary adversaries, one per rejection threshold."""
    with mpmath.workdps(LEDGER_DPS):
        f_skew = 1 / (mpmath.mpf(inst.m) * ledger.t)
        return [
            AdversarySpec(AdversaryKind.MISMATCHED_U, ledger.delta_small),
            AdversarySpec(AdversaryKind.SMEARED_GATE, (ledger.x, ledger.c)),
            AdversarySpec(AdversaryKind.NONUNIFORM_LABELS, f_skew),
            AdversarySpec(AdversaryKind.INCONSISTENT_S, ledger.z),
            AdversarySpec(AdversaryKind.BROKEN_SEQUENCE, ledger.z),
            AdversarySpec(AdversaryKind.WRONG_START, ledger.h),
            AdversarySpec(AdversaryKind.WRONG_END, ledger.eta3 + ledger.h),
            AdversarySpec(AdversaryKind.HIGH_ENERGY, ledger.eta2 / 2),
        ]


def demo_magnitude(kind: AdversaryKind, inst: GsconInstance, ledger: ParameterLedger):
    """Double-representable magnitudes for command-line experiments."""
    two_m = 2 * inst.m
    return {
        AdversaryKind.MISMATCHED_U: 1.0 / (4 * two_m),
        AdversaryKind.SMEARED_GATE: (1.0 / two_m, 0.25),
        AdversaryKind.NONUNIFORM_LABELS: 0.25,
        AdversaryKind.INCONSISTENT_S: 0.2 / inst.m,
        AdversaryKind.BROKEN_SEQUENCE: 0.2 / inst.m,
        AdversaryKind.WRONG_START: float(ledger.h),
        AdversaryKind.WRONG_END: float(ledger.eta3 + ledger.h),
        AdversaryKind.HIGH_ENERGY: inst.eta2 / 2.0,
    }[kind]


def run_lemma_suite(inst: GsconInstance, cert: tuple[int, ...] | None = None, name: str = "") -> RunReport:
    """For each threshold, plant its boundary adversary and check the margin.

    Every row plants its adversary on one shared extended-precision honest
    proof, runs the targeted test's exact branch sum, and asserts rejection
    >= the ledger threshold r_i with a nonnegative margin.
    """
    enforce_desk_caps(inst)
    require_valid(inst)
    ledger = derive_parameters(inst)
    report = RunReport({"suite": "lemma"}, name, ledger.as_decimal_dict())
    t0 = time.perf_counter()

    honest = honest_proof(inst, cert, extended=True)
    for spec in boundary_specs(inst, ledger):
        forged = forge_adversary(honest, inst, spec)
        out = run_test(forged.targeted_test, forged, inst, mode=MODE_EXACT)
        with precision(extended=True):
            reject = mpmath.mpf(out.reject_probability)
            threshold = ledger.r[forged.targeted_test - 1]
            margin = reject - threshold
            passed = margin >= 0
        extra = ""
        if spec.kind is AdversaryKind.BROKEN_SEQUENCE:
            # near-honest projection success must clear 1/(8mG)
            trace = dict(out.trace)
            joint = mpmath.mpf(trace["gate_projection_prob"]) * mpmath.mpf(trace["label_match_prob"])
            floor = 1 / (8 * mpmath.mpf(inst.m) * inst.G)
            passed = passed and joint >= floor
            extra = f"joint_projection={_dec(joint, 10)};floor={_dec(floor, 10)}"
        report.lemma_rows.append(
            LemmaRow(
                spec.kind.value,
                forged.targeted_test,
                _dec(spec.magnitude, 20),
                _dec(forged.measured_deviation, 20),
                _dec(reject, 25),
                _dec(threshold, 25),
                _dec(margin, 25),
                bool(passed),
                extra,
            )
        )

    if cert is not None:
        note = _final_state_note(inst, cert, ledger)
        report.notes.append(note)
    report.timings = {"total_s": time.perf_counter() - t0}
    return report


def _final_state_note(inst, cert, ledger) -> str:
    """Distance of the replayed traversal endpoint from the target vs eta3 + 3h."""
    dist = verify_certificate(inst, cert).final_distance
    bound = float(ledger.eta3 + 3 * ledger.h)
    status = "holds" if dist < bound else "VIOLATED"
    return f"final-state condition: ||U_m...U_1 psi - phi|| = {dist!r} < eta3 + 3h = {bound!r} ({status})"
