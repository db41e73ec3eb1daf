"""Monte Carlo orchestration, the per-threshold adversary suite, and reports.

A run builds each test's :class:`~ffgscon.verifier.BranchPlan` once; the
exact rows, the exact round and the sampled tallies all read from those
eight plans.  Sampling runs each plan's kernel from :mod:`ffgscon._kernels`
over arrays of trial indices.  Trials are addressed, not sequenced, so
partitioning them across workers cannot change a single tally; reports
serialize deterministically (wall-clock timings are kept out of the emitted
document unless explicitly requested, and the worker count never enters it).
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import mpmath
import numpy as np

from . import _kernels
from .fixtures import builtin_instances, get_fixture
from .instances import GsconInstance, TraversalCertificate, load_instance, prepare_state_from_circuit, validate_instance
from .ledger import LEDGER_DPS, ParameterLedger, derive_parameters
from .rng import STREAM_ROUND, stream_for_test
from .states import apply_local_gate, phase_optimized_distance
from .verifier import MODE_EXACT, TEST_NAMES, branch_plan, exact_round, round_cdf, run_test
from .witnesses import (
    WITNESS_DPS,
    AdversaryKind,
    AdversarySpec,
    ForgedWitnesses,
    WitnessS,
    WitnessU,
    build_honest_S,
    build_honest_U,
    forge_composed,
    forge_adversary,
    reference_certificate,
)

DESK_CAPS = {"n": 6, "m": 4, "G": 16}
CSV_HEADER = "# ffgscon-report-csv-v1"
CSV_COLUMNS = "section,id,name,mode,accept,reject,trials,accepts,rejects,sigma,extra"


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
    out: str | None = None
    out_format: str = "json"
    workers: int = 1
    include_timings: bool = False

    def check(self):
        if self.mode not in ("exact", "sampled", "both"):
            raise HarnessError(f"mode must be exact, sampled or both, got {self.mode!r}")
        if self.mode in ("sampled", "both") and self.trials < 1:
            raise HarnessError("sampled mode needs trials >= 1")
        if self.workers < 1:
            raise HarnessError("workers must be >= 1")
        if self.out_format not in ("json", "csv"):
            raise HarnessError(f"format must be json or csv, got {self.out_format!r}")


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

    @property
    def accept_rate(self) -> float | None:
        if self.trials:
            return self.accepts / self.trials
        return None


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
            "format": "ffgscon-report-v1",
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
        def cell(v):
            if v is None:
                return ""
            return str(v)

        lines = [CSV_HEADER, CSV_COLUMNS]
        for r in self.rows:
            if r.exact_accept is not None:
                lines.append(
                    f"{r.section},{r.test_id},{r.name},exact,{r.exact_accept},{r.exact_reject},,,,,{r.extra}"
                )
            if r.trials is not None:
                lines.append(
                    f"{r.section},{r.test_id},{r.name},sampled,{cell(r.accept_rate)},,"
                    f"{r.trials},{r.accepts},{r.rejects},{cell(r.sigma)},{r.extra}"
                )
        for lr in self.lemma_rows:
            status = "pass" if lr.passed else "FAIL"
            lines.append(
                f"lemma,{lr.targeted_test},{lr.kind},exact,,{lr.exact_reject},,,,,"
                f"threshold={lr.threshold};margin={lr.margin};measured={lr.measured};{status};{lr.extra}"
            )
        return "\n".join(lines) + "\n"


def emit_report(report: RunReport, path: str, fmt: str = "json", *, include_timings: bool = False) -> str:
    """Write the report; JSON is the lossless nested form, CSV the flat rows."""
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
        cert = TraversalCertificate(certificate) if certificate is not None else fx.certificate
        return fx.instance, cert, fx.name
    except KeyError:
        pass
    if os.path.exists(source):
        inst = load_instance(source)
        cert = TraversalCertificate(certificate) if certificate is not None else None
        return inst, cert, os.path.basename(source)
    raise HarnessError(
        f"{source!r} is neither a built-in fixture ({[f.name for f in builtin_instances()]}) nor a file"
    )


def enforce_desk_caps(inst: GsconInstance):
    if inst.n > DESK_CAPS["n"] or inst.m > DESK_CAPS["m"] or inst.G > DESK_CAPS["G"]:
        raise HarnessError(
            f"instance exceeds desk-scale caps n<={DESK_CAPS['n']}, m<={DESK_CAPS['m']}, G<={DESK_CAPS['G']}: "
            f"n={inst.n}, m={inst.m}, G={inst.G}"
        )


def build_witnesses(inst: GsconInstance, cert, adversary=(), *, extended: bool = False) -> ForgedWitnesses | tuple:
    """Honest 4-tuple, or the forged tuple when adversary specs are given."""
    if adversary:
        return forge_composed(inst, cert, adversary, extended=extended)
    base = reference_certificate(inst, cert)
    u = build_honest_U(inst, base, extended=extended)
    s = build_honest_S(inst, base, extended=extended)
    return u, WitnessU(u.state), s, WitnessS(s.state)


# ---------------------------------------------------------------------------
# sampling: branch plans realized over arrays of trial indices
# ---------------------------------------------------------------------------


def sample_test(plan, seed, stream, trials, draw0=0, workers=1) -> tuple[int, int]:
    """Tally (accepts, rejects) over trial indices 0..trials-1, chunked per worker."""
    idx = np.arange(trials, dtype=np.uint64)
    return sample_test_indices(plan, seed, stream, idx, draw0, workers)


def sample_test_indices(plan, seed, stream, trials_idx, draw0=0, workers=1) -> tuple[int, int]:
    if len(trials_idx) == 0:
        return 0, 0
    chunks = np.array_split(trials_idx, min(workers, len(trials_idx)))
    if len(chunks) == 1:
        return plan.tally(seed, stream, chunks[0], draw0)
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        parts = list(pool.map(lambda ch: plan.tally(seed, stream, ch, draw0), chunks))
    acc = sum(p[0] for p in parts)
    rej = sum(p[1] for p in parts)
    return acc, rej


def sample_round(plans: dict, ledger: ParameterLedger, seed: int, trials: int, workers=1) -> tuple[int, int]:
    """Dispatcher sampling: draw 0 picks the test, the test consumes draws 1+."""
    idx = np.arange(trials, dtype=np.uint64)
    picks = _kernels.select(seed, STREAM_ROUND, idx, 0, round_cdf(ledger))
    acc = rej = 0
    for t in range(8):
        sub = idx[picks == t]
        a, r = sample_test_indices(plans[t + 1], seed, STREAM_ROUND, sub, 1, workers)
        acc += a
        rej += r
    return acc, rej


# ---------------------------------------------------------------------------
# the experiment entry points
# ---------------------------------------------------------------------------


def _prob_str(v) -> str:
    if v is None:
        return ""
    if isinstance(v, mpmath.mpf):
        return mpmath.nstr(v, 30)
    return repr(float(v))


def _sigma_str(p_exact, trials) -> str:
    if trials is None or trials < 2:
        return "na"
    p = min(max(float(p_exact), 0.0), 1.0)
    return repr(math.sqrt(p * (1.0 - p) / trials))


def run_monte_carlo(cfg: ExperimentConfig) -> RunReport:
    """Exact probabilities and/or counter-based sampled tallies for all tests."""
    cfg.check()
    t_start = time.perf_counter()
    inst, cert, name = resolve_instance(cfg.instance, cfg.certificate)
    enforce_desk_caps(inst)
    val = validate_instance(inst)
    if not val.ok:
        raise HarnessError("instance failed validation:\n" + "\n".join(val.lines()))
    ledger = derive_parameters(inst)
    witnesses = build_witnesses(inst, cert, cfg.adversary)

    config_echo = {
        "instance": cfg.instance,
        "mode": cfg.mode,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "adversary": [
            {"kind": sp.kind.value, "magnitude": str(sp.magnitude), "seed": sp.seed} for sp in cfg.adversary
        ],
        "certificate": list(cfg.certificate) if cfg.certificate is not None else None,
    }
    report = RunReport(config_echo, name, ledger.as_decimal_dict())
    t_setup = time.perf_counter()

    plans = {i: branch_plan(i, witnesses, inst) for i in range(1, 9)}
    exact_accepts = {}
    if cfg.mode in ("exact", "both"):
        for i in range(1, 9):
            out = plans[i].exact()
            exact_accepts[i] = out.accept_probability
            report.rows.append(
                TestRow("test", i, TEST_NAMES[i], _prob_str(out.accept_probability), _prob_str(out.reject_probability))
            )
        round_out = exact_round(plans, ledger)
        report.rows.append(
            TestRow("round", "ROUND", "dispatch", _prob_str(round_out.accept_probability), _prob_str(round_out.reject_probability))
        )
    t_exact = time.perf_counter()

    if cfg.mode in ("sampled", "both"):
        sampled_rows = {}
        for i in range(1, 9):
            acc, rej = sample_test(plans[i], cfg.seed, stream_for_test(i), cfg.trials, 0, cfg.workers)
            sampled_rows[i] = (acc, rej)
        racc, rrej = sample_round(plans, ledger, cfg.seed, cfg.trials, cfg.workers)

        if cfg.mode == "sampled":
            for i in range(1, 9):
                acc, rej = sampled_rows[i]
                sigma = _sigma_str(acc / cfg.trials, cfg.trials)
                report.rows.append(TestRow("test", i, TEST_NAMES[i], None, None, cfg.trials, acc, rej, sigma))
            report.rows.append(TestRow("round", "ROUND", "dispatch", None, None, cfg.trials, racc, rrej, _sigma_str(racc / cfg.trials, cfg.trials)))
        else:
            for row in report.rows:
                if row.section == "test":
                    acc, rej = sampled_rows[row.test_id]
                    row.trials, row.accepts, row.rejects = cfg.trials, acc, rej
                    row.sigma = _sigma_str(exact_accepts[row.test_id], cfg.trials)
                elif row.section == "round":
                    row.trials, row.accepts, row.rejects = cfg.trials, racc, rrej
                    row.sigma = _sigma_str(racc / cfg.trials, cfg.trials)
    t_sampled = time.perf_counter()

    report.timings = {
        "setup_s": t_setup - t_start,
        "exact_s": t_exact - t_setup,
        "sampled_s": t_sampled - t_exact,
        "total_s": t_sampled - t_start,
    }
    if cfg.out:
        emit_report(report, cfg.out, cfg.out_format, include_timings=cfg.include_timings)
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


def run_lemma_suite(inst: GsconInstance, cert: TraversalCertificate | None = None, name: str = "") -> RunReport:
    """For each threshold, plant its boundary adversary and check the margin.

    Every row builds the adversary on extended-precision amplitudes, runs the
    targeted test's exact branch sum, and asserts rejection >= the ledger
    threshold r_i with a nonnegative margin.
    """
    val = validate_instance(inst)
    if not val.ok:
        raise HarnessError("instance failed validation:\n" + "\n".join(val.lines()))
    ledger = derive_parameters(inst)
    report = RunReport({"suite": "lemma"}, name, ledger.as_decimal_dict())
    t0 = time.perf_counter()

    for spec in boundary_specs(inst, ledger):
        forged = forge_adversary(inst, cert, spec, extended=True)
        out = run_test(forged.targeted_test, forged, inst, mode=MODE_EXACT)
        with mpmath.workdps(WITNESS_DPS):
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
            extra = f"joint_projection={mpmath.nstr(joint, 10)};floor={mpmath.nstr(floor, 10)}"
        report.lemma_rows.append(
            LemmaRow(
                spec.kind.value,
                forged.targeted_test,
                _mag_str(spec.magnitude),
                _mag_str(forged.measured_deviation),
                mpmath.nstr(reject, 25),
                mpmath.nstr(threshold, 25),
                mpmath.nstr(margin, 25),
                bool(passed),
                extra,
            )
        )

    if cert is not None:
        note = _final_state_note(inst, cert, ledger)
        report.notes.append(note)
    report.timings = {"total_s": time.perf_counter() - t0}
    return report


def _mag_str(m) -> str:
    if isinstance(m, tuple):
        return "(" + ", ".join(_mag_str(v) for v in m) + ")"
    if isinstance(m, mpmath.mpf):
        return mpmath.nstr(m, 20)
    return repr(float(m))


def _final_state_note(inst, cert, ledger) -> str:
    """Distance of the replayed traversal endpoint from the target vs eta3 + 3h."""
    state = prepare_state_from_circuit(inst, "psi")
    for idx in cert.gates:
        state = apply_local_gate(state, inst.gate_set[idx], 0)
    phi = prepare_state_from_circuit(inst, "phi")
    dist = phase_optimized_distance(state, phi)
    bound = float(ledger.eta3 + 3 * ledger.h)
    status = "holds" if dist < bound else "VIOLATED"
    return f"final-state condition: ||U_m...U_1 psi - phi|| = {dist!r} < eta3 + 3h = {bound!r} ({status})"
