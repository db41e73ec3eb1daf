"""The three benchmark workloads: set-up, one timed op, and its correctness check.

Each workload is a closed loop in one process: the next op starts when the
previous one returns.  Ops call only the package's stable entry points
(``run_monte_carlo``, ``run_lemma_suite``, ``run_test``,
``run_protocol_round``, ``CounterStream``); set-up also uses
``resolve_instance``, ``validate_instance``, ``derive_parameters``,
``build_witnesses`` and ``demo_magnitude``.  Every call goes through the
module attribute so the tracer's wrappers see it.

Sampled counts are checked against exact branch sums with a z-bound on the
signed root deviance ``z = sign(k/n - p) * sqrt(2 n KL(k/n || p))``.  By the
Chernoff bound ``P(|z| >= x) <= 2 exp(-x^2 / 2)`` for any ``n`` and ``p``, so
``z_bound(N)`` keeps the family-wise false-alarm rate over ``N`` checked rows
at most ``ALPHA`` without a normal approximation.
"""

from __future__ import annotations

import hashlib
import math

import mpmath
import numpy as np

from ffgscon import harness, instances, ledger, rng, verifier, witnesses

ALPHA = 1e-3  # family-wise false-alarm rate per run
YES_FIXTURES = ("idle", "bell-flip", "bell-stepwise", "tilted-target")
ALL_FIXTURES = YES_FIXTURES + ("blocked-bell", "blocked-qubit")
ADVERSARIAL = (
    ("bell-flip", ("WRONG_END", "MISMATCHED_U")),
    ("bell-stepwise", ("BROKEN_SEQUENCE", "HIGH_ENERGY")),
)
PLANTED_SHIFT = 0.25  # added to one expected reject probability by --plant-wrong-expected


def derive_seed(seed: int, *parts) -> int:
    """64-bit seed for one op, fixed by the workload seed and the op's place."""
    text = ":".join(str(p) for p in (seed,) + parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little")


def z_bound(rows_checked: int, alpha: float = ALPHA) -> float:
    return math.sqrt(2.0 * math.log(2.0 * max(rows_checked, 1) / alpha))


def deviance_z(k: int, n: int, p: float) -> float:
    """Signed root deviance of k rejects in n trials against reject probability p."""
    p = min(max(float(p), 0.0), 1.0)
    q = k / n
    if (p == 0.0 and q > 0.0) or (p == 1.0 and q < 1.0):
        return math.inf
    kl = 0.0
    if q > 0.0:
        kl += q * math.log(q / p)
    if q < 1.0:
        kl += (1.0 - q) * (math.log1p(-q) - math.log1p(-p))
    return math.copysign(math.sqrt(2.0 * n * max(kl, 0.0)), q - p)


def _reject(outcome) -> float:
    return float(mpmath.mpf(outcome.reject_probability))


def _exact_rejects(wit, inst, led) -> list[float]:
    """Exact reject probabilities of tests 1..8 and the round (index 8)."""
    rows = [_reject(verifier.run_test(i, wit, inst, mode="exact")) for i in range(1, 9)]
    rows.append(_reject(verifier.run_protocol_round(wit, inst, led, mode="exact")))
    return rows


def _resolve(name):
    inst, cert, display = harness.resolve_instance(name)
    report = instances.validate_instance(inst)
    if not report.ok:
        raise RuntimeError(f"fixture {name} failed validation")
    return inst, cert, display, ledger.derive_parameters(inst)


class Failure(str):
    """Why an op failed outright.  Any other record is evidence for ``failures``:

    sampled-bulk a list of (rejects, trials, exact reject probability) rows,
    per-shot a small int ``2 * pool + rejected`` (kept small so that a run of
    a quarter million shots does not grow the benchmark's own memory), and
    exact-extended None.
    """


# Reference computations: fixed work of the same kind as each workload's ops,
# using numpy and mpmath only.  The runner times one after every block of ops
# and reports op time in multiples of it, which cancels the host's changing
# speed (see run.py).
_M, _MASK, _W = np.uint64(0xD2511F53), np.uint64(0xFFFFFFFF), np.uint64(0x9E3779B9)


def _reference_arrays():
    """Philox-style multiply/shift/xor passes over 2**20 counters (8 MiB, past L2)."""
    c = np.arange(1 << 20, dtype=np.uint64)
    for _ in range(4):
        p = _M * (c & _MASK)
        c = (p >> np.uint64(32)) ^ (p & _MASK)


def _reference_mpmath():
    """120-digit mpmath arithmetic, the currency of the extended witnesses."""
    with mpmath.workdps(120):
        x, acc = mpmath.sqrt(2), mpmath.mpf(0)
        for i in range(300):
            acc += x * (i + 1) / (x + i)


def _reference_scalars():
    """numpy-scalar Philox-style rounds and small-array calls, as one sampled shot makes."""
    c, k = np.uint64(12345), np.uint64(678)
    for _ in range(1500):
        p = _M * c
        c = ((p >> np.uint64(32)) ^ k) & _MASK
        k = (k + _W) & _MASK
    for _ in range(60):
        np.cumsum(np.clip(np.abs(np.arange(16.0)) ** 2, 0, 1))


class SampledBulk:
    """``verify --mode both --trials 10**6`` on six configs in rotation."""

    name = "sampled-bulk"
    rotation = 1
    reference = staticmethod(_reference_arrays)

    def __init__(self, seed: int, trials: int = 10**6):
        self.seed = seed
        self.trials = trials

    def setup(self):
        configs = []
        for name in YES_FIXTURES:
            inst, cert, _, led = _resolve(name)
            configs.append((name, (), harness.build_witnesses(inst, cert), inst, led))
        for name, kinds in ADVERSARIAL:
            inst, cert, _, led = _resolve(name)
            specs = []
            for kind_name in kinds:
                kind = witnesses.AdversaryKind[kind_name]
                specs.append(witnesses.AdversarySpec(kind, harness.demo_magnitude(kind, inst, led)))
            specs = tuple(specs)
            configs.append((name, specs, harness.build_witnesses(inst, cert, specs), inst, led))
        return configs

    def expected(self, configs, plant: bool):
        out = []
        for _, _, wit, inst, led in configs:
            rows = _exact_rejects(wit, inst, led)
            if plant:
                rows[0] = min(rows[0] + PLANTED_SHIFT, 1.0)
            out.append(rows)
        return out

    def config(self, configs, k: int, workers: int = 1):
        name, specs, _, _, _ = configs[k % len(configs)]
        return harness.ExperimentConfig(name, mode="both", trials=self.trials,
                                        seed=derive_seed(self.seed, self.name, k), adversary=specs, workers=workers)

    def op(self, configs, k):
        cfg = self.config(configs, k)
        return lambda: harness.run_monte_carlo(cfg)

    def check(self, configs, expected, k, report):
        report.to_json()  # what verify --out writes; a failure to serialize fails the op
        rows = report.rows
        if len(rows) != 9:
            return Failure(f"expected 9 rows, got {len(rows)}")
        checked = []
        for row, p in zip(rows, expected[k % len(configs)]):
            if row.trials != self.trials or row.accepts + row.rejects != row.trials:
                return Failure(f"row {row.test_id}: {row.accepts} + {row.rejects} != {self.trials}")
            if row.exact_reject is None or not math.isclose(float(row.exact_reject), p, rel_tol=1e-9, abs_tol=1e-15):
                return Failure(f"row {row.test_id}: exact reject {row.exact_reject} != expected {p!r}")
            checked.append((row.rejects, row.trials, p))
        return checked


class ExactExtended:
    """``lemmas <fixture>``: eight 120-digit boundary adversaries per suite."""

    name = "exact-extended"
    rotation = len(ALL_FIXTURES)
    reference = staticmethod(_reference_mpmath)

    def __init__(self, seed: int):
        self.offset = seed % len(ALL_FIXTURES)  # the seed picks where the rotation starts

    def setup(self):
        return [_resolve(name) for name in ALL_FIXTURES]

    def expected(self, fixtures, plant: bool):
        tests = set(range(2, 10)) if plant else set(range(1, 9))
        return [(tests, cert is not None) for _, cert, _, _ in fixtures]

    def fixture(self, k):
        return (k + self.offset) % len(ALL_FIXTURES)

    def op(self, fixtures, k):
        inst, cert, display, _ = fixtures[self.fixture(k)]
        return lambda: harness.run_lemma_suite(inst, cert, display)

    def check(self, fixtures, expected, k, report):
        tests, has_note = expected[self.fixture(k)]
        rows = report.lemma_rows
        if len(rows) != len(tests) or {r.targeted_test for r in rows} != tests:
            return Failure(f"lemma rows target {sorted(r.targeted_test for r in rows)}")
        for r in rows:
            if not r.passed or mpmath.mpf(r.margin) < 0:
                return Failure(f"lemma row {r.kind} failed: margin {r.margin}")
        if any("VIOLATED" in note for note in report.notes) or (len(report.notes) == 1) != has_note:
            return Failure(f"final-state notes {report.notes}")
        return None


class PerShot:
    """Single sampled decisions: tests 1..8 and the round on honest f64 witnesses."""

    name = "per-shot"
    rotation = len(YES_FIXTURES) * 9
    reference = staticmethod(_reference_scalars)

    def __init__(self, seed: int):
        self.stream_seed = derive_seed(seed, self.name)

    def setup(self):
        out = []
        for name in YES_FIXTURES:
            inst, cert, _, led = _resolve(name)
            out.append((harness.build_witnesses(inst, cert), inst, led))
        return out

    def expected(self, fixtures, plant: bool):
        out = [_exact_rejects(wit, inst, led) for wit, inst, led in fixtures]
        if plant:
            for rows in out:
                rows[0] = min(rows[0] + PLANTED_SHIFT, 1.0)
        return out

    def place(self, pool):
        """(fixture index, test index) of a pool; test index 8 is the round."""
        return divmod(pool, 9)

    def op(self, fixtures, k):
        f, t = self.place(k % self.rotation)
        wit, inst, led = fixtures[f]
        if t < 8:
            stream = rng.CounterStream(self.stream_seed, t + 1, k)
            return lambda: verifier.run_test(t + 1, wit, inst, mode="sampled", stream=stream)
        stream = rng.CounterStream(self.stream_seed, rng.STREAM_ROUND, k)
        return lambda: verifier.run_protocol_round(wit, inst, led, mode="sampled", stream=stream)

    def check(self, fixtures, expected, k, outcome):
        if outcome.verdict not in ("accept", "reject"):
            return Failure(f"verdict {outcome.verdict!r}")
        return 2 * (k % self.rotation) + (outcome.verdict == "reject")


WORKLOADS = {w.name: w for w in (SampledBulk, ExactExtended, PerShot)}


def failures(workload, expected, records: list) -> tuple[list[bool], dict]:
    """Per-op failure flags after every sampled row is in, and the z-bound used.

    Sampled-bulk rows are checked one by one; per-shot verdicts are pooled per
    fixture and test first, and every op of a pool outside the bound fails.
    """
    failed = [isinstance(r, Failure) for r in records]
    worst = 0.0
    if isinstance(workload, PerShot):
        shots, rejects = [0] * workload.rotation, [0] * workload.rotation
        for r in records:
            if not isinstance(r, Failure):
                shots[r // 2] += 1
                rejects[r // 2] += r % 2
        bad = set()
        checked = [i for i in range(workload.rotation) if shots[i]]
        bound = z_bound(len(checked))
        for i in checked:
            f, t = workload.place(i)
            z = deviance_z(rejects[i], shots[i], expected[f][t])
            worst = max(worst, abs(z))
            if abs(z) > bound:
                bad.add(i)
        for j, r in enumerate(records):
            if not failed[j] and r // 2 in bad:
                failed[j] = True
        return failed, {"rows_checked": len(checked), "z_bound": bound, "max_abs_z": worst}
    rows = [(i, row) for i, r in enumerate(records) if isinstance(r, list) for row in r]
    bound = z_bound(len(rows))
    for i, (k, n, p) in rows:
        z = deviance_z(k, n, p)
        worst = max(worst, abs(z))
        if abs(z) > bound:
            failed[i] = True
    return failed, {"rows_checked": len(rows), "z_bound": bound if rows else None, "max_abs_z": worst}
