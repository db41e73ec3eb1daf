"""The eight verification tests and the dispatching round.

Each test's branch tree is defined once, as a frozen :class:`BranchPlan`
that :func:`branch_plan` builds at the proof's precision: its branch
probabilities, its exact accept and reject sums, and the tally kernel of
:mod:`ffgscon._kernels` with the float arguments that realize the tree trial
by trial.  A :class:`~ffgscon.witnesses.Proof` keeps the plans built on it,
so the exact sums, the bulk tallies and every single shot on one proof and
instance read one plan per test, built once.

Exact mode is the analytic branch sum over the plan; nothing is ever
estimated by averaging samples.  Accept and reject masses are accumulated
through *separate* branch sums so that rejection probabilities far below
double resolution of 1 survive (an acceptance of 1 - 1e-70 rounds to 1.0,
but its rejection branch sum is a healthy 1e-70).

Sampled mode runs the plan's kernel, on the float mirror of the plan's
probabilities, over an array of trial indices.  A test shot at the address
``CounterStream(seed, stream, trial, draw)`` is :meth:`BranchPlan.shot`:
:meth:`BranchPlan.tally` on ``[trial]`` from ``draw`` on.  :func:`sample_round` is the one round
dispatcher: a draw picks the test, the picked plan reads the draws after
it.  A round shot is that dispatcher on ``[trial]``, so every shot's verdict
is the verdict of its trial in a bulk tally.

Where a projection can fail, failure is an absorbing *accept* branch
contributing its full probability mass (tests 3 and 5); the sequence test's
label uncompute step is a pure bookkeeping contraction because the two label
registers are perfectly correlated after the equal-label projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import mpmath
import numpy as np

from . import _kernels
from .instances import GsconInstance, energy_sum, prepare_state_from_circuit, term_energies
from .rng import CounterStream
from .states import (
    RegisteredState,
    _apply_matrix_axes,
    _sqrt,
    conditional_state,
    precision,
    project_onto,
    projection_deficit,
    register_distribution,
    swap_test_reject_prob,
    tensor_with,
    uniform_vector,
)
from .witnesses import Proof

MODE_EXACT = "exact"
MODE_SAMPLED = "sampled"

TEST_NAMES = {
    1: "swap-u",
    2: "unique",
    3: "uniform",
    4: "swap-s",
    5: "sequence",
    6: "start",
    7: "end",
    8: "low",
}


@dataclass(frozen=True)
class TestOutcome:
    test_id: object  # 1..8 or "ROUND"
    mode: str
    accept_probability: object | None = None  # float or mpf, exact mode
    reject_probability: object | None = None
    verdict: str | None = None  # "accept" / "reject", sampled mode
    trace: tuple = ()

    def __post_init__(self):
        if self.accept_probability is not None:
            if not -1e-9 <= float(self.accept_probability) <= 1 + 1e-9:
                raise ValueError(f"acceptance probability {self.accept_probability} outside [0, 1]")


def _check_mode(mode, stream: CounterStream | None) -> None:
    """Refuse a mode other than exact or sampled, and a sampled verdict without a stream."""
    if mode not in (MODE_EXACT, MODE_SAMPLED):
        raise ValueError(f"mode must be {MODE_EXACT!r} or {MODE_SAMPLED!r}, got {mode!r}")
    if mode == MODE_SAMPLED and stream is None:
        raise ValueError("sampled mode needs a counter stream")


@dataclass(frozen=True)
class BranchPlan:
    """One test's branch tree, computed once at the proof's precision.

    ``trace`` names the branch probabilities; ``reject`` and ``accept`` are
    the exact branch sums; ``kernel`` is the tally of :mod:`ffgscon._kernels`
    that realizes the tree per trial, on the float arguments ``args``.
    ``live`` is whether some trial of that kernel can reject, decided at build
    (:func:`ffgscon._kernels.holds_uniform`); a plan that is not live draws nothing.

    The plan's outcomes are built once, each kind on first use, and shared:
    the exact outcome, the two sampled verdicts, and the two verdicts of a
    round that picked this test (trace ``(("test", i),) + trace``).  A
    :class:`TestOutcome` is frozen, so every shot returns one of these.
    """

    test_id: int  # 1..8
    trace: tuple
    reject: object
    accept: object
    live: bool
    kernel: Callable
    args: tuple

    @cached_property
    def _exact(self) -> TestOutcome:
        return TestOutcome(self.test_id, MODE_EXACT, self.accept, self.reject, trace=self.trace)

    @cached_property
    def _verdicts(self) -> tuple[TestOutcome, TestOutcome]:
        """The sampled (accept, reject) outcomes, indexed by the one trial's reject count."""
        return tuple(TestOutcome(self.test_id, MODE_SAMPLED, verdict=v, trace=self.trace) for v in ("accept", "reject"))

    @cached_property
    def _round_verdicts(self) -> tuple[TestOutcome, TestOutcome]:
        """The (accept, reject) outcomes of a sampled round that picked this test."""
        trace = (("test", self.test_id),) + self.trace
        return tuple(TestOutcome("ROUND", MODE_SAMPLED, verdict=v, trace=trace) for v in ("accept", "reject"))

    def exact(self) -> TestOutcome:
        return self._exact

    def tally(self, seed, stream, trials, draw0=0) -> tuple[int, int]:
        """(accepts, rejects) over an array of trial indices, from draw ``draw0`` on."""
        if not self.live:
            return len(trials), 0
        return self.kernel(seed, stream, trials, draw0, *self.args)

    def shot(self, stream: CounterStream) -> TestOutcome:
        """The sampled verdict at ``stream``: the tally of the one trial ``[stream.trial]``."""
        _, rejected = self.tally(stream.seed, stream.stream, [stream.trial], stream.draw)
        return self._verdicts[rejected]


def _plan(test_id, trace, reject, live, kernel, *args) -> BranchPlan:
    """A plan of tests 1..8, whose accept sum is ``1 - reject`` at the builder's precision."""
    return BranchPlan(test_id, tuple(trace), reject, 1 - reject, bool(live), kernel, args)


def _label_cdf(probs) -> np.ndarray:
    return np.cumsum(np.clip(np.asarray(probs, dtype=np.float64), 0, 1))


def _grid(p):
    """The nearest multiple of 2**-53 to the double ``p`` (half to even): a uniform's grid, so dust is 0."""
    return np.round(p * 2**53) * 2**-53


def _chain_plan(test_id, stages, lo=None, hi=None) -> BranchPlan:
    """A plan of :func:`ffgscon._kernels.tally_chain`: reject iff ``lo[k] <= u_k < hi[k]`` at every stage k.

    ``stages`` names the stage probabilities in order; the reject sum is their product, and the bounds
    default to ``[0, p_k)`` with ``p_k`` on the uniform grid (:func:`_grid`).  A stage of None had no
    surviving mass and never fires.
    """
    probs = [p for _, p in stages]
    reject = 0.0 if any(p is None for p in probs) else math.prod(probs)
    if hi is None:
        lo, hi = [0.0] * len(probs), [0.0 if p is None else _grid(float(p)) for p in probs]
    lo, hi = tuple(map(float, lo)), tuple(map(float, hi))
    return _plan(test_id, stages, reject, np.all(_kernels.holds_uniform(lo, hi)), _kernels.tally_chain, lo, hi)


# ---------------------------------------------------------------------------
# tests 1 and 4: swap consistency
# ---------------------------------------------------------------------------


def _swap_plan(test_id, a: RegisteredState, b: RegisteredState) -> BranchPlan:
    return _chain_plan(test_id, (("swap_reject", swap_test_reject_prob(a, b)),))


# ---------------------------------------------------------------------------
# test 2: label/gate measurements agree and decode
# ---------------------------------------------------------------------------


def _unique_plan(proof: Proof, inst: GsconInstance) -> BranchPlan:
    """Measure (label, gate) on U and U'; reject on equal labels with unequal or out-of-set gates.

    ``mismatch[g, g2]`` is the one rejection rule: unequal gates, or an out-of-set first gate.  The
    exact sum and the kernel both read it.  The kernel draws from the float CDFs of the two outcome
    distributions; the plan is live when a pair it can pick rejects
    (:func:`ffgscon._kernels.unique_can_reject`, which counts the width the last index gains from
    the clamp).  The exact reject sum ignores the clamp, so it cannot stand in.
    """
    pa = np.abs(proof.u.amplitudes) ** 2
    pb = np.abs(proof.u_prime.amplitudes) ** 2
    G = inst.G
    mismatch = ~np.eye(G, dtype=bool) | (np.arange(G) >= len(inst.gate_set))[:, None]
    # over joint outcomes in (label, g, g2) order; never formed as 1 - accept
    reject = 0.0
    cells = np.argwhere(mismatch).tolist()
    for i in range(pa.shape[0]):
        for g, g2 in cells:
            reject = reject + pa[i, g] * pb[i, g2]
    cdf_a = np.cumsum(np.asarray(pa, dtype=np.float64).ravel())
    cdf_b = np.cumsum(np.asarray(pb, dtype=np.float64).ravel())
    live = _kernels.unique_can_reject(cdf_a, cdf_b, mismatch)
    return _plan(2, (("joint_mismatch", reject),), reject, live, _kernels.tally_unique, cdf_a, cdf_b, mismatch)


# ---------------------------------------------------------------------------
# tests 3 and 5: chains of projections; reject iff every stage fires
# ---------------------------------------------------------------------------


def _uniform_plan(proof: Proof, inst: GsconInstance) -> BranchPlan:
    """Test 3: uniform gate register, then uniform labels."""
    u = proof.u
    gbar = uniform_vector(inst.G)
    p_gbar, post = project_onto(u, 1, gbar)
    q_label = None
    if post is not None:
        lbar = uniform_vector(u.dims[0])
        q_label = projection_deficit(post, 0, lbar)
    return _chain_plan(3, (("gate_uniform_prob", p_gbar), ("label_nonuniform_prob", q_label)))


def _sequence_plan(proof: Proof, inst: GsconInstance) -> BranchPlan:
    """Test 5: probabilistic shift-and-gate, then swap against the second copy.

    Stages: gate projection, label match, final swap rejection.  For honest
    witnesses the joint projection success is exactly 1/(2mG): 1/G for the
    gate projection times 1/(2m) for the label match.
    """
    joint = tensor_with(proof.u, proof.s)  # (2m, G, 2m, 2 ... 2)
    t = joint.amplitudes.copy()
    n_set = len(inst.gate_set)
    for g in range(min(inst.G, n_set)):  # out-of-set encodings act as identity
        gate = inst.gate_set[g]
        axes = tuple(2 + tq for tq in gate.targets)  # sliced layout: (2m, 2m, data...)
        t[:, g] = _apply_matrix_axes(t[:, g], gate.matrix, axes)
    controlled = RegisteredState(t, check=False)

    gbar = uniform_vector(inst.G)
    p_gate, post = project_onto(controlled, 1, gbar)
    p_label = q_swap = None
    if post is not None:
        # drop the gate register (it is exactly |gbar> after the projection)
        reduced = np.tensordot(np.conj(gbar), post.amplitudes, axes=([0], [1]))  # (2m, 2m, data...)
        diag = np.array([reduced[i, i] for i in range(reduced.shape[0])])  # (2m, data...)
        p_label = (np.abs(diag) ** 2).sum()
        if p_label > 0:
            shifted = np.roll(diag / _sqrt(p_label), 1, axis=0)  # cyclic label shift, 2m -> 1
            q_swap = swap_test_reject_prob(RegisteredState(shifted, check=False), proof.s_prime)
    return _chain_plan(5, (("gate_projection_prob", p_gate), ("label_match_prob", p_label), ("swap_reject", q_swap)))


# ---------------------------------------------------------------------------
# tests 6 and 7: boundary states
# ---------------------------------------------------------------------------


def _boundary_plan(test_id, which, proof: Proof, inst: GsconInstance) -> BranchPlan:
    s = proof.s
    target = 0 if which == "psi" else inst.m
    probs = register_distribution(s, 0)
    p_label = probs[target]
    q = None
    if p_label > 0:
        _, data = conditional_state(s, 0, target)
        anchor = prepare_state_from_circuit(inst, which)
        q = swap_test_reject_prob(data, anchor)
    lo, hi = _kernels.pick_bounds(_label_cdf(probs))
    stages = (("label_prob", p_label), ("swap_reject", q))
    return _chain_plan(test_id, stages, [lo[target], 0.0], [hi[target], 0.0 if q is None else _grid(float(q))])


# ---------------------------------------------------------------------------
# test 8: energy of a random sequence entry
# ---------------------------------------------------------------------------


def _low_plan(proof: Proof, inst: GsconInstance) -> BranchPlan:
    """Measure the label, pick a term uniformly, reject with <H_term>: reject = sum p_i E_i / R."""
    s = proof.s
    probs = register_distribution(s, 0)
    two_m = s.dims[0]
    energies = [0.0] * two_m  # per label; 0 where the label has no mass
    reject_table = np.zeros((two_m, inst.R))  # per label and term: the clamped float expectation, gridded below
    for i in range(two_m):
        _, data = conditional_state(s, 0, i)
        if data is not None:
            row = term_energies(inst, data)
            energies[i] = energy_sum(row)
            reject_table[i] = [min(max(float(v), 0.0), 1.0) for v in row]
    reject = sum(p * e for p, e in zip(probs, energies)) / inst.R
    reject_table = _grid(reject_table)
    live = np.any(_kernels.holds_uniform(0.0, reject_table))
    return _plan(8, (("mean_energy_over_R", reject),), reject, live, _kernels.tally_low, _label_cdf(probs), reject_table)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_PLAN_BUILDERS = {
    1: lambda proof, inst: _swap_plan(1, proof.u, proof.u_prime),
    2: _unique_plan,
    3: _uniform_plan,
    4: lambda proof, inst: _swap_plan(4, proof.s, proof.s_prime),
    5: _sequence_plan,
    6: lambda proof, inst: _boundary_plan(6, "psi", proof, inst),
    7: lambda proof, inst: _boundary_plan(7, "phi", proof, inst),
    8: _low_plan,
}


def branch_plan(test_id: int, proof: Proof, inst: GsconInstance) -> BranchPlan:
    """The branch tree of test ``test_id`` (1..8) on the given proof.

    Every sum and kernel argument is computed here, at the proof's precision,
    once per proof and instance: the plan is memoized in
    ``proof.plans`` under the test id, next to the instance it was built
    for, and rebuilt only for another instance object.  Amplitudes are
    read-only and ``dataclasses.replace`` starts an empty cache, so a
    cached plan always describes the proof it sits on.
    """
    entry = proof.plans.get(test_id)
    if entry is not None and entry[0] is inst:
        return entry[1]
    if test_id not in _PLAN_BUILDERS:
        raise ValueError(f"test id must be one of 1..8, got {test_id!r}")
    # extended amplitudes carry WITNESS_DPS digits; arithmetic and the vectors built here
    # must too, or the branch sums measure rounding noise instead of the deviation
    with precision(proof.extended):
        plan = _PLAN_BUILDERS[test_id](proof, inst)
    proof.plans[test_id] = (inst, plan)
    return plan


def run_test(test_id: int, proof: Proof, inst, *, mode=MODE_EXACT, stream: CounterStream | None = None) -> TestOutcome:
    _check_mode(mode, stream)
    plan = branch_plan(test_id, proof, inst)
    return plan.exact() if mode == MODE_EXACT else plan.shot(stream)


def exact_round(plans: dict, ledger) -> TestOutcome:
    """Total acceptance sum(p_i * a_i) of one round, from the eight test plans.

    Evaluated in the ledger's extended precision through its complement
    1 - sum(p_i rej_i): the rejection side is a sum of small positives and
    stays exact where the acceptance side would round to 1.  The per-test
    exact probabilities go in the trace.
    """
    with precision(extended=True):
        total_rej = mpmath.mpf(0)
        trace = []
        for i in range(1, 9):
            total_rej += ledger.p[i - 1] * mpmath.mpf(plans[i].reject)
            trace.append((f"accept_{i}", plans[i].accept))
            trace.append((f"reject_{i}", plans[i].reject))
        return TestOutcome("ROUND", MODE_EXACT, 1 - total_rej, total_rej, trace=tuple(trace))


def sample_round(plan_of: Callable[[int], BranchPlan], cdf, seed, stream, trials, draw0=0):
    """(accepts, rejects, picks) of the round over an array of trial indices.

    The first uniform of slot ``draw0`` picks each trial's test from ``cdf``
    (``picks`` holds the test ids 1..8; nothing is drawn when test 1 is
    certain); the picked plan's kernel reads the slots from ``draw0 + 1``
    on.  ``plan_of(i)`` is called only for tests some trial picked.  When one
    test takes every trial (always so for one trial), its plan gets the
    trial array itself, not a masked copy.
    """
    trials = np.asarray(trials, dtype=np.uint64)
    picks = _kernels.select(seed, stream, trials, draw0, cdf)
    picks += 1
    picked = np.flatnonzero(np.bincount(picks)).tolist()
    acc = rej = 0
    for i in picked:
        a, r = plan_of(i).tally(seed, stream, trials if len(picked) == 1 else trials[picks == i], draw0 + 1)
        acc += a
        rej += r
    return acc, rej, picks


def run_protocol_round(proof: Proof, inst, ledger, *, mode=MODE_EXACT, stream: CounterStream | None = None) -> TestOutcome:
    """One verifier round: pick test i with probability p_i, run it.

    Exact mode returns :func:`exact_round`.  Sampled mode is
    :func:`sample_round` on the stream's trial, from draw ``stream.draw``.
    """
    _check_mode(mode, stream)
    if mode == MODE_EXACT:
        return exact_round({i: branch_plan(i, proof, inst) for i in range(1, 9)}, ledger)
    _, rejected, picks = sample_round(
        lambda i: branch_plan(i, proof, inst), ledger.round_cdf, stream.seed, stream.stream, [stream.trial], stream.draw
    )
    return branch_plan(int(picks[0]), proof, inst)._round_verdicts[rejected]

