"""The eight verification tests, the dispatching round, and the product test.

Each test's branch tree is defined once, by :func:`branch_plan`: its branch
probabilities at the witnesses' precision, plus the tally kernel of
:mod:`ffgscon._kernels` that realizes the tree trial by trial.

Exact mode is the analytic branch sum over the plan; nothing is ever
estimated by averaging samples.  Accept and reject masses are accumulated
through *separate* branch sums so that rejection probabilities far below
double resolution of 1 survive (an acceptance of 1 - 1e-70 rounds to 1.0,
but its rejection branch sum is a healthy 1e-70).

Sampled mode runs the plan's kernel, on the float mirror of the plan's
probabilities, over an array of trial indices.  A test shot at the address
``CounterStream(seed, stream, trial, draw)`` is :meth:`BranchPlan.tally` on
``[trial]`` from ``draw`` on.  :func:`sample_round` is the one round
dispatcher: a draw picks the test, the picked plan reads the draws after
it.  A round shot is that dispatcher on ``[trial]``, so every shot's verdict
is the verdict of its trial in a bulk tally.

Where a projection can fail, failure is an absorbing *accept* branch
contributing its full probability mass (tests 3 and 5); the sequence test's
label uncompute step is a pure bookkeeping contraction because the two label
registers are perfectly correlated after the equal-label projection.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import mpmath
import numpy as np

from . import _kernels
from .instances import GsconInstance, energy_sum, prepare_state_from_circuit, term_energies
from .states import (
    RegisteredState,
    RegisterShape,
    ShapeMismatchError,
    _apply_matrix_axes,
    conditional_state,
    project_onto,
    projection_deficit,
    register_distribution,
    swap_test_reject_prob,
    tensor_with,
    uniform_vector,
)
from .witnesses import WITNESS_DPS, ForgedWitnesses, WitnessS, WitnessU

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
    test_id: object  # 1..8, "ROUND" or "PRODUCT"
    mode: str
    accept_probability: object | None = None  # float or mpf, exact mode
    reject_probability: object | None = None
    verdict: str | None = None  # "accept" / "reject", sampled mode
    trace: tuple = ()
    seed: int | None = None
    trial: int | None = None

    def __post_init__(self):
        if self.accept_probability is not None:
            if not -1e-9 <= float(self.accept_probability) <= 1 + 1e-9:
                raise ValueError(f"acceptance probability {self.accept_probability} outside [0, 1]")

    @property
    def accepted(self) -> bool | None:
        return None if self.verdict is None else self.verdict == "accept"

    def record(self) -> str:
        """One-line serialization: id, mode, probabilities/verdict, seed, trace."""

        def fmt(v):
            if v is None:
                return "-"
            if isinstance(v, mpmath.mpf):
                return mpmath.nstr(v, 17)
            return repr(v) if isinstance(v, float) else str(v)

        trace = ";".join(f"{k}={fmt(v)}" for k, v in self.trace) or "-"
        return (
            f"test={self.test_id} mode={self.mode} accept={fmt(self.accept_probability)} "
            f"reject={fmt(self.reject_probability)} verdict={fmt(self.verdict)} "
            f"seed={fmt(self.seed)} trial={fmt(self.trial)} trace={trace}"
        )


def _unpack(witnesses) -> tuple[WitnessU, WitnessU, WitnessS, WitnessS]:
    if isinstance(witnesses, ForgedWitnesses):
        return witnesses.as_tuple()
    u, up, s, sp = witnesses
    return u, up, s, sp


def _outcome(test_id, mode, accept, reject, verdict=None, trace=(), stream=None):
    seed = getattr(stream, "seed", None) if stream is not None else None
    trial = getattr(stream, "trial", None) if stream is not None else None
    return TestOutcome(test_id, mode, accept, reject, verdict, tuple(trace), seed, trial)


def _verdict(accepted: bool) -> str:
    return "accept" if accepted else "reject"


def _precision(dps):
    return mpmath.workdps(dps) if dps else contextlib.nullcontext()


@dataclass
class BranchPlan:
    """One test's branch tree, computed once at the witnesses' precision.

    ``trace`` names the branch probabilities.  The exact branch sum
    (``reject``) and the kernel's float arguments (``args``) are derived on
    first use only: test 2's sum is a Python loop over every joint outcome
    and costs as much as a whole sampled shot.
    """

    test_id: int
    trace: tuple
    kernel: Callable  # the _kernels tally realizing the tree per trial
    branch_sum: Callable[[], object]
    kernel_args: Callable[[], tuple]
    reject_name: str | None = None  # trace name of the reject sum, for trees with one summary value
    dps: int | None = None  # mpmath digits of extended witnesses

    @cached_property
    def reject(self):
        with _precision(self.dps):
            return self.branch_sum()

    @cached_property
    def args(self) -> tuple:
        return self.kernel_args()

    def exact(self) -> TestOutcome:
        with _precision(self.dps):
            accept = 1 - self.reject
        trace = self.trace + (((self.reject_name, self.reject),) if self.reject_name else ())
        return _outcome(self.test_id, MODE_EXACT, accept, self.reject, trace=trace)

    def tally(self, seed, stream, trials, draw0=0) -> tuple[int, int]:
        """(accepts, rejects) over an array of trial indices, from draw ``draw0`` on."""
        return self.kernel(seed, stream, trials, draw0, *self.args)


def _label_cdf(probs) -> np.ndarray:
    return np.cumsum(np.clip(np.asarray(probs, dtype=np.float64), 0, 1))


# ---------------------------------------------------------------------------
# tests 1 and 4: swap consistency
# ---------------------------------------------------------------------------


def _swap_plan(test_id, a: RegisteredState, b: RegisteredState) -> BranchPlan:
    q = swap_test_reject_prob(a, b)
    return BranchPlan(test_id, (), _kernels.tally_bernoulli, lambda: q, lambda: (float(q),), "swap_reject")


def _swap_u_plan(witnesses, inst) -> BranchPlan:
    u, up, _, _ = _unpack(witnesses)
    return _swap_plan(1, u.state, up.state)


def _swap_s_plan(witnesses, inst) -> BranchPlan:
    _, _, s, sp = _unpack(witnesses)
    return _swap_plan(4, s.state, sp.state)


# ---------------------------------------------------------------------------
# test 2: label/gate measurements agree and decode
# ---------------------------------------------------------------------------


def _unique_plan(witnesses, inst: GsconInstance) -> BranchPlan:
    u, up, _, _ = _unpack(witnesses)
    pa = u.outcome_probabilities()
    pb = up.outcome_probabilities()
    n_set = len(inst.gate_set)
    G = inst.G

    def branch_sum():
        # over joint outcomes; never formed as 1 - accept
        reject = 0.0
        for i in range(u.label_dim):
            for g in range(G):
                for g2 in range(G):
                    if g != g2 or g >= n_set:
                        reject = reject + pa[i, g] * pb[i, g2]
        return reject

    def kernel_args():
        cdf_a = np.cumsum(np.asarray(pa, dtype=np.float64).ravel())
        cdf_b = np.cumsum(np.asarray(pb, dtype=np.float64).ravel())
        return cdf_a, cdf_b, G, np.arange(G) < n_set

    return BranchPlan(2, (), _kernels.tally_unique, branch_sum, kernel_args, "joint_mismatch")


# ---------------------------------------------------------------------------
# tests 3 and 5: chains of projections; reject iff every stage fires
# ---------------------------------------------------------------------------


def _chain_plan(test_id, stages) -> BranchPlan:
    """Stage probabilities in order; a stage of None had no surviving mass and never fires."""
    probs = [p for _, p in stages]
    return BranchPlan(
        test_id,
        tuple(stages),
        _kernels.tally_chain,
        lambda: 0.0 if any(p is None for p in probs) else math.prod(probs),
        lambda: (np.array([0.0 if p is None else float(p) for p in probs]),),
    )


def _uniform_plan(witnesses, inst: GsconInstance) -> BranchPlan:
    """Test 3: uniform gate register, then uniform labels."""
    u = _unpack(witnesses)[0]
    gbar = uniform_vector(inst.G, extended=u.state.extended)
    p_gbar, post = project_onto(u.state, 1, gbar)
    q_label = None
    if post is not None:
        lbar = uniform_vector(u.label_dim, extended=u.state.extended)
        q_label = projection_deficit(post, 0, lbar)
    return _chain_plan(3, (("gate_uniform_prob", p_gbar), ("label_nonuniform_prob", q_label)))


def _sequence_plan(witnesses, inst: GsconInstance) -> BranchPlan:
    """Test 5: probabilistic shift-and-gate, then swap against the second copy.

    Stages: gate projection, label match, final swap rejection.  For honest
    witnesses the joint projection success is exactly 1/(2mG): 1/G for the
    gate projection times 1/(2m) for the label match.
    """
    u, _, s, sp = _unpack(witnesses)
    if u.state.extended != s.state.extended or s.state.extended != sp.state.extended:
        raise ShapeMismatchError("witnesses must share one precision level")
    ext = u.state.extended
    joint = tensor_with(u.state, s.state)  # (2m, G, 2m, 2 ... 2)
    t = np.array(joint.as_tensor(), copy=True)
    n_set = len(inst.gate_set)
    for g in range(min(inst.G, n_set)):  # out-of-set encodings act as identity
        gate = inst.gate_set[g]
        axes = tuple(2 + tq for tq in gate.targets)  # sliced layout: (2m, 2m, data...)
        t[:, g] = _apply_matrix_axes(t[:, g], gate.matrix, axes)
    controlled = RegisteredState(joint.shape, t.ravel(), check=False)

    gbar = uniform_vector(inst.G, extended=ext)
    p_gate, post = project_onto(controlled, 1, gbar)
    p_label = q_swap = None
    if post is not None:
        # drop the gate register (it is exactly |gbar> after the projection)
        reduced = np.tensordot(np.conj(gbar), post.as_tensor(), axes=([0], [1]))  # (2m, 2m, data...)
        two_m = u.label_dim
        diag = np.array([reduced[i, i] for i in range(two_m)])  # (2m, data...)
        p_label = (np.abs(diag) ** 2).sum()
        if float(p_label) >= 1e-15:
            diag = diag / (mpmath.sqrt(p_label) if ext else math.sqrt(p_label))
            shifted = np.roll(diag, 1, axis=0)  # cyclic label shift, 2m -> 1
            t_prime = RegisteredState(RegisterShape((two_m,) + (2,) * inst.n), shifted.ravel(), check=False)
            q_swap = swap_test_reject_prob(t_prime, sp.state)
    return _chain_plan(5, (("gate_projection_prob", p_gate), ("label_match_prob", p_label), ("swap_reject", q_swap)))


# ---------------------------------------------------------------------------
# tests 6 and 7: boundary states
# ---------------------------------------------------------------------------


def _boundary_plan(test_id, which, witnesses, inst: GsconInstance) -> BranchPlan:
    s = _unpack(witnesses)[2]
    target = 0 if which == "psi" else inst.m
    probs = register_distribution(s.state, 0)
    p_label = probs[target]
    q = None
    if float(p_label) >= 1e-15:
        _, data = conditional_state(s.state, 0, target, drop=True)
        anchor = prepare_state_from_circuit(inst, which, extended=s.state.extended)
        q = swap_test_reject_prob(data, anchor)
    return BranchPlan(
        test_id,
        (("label_prob", p_label), ("swap_reject", q)),
        _kernels.tally_boundary,
        lambda: 0.0 if q is None else p_label * q,
        lambda: (_label_cdf(probs), target, 0.0 if q is None else float(q)),
    )


def _start_plan(witnesses, inst) -> BranchPlan:
    return _boundary_plan(6, "psi", witnesses, inst)


def _end_plan(witnesses, inst) -> BranchPlan:
    return _boundary_plan(7, "phi", witnesses, inst)


# ---------------------------------------------------------------------------
# test 8: energy of a random sequence entry
# ---------------------------------------------------------------------------


def _low_plan(witnesses, inst: GsconInstance) -> BranchPlan:
    """Measure the label, pick a term uniformly, reject with <H_term>: reject = sum p_i E_i / R."""
    s = _unpack(witnesses)[2]
    probs = register_distribution(s.state, 0)
    table = []  # per label: per-term expectations, or None where the label has no mass
    for i in range(s.label_dim):
        _, data = conditional_state(s.state, 0, i, drop=True)
        table.append(None if data is None else term_energies(inst, data))
    energies = [0.0 if row is None else energy_sum(row, s.state.extended) for row in table]

    def kernel_args():
        reject_table = np.zeros((s.label_dim, inst.R))
        for i, row in enumerate(table):
            if row is not None:
                reject_table[i] = [min(max(float(v), 0.0), 1.0) for v in row]
        return _label_cdf(probs), reject_table

    return BranchPlan(
        8,
        (),
        _kernels.tally_low,
        lambda: sum(p * e for p, e in zip(probs, energies)) / inst.R,
        kernel_args,
        "mean_energy_over_R",
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_PLAN_BUILDERS = {
    1: _swap_u_plan,
    2: _unique_plan,
    3: _uniform_plan,
    4: _swap_s_plan,
    5: _sequence_plan,
    6: _start_plan,
    7: _end_plan,
    8: _low_plan,
}


def branch_plan(test_id: int, witnesses, inst: GsconInstance) -> BranchPlan:
    """The branch tree of test ``test_id`` (1..8) on the given witnesses."""
    dps = None
    if any(w.state.extended for w in _unpack(witnesses)):
        # extended amplitudes carry WITNESS_DPS digits; arithmetic must too,
        # or the branch sums measure rounding noise instead of the deviation
        dps = max(mpmath.mp.dps, WITNESS_DPS)
    with _precision(dps):
        plan = _PLAN_BUILDERS[test_id](witnesses, inst)
    plan.dps = dps
    return plan


def run_test(test_id: int, witnesses, inst, *, mode=MODE_EXACT, stream=None) -> TestOutcome:
    if mode == MODE_SAMPLED and stream is None:
        raise ValueError("sampled mode needs a counter stream")
    plan = branch_plan(test_id, witnesses, inst)
    if mode == MODE_EXACT:
        return plan.exact()
    _, rejected = plan.tally(stream.seed, stream.stream, [stream.trial], stream.draw)
    return _outcome(test_id, mode, None, None, _verdict(not rejected), plan.trace, stream)


def exact_round(plans: dict, ledger) -> TestOutcome:
    """Total acceptance sum(p_i * a_i) of one round, from the eight test plans.

    Evaluated in the ledger's extended precision through its complement
    1 - sum(p_i rej_i): the rejection side is a sum of small positives and
    stays exact where the acceptance side would round to 1.  The per-test
    exact probabilities go in the trace.
    """
    with mpmath.workdps(max(mpmath.mp.dps, WITNESS_DPS)):
        total_rej = mpmath.mpf(0)
        trace = []
        for i in range(1, 9):
            out = plans[i].exact()
            total_rej += ledger.p[i - 1] * mpmath.mpf(out.reject_probability)
            trace.append((f"accept_{i}", out.accept_probability))
            trace.append((f"reject_{i}", out.reject_probability))
        return _outcome("ROUND", MODE_EXACT, 1 - total_rej, total_rej, trace=trace)


def sample_round(plan_of: Callable[[int], BranchPlan], cdf, seed, stream, trials, draw0=0):
    """(accepts, rejects, picks) of the round over an array of trial indices.

    Draw ``draw0`` picks each trial's test from ``cdf`` (``picks`` holds the
    test ids 1..8); the picked plan's kernel reads the draws from
    ``draw0 + 1`` on.  ``plan_of(i)`` is called only for tests some trial
    picked.
    """
    trials = np.asarray(trials, dtype=np.uint64)
    picks = _kernels.select(seed, stream, trials, draw0, cdf)
    picks += 1
    acc = rej = 0
    for i in np.flatnonzero(np.bincount(picks)).tolist():
        a, r = plan_of(i).tally(seed, stream, trials[picks == i], draw0 + 1)
        acc += a
        rej += r
    return acc, rej, picks


def run_protocol_round(witnesses, inst, ledger, *, mode=MODE_EXACT, stream=None) -> TestOutcome:
    """One verifier round: pick test i with probability p_i, run it.

    Exact mode returns :func:`exact_round`.  Sampled mode is
    :func:`sample_round` on the stream's trial, from draw ``stream.draw``.
    """
    if mode == MODE_EXACT:
        return exact_round({i: branch_plan(i, witnesses, inst) for i in range(1, 9)}, ledger)
    plans = {}

    def plan_of(i):
        plans[i] = branch_plan(i, witnesses, inst)
        return plans[i]

    _, rejected, picks = sample_round(plan_of, ledger.round_cdf, stream.seed, stream.stream, [stream.trial], stream.draw)
    pick = int(picks[0])
    trace = (("test", pick),) + plans[pick].trace
    return _outcome("ROUND", MODE_SAMPLED, None, None, _verdict(not rejected), trace, stream)


# ---------------------------------------------------------------------------
# product test over two composite witnesses
# ---------------------------------------------------------------------------


def product_test(composite_a, composite_b, *, mode=MODE_EXACT, stream=None) -> TestOutcome:
    """Pairwise swap tests between corresponding parts of two 4-part products.

    Accept iff all four part-wise swap tests accept; exact probability is the
    product of the four (1 + overlap^2)/2 factors.  Only product-form inputs
    (explicit 4-tuples of states) are supported; a jointly entangled composite
    is outside the desk-scale exact path.
    """
    parts_a = [w.state if hasattr(w, "state") else w for w in composite_a]
    parts_b = [w.state if hasattr(w, "state") else w for w in composite_b]
    if len(parts_a) != 4 or len(parts_b) != 4:
        raise ShapeMismatchError("product test expects two 4-part composites")
    rejects = []
    for a, b in zip(parts_a, parts_b):
        if a.shape.dims != b.shape.dims:
            raise ShapeMismatchError(f"component layouts differ: {a.shape.dims} vs {b.shape.dims}")
        rejects.append(swap_test_reject_prob(a, b))
    trace = tuple((f"swap_reject_{k+1}", q) for k, q in enumerate(rejects))
    if mode == MODE_EXACT:
        # part k rejects when parts 1..k-1 accepted: a branch sum, never 1 - accept
        accept, reject = 1, 0
        for q in rejects:
            reject = reject + accept * q
            accept = accept * (1 - q)
        return _outcome("PRODUCT", mode, accept, reject, trace=trace)
    ok = all(
        _kernels.uniforms(stream.seed, stream.stream, [stream.trial], stream.draw + k)[0] >= float(q)
        for k, q in enumerate(rejects)
    )
    return _outcome("PRODUCT", mode, None, None, _verdict(ok), trace, stream)
