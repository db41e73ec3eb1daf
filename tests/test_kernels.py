"""Counter-based RNG and tally kernels: known answers, draw slots, int and array paths, numpy references, invariance."""

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffgscon import _kernels as K
from ffgscon.rng import CounterStream
from ffgscon.verifier import BranchPlan, _chain_plan

MASK = np.uint64(0xFFFFFFFF)
# small values, values around 2**32 and any 64-bit value
TRIAL = st.one_of(st.integers(0, 64), st.integers(2**32 - 4, 2**32 + 4), st.integers(0, 2**64 - 1))


def philox_words(c0, c1, c2, c3, k0, k1):
    words = K._philox(np.uint64(c0), np.uint64(c1), np.uint64(c2), np.uint64(c3), np.uint64(k0), np.uint64(k1))
    return tuple(int(w) for w in words)


# Random123 philox4x32-10 counter/key -> all four output words
KNOWN_ANSWERS = [
    ((0, 0, 0, 0, 0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 6, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344, 0xA4093822, 0x299F31D0), (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


def test_philox_known_answer_vectors():
    for operands, words in KNOWN_ANSWERS:
        assert philox_words(*operands) == words


def test_numpy_key_leaves_the_int_path_int():
    # np.uint64(k) == k and both hash alike, so the round keys a numpy key
    # schedules are the ones a later int key reads
    K._round_keys.cache_clear()
    for operands, words in KNOWN_ANSWERS:
        assert philox_words(*operands) == words  # uint64 operands and keys first
        ints = K._philox(*operands)
        assert ints == words and [type(w) for w in ints] == [int] * 4


def uniform_at(seed, stream, trial, draw, half=0):
    return K.uniforms(seed, stream, [trial], draw)[half][0]


def reference_words(seed, stream, trials, draw):
    """Philox4x32-10 in the Random123 round form, on uint64 arrays only: the four output words."""
    t = np.asarray(trials, dtype=np.uint64)
    n = t.size
    ctr = [t & MASK, t >> np.uint64(32), np.full(n, draw & 0xFFFFFFFF, np.uint64), np.full(n, stream & 0xFFFFFFFF, np.uint64)]
    key = [np.uint64(seed & 0xFFFFFFFF), np.uint64((seed >> 32) & 0xFFFFFFFF)]
    for _ in range(10):
        p0 = np.uint64(0xD2511F53) * ctr[0]
        p1 = np.uint64(0xCD9E8D57) * ctr[2]
        hi0, lo0 = p0 >> np.uint64(32), p0 & MASK
        hi1, lo1 = p1 >> np.uint64(32), p1 & MASK
        ctr = [hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0]
        key = [(key[0] + np.uint64(0x9E3779B9)) & MASK, (key[1] + np.uint64(0xBB67AE85)) & MASK]
    return ctr


def reference_uniforms(seed, stream, trials, draw):
    """The slot's two uniforms: the top 53 bits of words 0:1, then of words 2:3."""
    w = reference_words(seed, stream, trials, draw)
    return tuple((((hi << np.uint64(32)) | lo) >> np.uint64(11)).astype(np.float64) / 2.0**53 for hi, lo in (w[:2], w[2:]))


def reference_pick(cdf, u):
    return np.array([min(int(np.searchsorted(cdf, x, side="right")), len(cdf) - 1) for x in u])


def reference_unique(cdf_a, cdf_b, gate_dim, valid, u, v):
    """Test 2's reject per trial: the two picks share a label and differ in gate, or the first gate is invalid."""
    fa, fb = reference_pick(cdf_a, u), reference_pick(cdf_b, v)
    ga = fa % gate_dim
    return (fa // gate_dim == fb // gate_dim) & ((ga != fb % gate_dim) | ~valid[ga])


def reference_boundary(lab_cdf, target, q, u, v):
    """Tests 6 and 7's reject per trial: the label pick is the target and the swap test fires."""
    return (reference_pick(lab_cdf, u) == target) & (v < q)


def boundary_stages(lab_cdf, target, q):
    """The ``tally_chain`` stages of a test-6/7 plan: the target label's pick interval, then ``[0, q)``."""
    lo, hi = K.pick_bounds(lab_cdf)
    return [lo[target], 0.0], [hi[target], q]


def mismatch_table(valid):
    """Test 2's ``[ga, gb]`` reject table over ``len(valid)`` gates: unequal gates, or an invalid first gate."""
    return ~np.eye(len(valid), dtype=bool) | ~np.asarray(valid)[:, None]


def unique_plan(cdf_a, cdf_b, valid):
    """A test-2 plan on these CDFs, live as ``verifier._unique_plan`` decides it."""
    mismatch = mismatch_table(valid)
    live = K.unique_can_reject(cdf_a, cdf_b, mismatch)
    return BranchPlan(2, (), 0.0, 1.0, live, K.tally_unique, (cdf_a, cdf_b, mismatch))


def low_plan(lab_cdf, table):
    """A test-8 plan on this label CDF and reject table, live as ``verifier._low_plan`` decides it."""
    return BranchPlan(8, (), 0.0, 1.0, bool(np.any(K.holds_uniform(0.0, table))), K.tally_low, (lab_cdf, table))


def test_uniform_addressing_changes_with_every_coordinate():
    base = uniform_at(1, 2, 3, 4)
    assert base != uniform_at(2, 2, 3, 4)
    assert base != uniform_at(1, 3, 3, 4)
    assert base != uniform_at(1, 2, 4, 4)
    assert base != uniform_at(1, 2, 3, 5)
    assert base == uniform_at(1, 2, 3, 4)  # pure function of the address


def test_uniforms_vector_matches_scalar_and_numpy():
    trials = np.arange(10_000, dtype=np.uint64)
    fast = K.uniforms(42, 7, trials, 3)
    ref = reference_uniforms(42, 7, trials, 3)
    for half in (0, 1):
        assert np.array_equal(fast[half], ref[half])
        for t in (0, 17, 9999):
            assert fast[half][t] == uniform_at(42, 7, t, 3, half)
        assert np.all((fast[half] >= 0) & (fast[half] < 1))


def test_first_uniform_of_a_slot_is_the_words01_draw():
    # one block per slot: its first uniform is the one-uniform-per-block draw
    # of earlier report formats (values and digest recorded from that layout)
    pinned = {
        (0, 0, 0, 0): "0x1.989fa35785a70p-2",
        (42, 7, 3, 3): "0x1.b44a655614db0p-5",
        (2**64 - 1, 9, 2**32 + 7, 5): "0x1.a279fe87dc30ep-1",
        (11, 16, 0, 2): "0x1.9c0bf3f0ac706p-1",
        (77, 4, 123, 0): "0x1.88d0ea54a3200p-1",
    }
    for (seed, stream, trial, draw), value in pinned.items():
        assert uniform_at(seed, stream, trial, draw) == float.fromhex(value)
    first, _ = K.uniforms(42, 7, np.arange(10_000, dtype=np.uint64), 3)
    assert hashlib.sha256(first.tobytes()).hexdigest() == "07abf2e4f1ef44a7a9287ac48468abf8be14eb7e7cd706c90f5dffb866abd070"


def test_philox_body_leaves_its_operands_unchanged():
    trials = np.array([0, 5, 2**32 + 1, 2**64 - 1] * 5, dtype=np.uint64)
    ops = [trials & MASK, trials >> np.uint64(32), np.full(trials.size, 3, np.uint64), np.full(trials.size, 7, np.uint64)]
    keys = [np.uint64(9), np.uint64(2**32 - 1)]
    before = [a.copy() for a in ops]
    words = K._philox(*ops, *keys)
    assert all(np.array_equal(a, b) for a, b in zip(ops, before))
    assert not any(np.shares_memory(w, a) for w in words for a in ops)
    assert [w.tolist() for w in words] == [w.tolist() for w in reference_words(2**32 * (2**32 - 1) + 9, 7, trials, 3)]


def test_philox_int_and_array_paths_agree():
    # trials on both sides of the small-array cut and past 2**32, keys past 2**32
    trials = np.concatenate([
        np.arange(3 * K.SMALL_TRIALS, dtype=np.uint64),
        np.array([2**32 - 1, 2**32, 2**32 + 7, 2**40 + 3, 2**64 - 1], dtype=np.uint64),
    ])
    assert trials.size > K.SMALL_TRIALS
    for seed in (42, 2**33 + 5, 2**64 - 1):
        whole = K.uniforms(seed, 7, trials, 3)  # array path
        for half in (0, 1):
            singles = [uniform_at(seed, 7, int(t), 3, half) for t in trials]  # int path
            assert np.array_equal(whole[half], singles)
            assert np.all((whole[half] >= 0) & (whole[half] < 1))
        c0, c1 = trials & MASK, trials >> np.uint64(32)
        words = K._philox(c0, c1, 3, 7, seed & 0xFFFFFFFF, seed >> 32)
        for i, t in enumerate(trials.tolist()):
            assert tuple(int(w[i]) for w in words) == K._philox(t & 0xFFFFFFFF, t >> 32, 3, 7, seed & 0xFFFFFFFF, seed >> 32)
    # every tally agrees between one array and per-trial arrays on the int path
    probs = np.array([0.6, 0.3, 0.8])
    cdf12 = np.cumsum(np.full(12, 1 / 12))
    valid = np.array([True] * 9 + [False] * 3)
    lab_cdf = np.cumsum([0.1, 0.4, 0.25, 0.25])
    table = np.random.default_rng(1).uniform(size=(4, 3))
    tallies = [
        (K.tally_chain, ([0.0], [0.37])),
        (K.tally_chain, (np.zeros(3), probs)),
        (K.tally_unique, (cdf12, cdf12, mismatch_table(valid[:4]))),
        (K.tally_chain, boundary_stages(lab_cdf, 2, 0.4)),
        (K.tally_low, (lab_cdf, table)),
    ]
    for kernel, args in tallies:
        whole = kernel(9, 3, trials, 1, *args)
        shots = [kernel(9, 3, trials[i:i + 1], 1, *args) for i in range(trials.size)]
        assert whole == (sum(s[0] for s in shots), sum(s[1] for s in shots)), (kernel.__name__, args)
    picks = K.select(1, 0, trials, 0, lab_cdf)
    assert np.array_equal(picks, np.concatenate([K.select(1, 0, trials[i:i + 1], 0, lab_cdf) for i in range(trials.size)]))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**32 - 1),
    draw=st.integers(0, 2**32 - 1),
    trials=st.lists(TRIAL, min_size=1, max_size=2 * K.SMALL_TRIALS + 2),
)
def test_philox_paths_agree_with_reference_property(seed, stream, draw, trials):
    # sizes on both sides of SMALL_TRIALS pick the int path or the array path
    trials = np.array(trials, dtype=np.uint64)
    ref_words = reference_words(seed, stream, trials, draw)
    ref = reference_uniforms(seed, stream, trials, draw)
    fast = K.uniforms(seed, stream, trials, draw)
    arr_words = K._philox(trials & MASK, trials >> np.uint64(32), draw, stream, seed & 0xFFFFFFFF, seed >> 32)
    for i, t in enumerate(trials.tolist()):
        int_words = K._philox(t & 0xFFFFFFFF, t >> 32, draw, stream, seed & 0xFFFFFFFF, seed >> 32)
        assert int_words == tuple(int(w[i]) for w in arr_words) == tuple(int(w[i]) for w in ref_words)
        single = K.uniforms(seed, stream, [t], draw)
        for half in (0, 1):
            assert single[half][0] == fast[half][i] == ref[half][i]


def test_uniform_distribution_moments():
    trials = np.arange(200_000, dtype=np.uint64)
    first, second = K.uniforms(7, 1, trials, 0)
    for u in (first, second):
        assert abs(u.mean() - 0.5) < 4 * np.sqrt(1 / 12 / len(u))
        assert abs(u.var() - 1 / 12) < 1e-3
    # the two halves of a slot are uncorrelated
    assert abs(np.corrcoef(first, second)[0, 1]) < 4 / np.sqrt(len(first))


def test_tally_kernels_match_numpy_reference():
    trials = np.arange(30_000, dtype=np.uint64)
    probs = np.array([0.6, 0.3, 0.8])
    cdf12 = np.cumsum(np.full(12, 1 / 12))
    valid = np.array([True] * 9 + [False] * 3)
    lab_cdf = np.cumsum([0.1, 0.4, 0.25, 0.25])
    table = np.random.default_rng(1).uniform(size=(4, 3))
    n = trials.size

    def u(seed, stream, draw):
        return reference_uniforms(seed, stream, trials, draw)

    def counts(reject):
        rej = int(np.count_nonzero(reject))
        return n - rej, rej

    # every draw slot is computed for every trial; the kernels skip the slots they do not need.
    # A slot holds two uniforms: chain stages 2j, 2j+1 read slot j (a Bernoulli is one stage,
    # a boundary test its label stage and its reject stage); unique reads both halves of one
    # slot; low reads label and term from its first slot and the reject from the next.
    chain = np.all([u(9, 3, 1 + k // 2)[k % 2] < probs[k] for k in range(len(probs))], axis=0)
    unique = reference_unique(cdf12, cdf12, 4, valid, *u(4, 2, 0))
    boundary = reference_boundary(lab_cdf, 2, 0.4, *u(8, 6, 0))
    term = np.minimum((u(8, 8, 0)[1] * 3).astype(np.int64), 2)
    low = u(8, 8, 1)[0] < table[reference_pick(lab_cdf, u(8, 8, 0)[0]), term]
    pairs = [
        (K.tally_chain(9, 1, trials, 0, [0.0], [0.37]), counts(u(9, 1, 0)[0] < 0.37)),
        (K.tally_chain(9, 3, trials, 1, np.zeros(3), probs), counts(chain)),
        (K.tally_unique(4, 2, trials, 0, cdf12, cdf12, mismatch_table(valid[:4])), counts(unique)),
        (K.tally_chain(8, 6, trials, 0, *boundary_stages(lab_cdf, 2, 0.4)), counts(boundary)),
        (K.tally_low(8, 8, trials, 0, lab_cdf, table), counts(low)),
    ]
    for fast, ref in pairs:
        assert fast == ref
    assert np.array_equal(K.select(1, 0, trials, 0, lab_cdf), reference_pick(lab_cdf, u(1, 0, 0)[0]))


PROB = st.one_of(st.just(0.0), st.floats(0.0, 1.0))  # exact zeros: branches that cannot reject
BOUND = st.one_of(PROB, st.just(1.0), st.floats(1.0, 2.0))  # stage bounds, at and past 1 too
STAGE = st.one_of(st.tuples(BOUND, BOUND), BOUND.map(lambda x: (x, x)))  # (lo, hi); equal bounds have zero width


def lanes_of(body):
    """Philox lanes of every call recorded on a wrapped ``_philox``."""
    return sum(np.size(c.args[0]) for c in body.call_args_list)


def cdf_of(weights):
    w = np.asarray(weights, dtype=np.float64)
    return np.cumsum(w / w.sum() if w.sum() > 0 else w)


def grid_holds(lo, hi):
    """Whether some multiple of 2**-53 in [0, 1) lies in ``[lo, hi)``, for ``lo >= 0``: try the lowest one at or above lo."""
    x = np.ceil(lo * 2.0**53) / 2.0**53
    return bool(x < min(hi, 1))


def grid_reachable(cdf):
    """Indices that ``reference_pick`` returns for some multiple of 2**-53 in [0, 1).

    The lowest grid point at or above an index's lower CDF bound picks that
    index exactly when some grid point does.
    """
    lows = np.ceil(np.concatenate(([0.0], cdf[:-1])) * 2.0**53) / 2.0**53
    return [x < 1 and reference_pick(cdf, [x])[0] == k for k, x in enumerate(lows)]


def grid_reject_pair(cdf_a, cdf_b, gate_dim, valid):
    """Whether two grid uniforms can pick a mismatching (label, gate) pair, one pair at a time."""
    ra, rb = grid_reachable(cdf_a), grid_reachable(cdf_b)
    return any(
        ka // gate_dim == kb // gate_dim and (ka % gate_dim != kb % gate_dim or not valid[ka % gate_dim])
        for ka in range(len(ra)) if ra[ka]
        for kb in range(len(rb)) if rb[kb]
    )


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**32 - 1),
    draw0=st.integers(0, 2**32 - 3),
    small=st.lists(TRIAL, min_size=1, max_size=K.SMALL_TRIALS),
    large=st.lists(TRIAL, min_size=K.SMALL_TRIALS + 1, max_size=3 * K.SMALL_TRIALS),
    p=PROB,
    stages=st.lists(STAGE, min_size=1, max_size=4),
    q=PROB,
    weights=st.lists(PROB, min_size=1, max_size=4),
    target=st.integers(0, 3),
    n_terms=st.integers(1, 3),
    entries=st.one_of(st.just([]), st.lists(PROB, min_size=12, max_size=12)),  # [] is the all-zero table
    certain=st.booleans(),
    labels=st.integers(1, 3),
    gate_dim=st.integers(1, 3),
    joint_a=st.lists(PROB, min_size=9, max_size=9),  # label x gate weights, cut to labels * gate_dim
    joint_b=st.lists(PROB, min_size=9, max_size=9),
    valid=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_short_circuits_equal_the_drawn_tally_property(
    seed, stream, draw0, small, large, p, stages, q, weights, target, n_terms, entries, certain,
    labels, gate_dim, joint_a, joint_b, valid,
):
    # the reference draws every slot for every trial; a kernel reads a slot only for
    # the trials it can decide, and a plan that is not live draws nothing
    lo, hi = (np.array(b) for b in zip(*stages))
    lab_cdf = cdf_of(weights)
    target = min(target, len(weights) - 1)  # the last label is the clamped one
    table = np.reshape(entries or [0.0] * 12, (4, 3))[: len(weights), :n_terms]
    pick_cdf = np.ones(3) if certain else lab_cdf  # cdf[0] == 1: the first outcome is certain
    cdf_a, cdf_b = cdf_of(joint_a[: labels * gate_dim]), cdf_of(joint_b[: labels * gate_dim])
    valid = np.array(valid[:gate_dim])
    # each check may call an interval or pair reachable that no grid uniform lands on, never the reverse
    for a, b in zip(lo, hi):
        assert K.holds_uniform(a, b) or not grid_holds(a, b)
    assert K.unique_can_reject(cdf_a, cdf_b, mismatch_table(valid)) or not grid_reject_pair(cdf_a, cdf_b, gate_dim, valid)
    plans = {
        "bernoulli": _chain_plan(1, (("swap_reject", p),)),
        "chain": _chain_plan(3, (), lo, hi),
        "unique": unique_plan(cdf_a, cdf_b, valid),
        "boundary": _chain_plan(7, (), *boundary_stages(lab_cdf, target, q)),
        "low": low_plan(lab_cdf, table),
    }
    for t in (small, large):
        trials = np.array(t, dtype=np.uint64)
        n = trials.size
        u = [reference_uniforms(seed, stream, trials, draw0 + d) for d in range(2)]

        def counts(reject):
            rej = int(np.count_nonzero(reject))
            return n - rej, rej

        # chain stages 2j, 2j+1 read slot j on the trials that fired every earlier stage
        slots = [reference_uniforms(seed, stream, trials, draw0 + j) for j in range((len(lo) + 1) // 2)]
        fired = [(lo[k] <= slots[k // 2][k % 2]) & (slots[k // 2][k % 2] < hi[k]) for k in range(len(lo))]
        chain_lanes = sum(int(np.count_nonzero(np.all(fired[: 2 * j], axis=0))) if j else n for j in range(len(slots)))
        lab = reference_pick(lab_cdf, u[0][0])
        term = np.minimum((u[0][1] * n_terms).astype(np.int64), n_terms - 1)
        entry = table[lab, term]
        # (every-slot reference tally, Philox lanes of a live plan)
        expected = {
            "bernoulli": (counts(u[0][0] < p), n),
            "chain": (counts(np.all(fired, axis=0)), chain_lanes),
            "unique": (counts(reference_unique(cdf_a, cdf_b, gate_dim, valid, *u[0])), n),
            "boundary": (counts(reference_boundary(lab_cdf, target, q, *u[0])), n),
            "low": (counts(u[1][0] < entry), n + np.count_nonzero(entry > 0)),
        }
        for name, plan in plans.items():
            ref, lanes = expected[name]
            with mock.patch.object(K, "_philox", wraps=K._philox) as body:
                assert plan.tally(seed, stream, trials, draw0) == ref, name
            if plan.live:
                assert lanes_of(body) == lanes, name
            else:
                assert ref == (n, 0) and lanes_of(body) == 0, name
        with mock.patch.object(K, "_philox", wraps=K._philox) as body:
            picks = K.select(seed, stream, trials, draw0, pick_cdf)
        assert np.array_equal(picks, reference_pick(pick_cdf, u[0][0]))
        assert lanes_of(body) == (0 if pick_cdf[0] >= 1 else n)


def drawn(plan, trials, reference):
    """(tally, Philox lanes, reference tally) of ``plan`` on ``trials`` from slot 1 of seed 5, stream 2."""
    with mock.patch.object(K, "_philox", wraps=K._philox) as body:
        tally = plan.tally(5, 2, trials, 1)
    rej = int(np.count_nonzero(reference(*reference_uniforms(5, 2, trials, 1))))
    return tally, lanes_of(body), (trials.size - rej, rej)


def drawn_unique(cdf_a, cdf_b, gate_dim, valid, trials):
    """(tally, Philox lanes, reference tally) of a test-2 plan on these CDFs."""
    reference = lambda u, v: reference_unique(cdf_a, cdf_b, gate_dim, valid, u, v)  # noqa: E731
    return drawn(unique_plan(cdf_a, cdf_b, valid), trials, reference)


def test_unique_draws_for_a_reject_pair_on_the_clamped_last_index():
    # one label, gates 0 and 1: gate 1 has weight 0, so its CDF entry has zero
    # width, but u >= cdf[-1] = 0.5 is clamped onto it.  The exact branch sum
    # (0.5 * 0 + 0 * 0.5) is 0, yet gate 0 against gate 1 rejects half the trials
    cdf = np.cumsum([0.5, 0.0])
    valid = np.array([True, True])
    trials = np.arange(4000, dtype=np.uint64)
    tally, lanes, ref = drawn_unique(cdf, cdf, 2, valid, trials)
    assert K.unique_can_reject(cdf, cdf, mismatch_table(valid))
    assert lanes == trials.size
    assert tally == ref and ref[1] > 0


def test_unique_does_not_draw_past_a_cdf_that_reaches_one():
    # labels 0 and 1, gates 0 and 1: the CDF reaches 1 at label 1 gate 0, so
    # label 1 gate 1 is unreachable despite its weight 0.25, and label 0 gate 1
    # has zero width; every reachable pair agrees on a valid gate
    cdf = np.cumsum([0.5, 0.0, 0.5, 0.25])
    valid = np.array([True, True])
    trials = np.arange(4000, dtype=np.uint64)
    tally, lanes, ref = drawn_unique(cdf, cdf, 2, valid, trials)
    assert not K.unique_can_reject(cdf, cdf, mismatch_table(valid))
    assert lanes == 0
    assert tally == ref == (trials.size, 0)


def test_boundary_stage_on_the_clamped_last_label():
    # ten labels of weight 0.1: the CDF ends at 1 - 2**-53 by rounding, and u in
    # [cdf[-1], 1) is clamped onto the last label, so its stage runs up to 1
    cdf = np.cumsum(np.full(10, 0.1))
    assert cdf[-1] < 1
    lo, hi = boundary_stages(cdf, 9, 0.75)
    assert (lo[0], hi[0]) == (cdf[-2], 1.0)
    edge = np.array([cdf[-2], cdf[-1], 1 - 2.0**-53])  # the label's lower bound, the last CDF entry, the last grid point
    assert np.all(reference_pick(cdf, edge) == 9) and np.all((lo[0] <= edge) & (edge < hi[0]))
    plan = _chain_plan(7, (), lo, hi)
    assert plan.live
    trials = np.arange(4000, dtype=np.uint64)
    tally, lanes, ref = drawn(plan, trials, lambda u, v: reference_boundary(cdf, 9, 0.75, u, v))
    assert tally == ref and ref[1] > 0
    assert lanes == trials.size


def test_boundary_stage_on_a_zero_weight_label_draws_nothing():
    # label 1 has weight 0, so its pick interval [0.5, 0.5) holds no u: the
    # plan is not live even though the swap stage [0, 1) always fires
    cdf = np.cumsum([0.5, 0.0, 0.5])
    plan = _chain_plan(7, (), *boundary_stages(cdf, 1, 1.0))
    assert not plan.live
    trials = np.arange(4000, dtype=np.uint64)
    tally, lanes, ref = drawn(plan, trials, lambda u, v: reference_boundary(cdf, 1, 1.0, u, v))
    assert tally == ref == (trials.size, 0)
    assert lanes == 0


def test_unique_plan_can_reject_only_on_a_mismatched_u():
    from ffgscon.fixtures import builtin_instances, get_fixture
    from ffgscon.harness import demo_magnitude
    from ffgscon.ledger import derive_parameters
    from ffgscon.verifier import branch_plan
    from ffgscon.witnesses import AdversaryKind, AdversarySpec, forge_adversary, honest_proof

    def can_reject(proof, inst):
        plan = branch_plan(2, proof, inst)
        assert plan.live == K.unique_can_reject(*plan.args)
        return plan.live

    for fx in builtin_instances():
        for extended in (False, True):
            assert not can_reject(honest_proof(fx.instance, fx.certificate, extended=extended), fx.instance), fx.name
    fx = get_fixture("bell-flip")
    kind = AdversaryKind.MISMATCHED_U
    spec = AdversarySpec(kind, demo_magnitude(kind, fx.instance, derive_parameters(fx.instance)))
    base = honest_proof(fx.instance, fx.certificate)
    assert can_reject(forge_adversary(base, fx.instance, spec), fx.instance)


def test_tally_bernoulli_rate():
    # a Bernoulli reject of probability p is the one chain stage [0, p)
    n = 200_000
    trials = np.arange(n, dtype=np.uint64)
    acc, rej = K.tally_chain(3, 1, trials, 0, [0.0], [0.25])
    assert acc + rej == n
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert abs(rej / n - 0.25) <= 4 * sigma


def test_partition_invariance():
    trials = np.arange(50_000, dtype=np.uint64)
    lo, hi = np.array([0.0, 0.0, 0.1]), np.array([0.5, 0.25, 0.8])
    whole = K.tally_chain(9, 3, trials, 0, lo, hi)
    for n_chunks in (2, 3, 7, 11):
        parts = [K.tally_chain(9, 3, c, 0, lo, hi) for c in np.array_split(trials, n_chunks)]
        assert whole == (sum(p[0] for p in parts), sum(p[1] for p in parts))


def test_counter_stream_matches_kernel_addressing():
    # a CounterStream is a frozen address: its fields index the kernel's draws
    s = CounterStream(seed=77, stream=4, trial=123)
    bulk = [K.uniforms(77, 4, np.arange(200, dtype=np.uint64), d) for d in range(5)]
    draws = [uniform_at(s.seed, s.stream, s.trial, s.draw + d) for d in range(5)]
    assert draws == [uniform_at(77, 4, 123, d) for d in range(5)] == [b[0][123] for b in bulk]
    sibling = dataclasses.replace(s, trial=124)
    assert uniform_at(sibling.seed, sibling.stream, sibling.trial, sibling.draw) == bulk[0][0][124]
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.draw = 1


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 2**64 + 5), ("stream", -1), ("stream", 2**32 + 3),
    ("trial", -1), ("trial", 2**64), ("draw", -1), ("draw", 2**32 - 2), ("draw", 2**32 + 1),
])
def test_counter_stream_refuses_fields_outside_their_ranges(field, value):
    # each would alias a valid address (seed 2**64 + 5 is seed 5, draw 2**32 + 1 is draw 1),
    # and draw 2**32 - 2 would put a round shot's last slot, draw + 2, past the counter word
    with pytest.raises(ValueError, match=field):
        CounterStream(**{"seed": 0, field: value})
    largest = {"seed": 2**64 - 1, "stream": 2**32 - 1, "trial": 2**64 - 1, "draw": 2**32 - 3}
    assert getattr(CounterStream(**{"seed": 0, field: largest[field]}), field) == largest[field]


def test_run_test_refuses_an_aliased_seed():
    from ffgscon.fixtures import get_fixture
    from ffgscon.verifier import MODE_SAMPLED, run_test
    from ffgscon.witnesses import honest_proof

    fx = get_fixture("idle")
    proof = honest_proof(fx.instance, fx.certificate)
    with pytest.raises(ValueError, match="seed"):
        run_test(1, proof, fx.instance, mode=MODE_SAMPLED, stream=CounterStream(seed=2**64))


def test_select_inverse_cdf_frequencies():
    picks = K.select(5, 16, np.arange(5000, dtype=np.uint64), 0, np.cumsum([0.5, 0.25, 0.25]))
    freq = np.bincount(picks, minlength=3) / 5000
    assert np.all(np.abs(freq - [0.5, 0.25, 0.25]) < 4 * np.sqrt(0.25 / 5000) + 0.01)
