"""Counter-based RNG and tally kernels: known answers, int and array paths, numpy references, invariance."""

import dataclasses

import numpy as np
import pytest

from ffgscon import _kernels as K
from ffgscon.rng import CounterStream

MASK = np.uint64(0xFFFFFFFF)


def philox_words(c0, c1, c2, c3, k0, k1):
    return K._philox_words01(np.uint64(c0), np.uint64(c1), np.uint64(c2), np.uint64(c3), np.uint64(k0), np.uint64(k1))


def test_philox_known_answer_vectors():
    # Random123 philox4x32-10 counter/key -> first two output words
    w0, w1 = philox_words(0, 0, 0, 0, 0, 0)
    assert (int(w0), int(w1)) == (0x6627E8D5, 0xE169C58D)
    ff = 0xFFFFFFFF
    w0, w1 = philox_words(ff, ff, ff, ff, ff, ff)
    assert (int(w0), int(w1)) == (0x408F276D, 0x41C83B0E)
    w0, w1 = philox_words(0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344, 0xA4093822, 0x299F31D0)
    assert (int(w0), int(w1)) == (0xD16CFE09, 0x94FDCCEB)


def uniform_at(seed, stream, trial, draw):
    return K.uniforms(seed, stream, [trial], draw)[0]


def reference_uniforms(seed, stream, trials, draw):
    """Philox4x32-10 in the Random123 round form, on uint64 arrays only."""
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
    bits = ((ctr[0] << np.uint64(32)) | ctr[1]) >> np.uint64(11)
    return bits.astype(np.float64) / 2.0**53


def reference_pick(cdf, u):
    return np.array([min(int(np.searchsorted(cdf, x, side="right")), len(cdf) - 1) for x in u])


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
    assert np.array_equal(fast, ref)
    for t in (0, 17, 9999):
        assert fast[t] == uniform_at(42, 7, t, 3)
    assert np.all((fast >= 0) & (fast < 1))


def test_philox_int_and_array_paths_agree():
    # trials on both sides of the small-array cut and past 2**32, keys past 2**32
    trials = np.concatenate([
        np.arange(3 * K.SMALL_TRIALS, dtype=np.uint64),
        np.array([2**32 - 1, 2**32, 2**32 + 7, 2**40 + 3, 2**64 - 1], dtype=np.uint64),
    ])
    assert trials.size > K.SMALL_TRIALS
    for seed in (42, 2**33 + 5, 2**64 - 1):
        whole = K.uniforms(seed, 7, trials, 3)  # array path
        singles = [uniform_at(seed, 7, int(t), 3) for t in trials]  # int path
        assert np.array_equal(whole, singles)
        assert np.all((whole >= 0) & (whole < 1))
        c0, c1 = trials & MASK, trials >> np.uint64(32)
        w0, w1 = K._philox_words01(c0, c1, 3, 7, seed & 0xFFFFFFFF, seed >> 32)
        for i, t in enumerate(trials.tolist()):
            assert (int(w0[i]), int(w1[i])) == K._philox_words01(t & 0xFFFFFFFF, t >> 32, 3, 7, seed & 0xFFFFFFFF, seed >> 32)
    # every tally agrees between one array and per-trial arrays on the int path
    probs = np.array([0.6, 0.3, 0.8])
    cdf12 = np.cumsum(np.full(12, 1 / 12))
    valid = np.array([True] * 9 + [False] * 3)
    lab_cdf = np.cumsum([0.1, 0.4, 0.25, 0.25])
    table = np.random.default_rng(1).uniform(size=(4, 3))
    tallies = [
        (K.tally_bernoulli, (0.37,)),
        (K.tally_chain, (probs,)),
        (K.tally_unique, (cdf12, cdf12, 4, valid)),
        (K.tally_boundary, (lab_cdf, 2, 0.4)),
        (K.tally_low, (lab_cdf, table)),
    ]
    for kernel, args in tallies:
        whole = kernel(9, 3, trials, 1, *args)
        shots = [kernel(9, 3, trials[i:i + 1], 1, *args) for i in range(trials.size)]
        assert whole == (sum(s[0] for s in shots), sum(s[1] for s in shots)), kernel.__name__
    picks = K.select(1, 0, trials, 0, lab_cdf)
    assert np.array_equal(picks, np.concatenate([K.select(1, 0, trials[i:i + 1], 0, lab_cdf) for i in range(trials.size)]))


def test_uniform_distribution_moments():
    trials = np.arange(200_000, dtype=np.uint64)
    u = K.uniforms(7, 1, trials, 0)
    assert abs(u.mean() - 0.5) < 4 * np.sqrt(1 / 12 / len(u))
    assert abs(u.var() - 1 / 12) < 1e-3


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

    # every draw slot is computed for every trial; the kernels skip the slots they do not need
    chain = np.all([u(9, 3, 1 + k) < probs[k] for k in range(len(probs))], axis=0)
    fa, fb = reference_pick(cdf12, u(4, 2, 0)), reference_pick(cdf12, u(4, 2, 1))
    unique = (fa // 4 == fb // 4) & ((fa % 4 != fb % 4) | ~valid[fa % 4])
    boundary = (reference_pick(lab_cdf, u(8, 6, 0)) == 2) & (u(8, 6, 1) < 0.4)
    term = np.minimum((u(8, 8, 1) * 3).astype(np.int64), 2)
    low = u(8, 8, 2) < table[reference_pick(lab_cdf, u(8, 8, 0)), term]
    pairs = [
        (K.tally_bernoulli(9, 1, trials, 0, 0.37), counts(u(9, 1, 0) < 0.37)),
        (K.tally_chain(9, 3, trials, 1, probs), counts(chain)),
        (K.tally_unique(4, 2, trials, 0, cdf12, cdf12, 4, valid), counts(unique)),
        (K.tally_boundary(8, 6, trials, 0, lab_cdf, 2, 0.4), counts(boundary)),
        (K.tally_low(8, 8, trials, 0, lab_cdf, table), counts(low)),
    ]
    for fast, ref in pairs:
        assert fast == ref
    assert np.array_equal(K.select(1, 0, trials, 0, lab_cdf), reference_pick(lab_cdf, u(1, 0, 0)))


def test_tally_bernoulli_rate():
    n = 200_000
    trials = np.arange(n, dtype=np.uint64)
    acc, rej = K.tally_bernoulli(3, 1, trials, 0, 0.25)
    assert acc + rej == n
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert abs(rej / n - 0.25) <= 4 * sigma


def test_partition_invariance():
    trials = np.arange(50_000, dtype=np.uint64)
    probs = np.array([0.5, 0.25, 0.7])
    whole = K.tally_chain(9, 3, trials, 0, probs)
    for n_chunks in (2, 3, 7, 11):
        parts = [K.tally_chain(9, 3, c, 0, probs) for c in np.array_split(trials, n_chunks)]
        assert whole == (sum(p[0] for p in parts), sum(p[1] for p in parts))


def test_counter_stream_matches_kernel_addressing():
    # a CounterStream is a frozen address: its fields index the kernel's draws
    s = CounterStream(seed=77, stream=4, trial=123)
    bulk = [K.uniforms(77, 4, np.arange(200, dtype=np.uint64), d) for d in range(5)]
    draws = [uniform_at(s.seed, s.stream, s.trial, s.draw + d) for d in range(5)]
    assert draws == [uniform_at(77, 4, 123, d) for d in range(5)] == [b[123] for b in bulk]
    sibling = s.for_trial(124)
    assert uniform_at(sibling.seed, sibling.stream, sibling.trial, sibling.draw) == bulk[0][124]
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.draw = 1


def test_select_inverse_cdf_frequencies():
    picks = K.select(5, 16, np.arange(5000, dtype=np.uint64), 0, np.cumsum([0.5, 0.25, 0.25]))
    freq = np.bincount(picks, minlength=3) / 5000
    assert np.all(np.abs(freq - [0.5, 0.25, 0.25]) < 4 * np.sqrt(0.25 / 5000) + 0.01)
