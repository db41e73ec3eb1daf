"""Hot sampling kernels: counter-based uniforms and per-test tally loops.

Each kernel is one vectorized numpy implementation over an array of trial
indices.  A single sampled shot is the same kernel run on the one-trial
array ``[trial]``, so a shot's verdict is, by construction, the verdict of
that trial in a bulk tally.

The random source is Philox4x32-10, a counter-based generator.  Draw slot
``draw`` of ``(seed, stream, trial)`` is one Philox block at

    counter = (trial & 0xffffffff, trial >> 32, draw, stream)
    key     = (seed  & 0xffffffff, seed  >> 32)

and gives two doubles in [0, 1): the first from the top 53 bits of output
words 0:1, the second from words 2:3.  Because draws are addressed, not
sequenced, partitioning trials across any number of workers cannot change a
single sample.

The Philox body is written once, for operands that are Python ints or
``uint64`` arrays.  Arrays of at most ``SMALL_TRIALS`` trials go through it
as Python ints, one trial at a time: on a one-element array numpy's per-call
overhead makes a block cost about ten times the integer arithmetic.  The
round keys depend on the key alone, so they are computed once per key.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_M0 = 0xD2511F53
_M1 = 0xCD9E8D57
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK32 = 0xFFFFFFFF
_INV53 = 1.0 / 9007199254740992.0  # 2**-53

SMALL_TRIALS = 12  # int blocks beat one numpy block below ~15 trials on a 2-vCPU Xeon host


# ---------------------------------------------------------------------------
# Philox4x32-10 core (matches the Random123 known-answer vectors)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _round_keys(k0, k1):
    """The ten ``(k0, k1)`` round keys of the 32-bit key words ``k0, k1``, as Python ints.

    Philox bumps the key by a Weyl constant each round, so round r's key is
    ``k + r * W`` mod 2**32.  The words are made ints here: a numpy scalar key
    equals and hashes like its int, so it may fill the entry that an int key
    reads later.
    """
    k0, k1 = int(k0), int(k1)
    return tuple(((k0 + r * _W0) & _MASK32, (k1 + r * _W1) & _MASK32) for r in range(10))


def _philox(c0, c1, c2, c3, k0, k1):
    """One Philox4x32-10 block per lane; returns the four output words.

    Operands are Python ints or ``uint64`` arrays (numpy ``uint64`` scalars
    work too).  Every product of two 32-bit words fits in 64 bits, so both
    kinds give the same words.  Each round updates only values it has just
    created, in place, so an array block allocates two products and two
    words per round and never writes to its operands.  The round keys come
    from :func:`_round_keys`, computed once per key.
    """
    for k0, k1 in _round_keys(k0, k1):
        p0 = _M0 * c0
        p1 = _M1 * c2
        c0 = p1 >> 32
        c0 ^= c1
        c0 ^= k0
        c2 = p0 >> 32
        c2 ^= c3
        c2 ^= k1
        p1 &= _MASK32
        p0 &= _MASK32
        c1, c3 = p1, p0
    return c0, c1, c2, c3


def _unit(hi, lo):
    """The double in [0, 1) from the top 53 bits of the 64-bit word ``hi:lo`` (``hi`` is consumed)."""
    hi <<= 32
    hi |= lo
    hi >>= 11
    u = hi.astype(np.float64)
    u *= _INV53
    return u


def uniforms(seed, stream, trials, draw):
    """The two uniform doubles in [0, 1) of draw slot ``draw`` for an array of trial indices.

    Returns ``(first, second)``: the first from Philox words 0:1, the second
    from words 2:3 of the slot's block.  On the int path they are the two
    rows of one ``(2, n)`` array.
    """
    trials = np.asarray(trials, dtype=np.uint64)
    seed, stream, draw = int(seed), int(stream), int(draw)
    c2, c3 = draw & _MASK32, stream & _MASK32
    k0, k1 = seed & _MASK32, (seed >> 32) & _MASK32
    if trials.size <= SMALL_TRIALS:
        first, second = [], []
        for t in trials.tolist():
            w0, w1, w2, w3 = _philox(t & _MASK32, t >> 32, c2, c3, k0, k1)
            first.append((((w0 << 32) | w1) >> 11) * _INV53)
            second.append((((w2 << 32) | w3) >> 11) * _INV53)
        return np.array((first, second), dtype=np.float64)
    w0, w1, w2, w3 = _philox(trials & _MASK32, trials >> 32, c2, c3, k0, k1)
    return _unit(w0, w1), _unit(w2, w3)


# ---------------------------------------------------------------------------
# Per-test tally kernels
#
# Each kernel reads at most a fixed number of draw slots per trial, starting
# at ``draw0`` (the protocol-round dispatcher reserves slot 0 for test
# choice); a slot holds two uniforms.  Whether a whole call can reject is not
# the kernels' business: a plan decides it once, at build, from
# :func:`holds_uniform`, and does not call its kernel when it cannot.  Inside a
# kernel, a slot that decides nothing for a trial is not read for it.
# Draws are addressed, so a skipped read cannot move any other trial's bits.
# All return (accepts, rejects) with accepts + rejects == len(trials).
# ---------------------------------------------------------------------------


def _pick(cdf, u):
    """Inverse-CDF index of each uniform, clamped to the last outcome."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.shape[0] - 1)


def pick_bounds(cdf):
    """``(lo, hi)``: on a non-decreasing ``cdf``, :func:`_pick` returns k exactly for u in ``[lo[k], hi[k])``.

    That is ``[cdf[k-1], cdf[k])``, from 0 for k = 0; the clamp gives the last index ``[cdf[-2], 1)``.
    """
    return np.concatenate(([0.0], cdf[:-1])), np.concatenate((cdf[:-1], [1.0]))


def holds_uniform(lo, hi):
    """Whether ``[lo, hi)`` holds some u in [0, 1), elementwise, for ``lo >= 0``.

    An interval of positive float width with no multiple of 2**-53 in it
    counts as holding, and so does a NaN bound: the answer may say it holds
    where no draw lands, never the reverse.
    """
    return ~(np.asarray(lo) >= np.minimum(hi, 1.0))


def unique_can_reject(cdf_a, cdf_b, mismatch):
    """Whether some trial of :func:`tally_unique` can reject on these arguments.

    True when a (label, gate) index that ``cdf_a`` can pick and one that
    ``cdf_b`` can pick share the label and their gates ``[ga, gb]`` mismatch.
    """
    ra = holds_uniform(*pick_bounds(cdf_a)).reshape(-1, len(mismatch))
    rb = holds_uniform(*pick_bounds(cdf_b)).reshape(-1, len(mismatch))
    return bool(np.any(ra[:, :, None] & rb[:, None, :] & mismatch))


def _inside(u, lo, hi):
    return (u >= lo) & (u < hi) if lo > 0 else u < hi  # u >= 0 always holds


def tally_chain(seed, stream, trials, draw0, lo, hi):
    """Reject iff every stage k holds its uniform: ``lo[k] <= u_k < hi[k]``.

    Stages 2j and 2j + 1 read the two uniforms of slot ``draw0 + j``, on the
    trials that survived every earlier stage.  A Bernoulli reject p is the
    one stage ``[0, p)``; a label pick is the stage :func:`pick_bounds` gives.
    """
    alive = np.asarray(trials, dtype=np.uint64)
    for j in range(0, len(hi), 2):
        if alive.size == 0:
            break
        u, v = uniforms(seed, stream, alive, draw0 + j // 2)
        fire = _inside(u, lo[j], hi[j])
        if j + 1 < len(hi):
            fire &= _inside(v, lo[j + 1], hi[j + 1])
        alive = alive[fire]
    rej = alive.size
    return len(trials) - rej, rej


def tally_unique(seed, stream, trials, draw0, cdf_a, cdf_b, mismatch):
    """Reject where the two (label, gate) picks share a label and ``mismatch[ga, gb]`` holds."""
    u, v = uniforms(seed, stream, trials, draw0)
    la, ga = np.divmod(_pick(cdf_a, u), len(mismatch))
    lb, gb = np.divmod(_pick(cdf_b, v), len(mismatch))
    bad = (la == lb) & mismatch[ga, gb]
    rej = int(np.count_nonzero(bad))
    return len(trials) - rej, rej


def tally_low(seed, stream, trials, draw0, label_cdf, reject_table):
    """Label and term from slot ``draw0``; slot ``draw0 + 1`` only where the entry can reject."""
    trials = np.asarray(trials, dtype=np.uint64)
    n_terms = reject_table.shape[1]
    u, v = uniforms(seed, stream, trials, draw0)
    lab = _pick(label_cdf, u)
    term = np.minimum((v * n_terms).astype(np.int64), n_terms - 1)
    p = reject_table[lab, term]
    live = p > 0
    w, _ = uniforms(seed, stream, trials[live], draw0 + 1)
    rej = int(np.count_nonzero(w < p[live]))
    return len(trials) - rej, rej


def select(seed, stream, trials, draw0, cdf):
    """Inverse-CDF pick per trial (the protocol round's test choice); no draw when outcome 0 is certain."""
    if cdf[0] >= 1:
        return np.zeros(len(trials), dtype=np.int64)
    return _pick(cdf, uniforms(seed, stream, trials, draw0)[0]).astype(np.int64)
