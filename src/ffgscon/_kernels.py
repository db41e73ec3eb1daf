"""Hot sampling kernels: counter-based uniforms and per-test tally loops.

Each kernel is one vectorized numpy implementation over an array of trial
indices.  A single sampled shot is the same kernel run on the one-trial
array ``[trial]``, so a shot's verdict is, by construction, the verdict of
that trial in a bulk tally.

The random source is Philox4x32-10, a counter-based generator.  A single
uniform is addressed by the tuple ``(seed, stream, trial, draw)``:

    counter = (trial & 0xffffffff, trial >> 32, draw, stream)
    key     = (seed  & 0xffffffff, seed  >> 32)

and the double in [0, 1) is built from the top 53 bits of output words 0:1.
Because draws are addressed, not sequenced, partitioning trials across any
number of workers cannot change a single sample.

The Philox body is written once, for operands that are Python ints or
``uint64`` arrays.  Arrays of at most ``SMALL_TRIALS`` trials go through it
as Python ints, one trial at a time: on a one-element array numpy's per-call
overhead makes a block cost about ten times the integer arithmetic.
"""

from __future__ import annotations

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


def _philox_words01(c0, c1, c2, c3, k0, k1):
    """One Philox4x32-10 block per lane; returns output words 0 and 1.

    Operands are Python ints or ``uint64`` arrays (numpy ``uint64`` scalars
    work too).  Every product of two 32-bit words fits in 64 bits, so both
    kinds give the same words.
    """
    for _ in range(10):
        p0 = _M0 * c0
        p1 = _M1 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & _MASK32, (p0 >> 32) ^ c3 ^ k1, p0 & _MASK32
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return c0, c1


def uniforms(seed, stream, trials, draw):
    """Uniform doubles in [0, 1) for an array of trial indices at one draw slot."""
    trials = np.asarray(trials, dtype=np.uint64)
    seed, stream, draw = int(seed), int(stream), int(draw)
    c2, c3 = draw & _MASK32, stream & _MASK32
    k0, k1 = seed & _MASK32, (seed >> 32) & _MASK32
    if trials.size <= SMALL_TRIALS:
        out = []
        for t in trials.tolist():
            w0, w1 = _philox_words01(t & _MASK32, t >> 32, c2, c3, k0, k1)
            out.append((((w0 << 32) | w1) >> 11) * _INV53)
        return np.array(out, dtype=np.float64)
    w0, w1 = _philox_words01(trials & _MASK32, trials >> 32, c2, c3, k0, k1)
    return (((w0 << 32) | w1) >> 11).astype(np.float64) * _INV53


# ---------------------------------------------------------------------------
# Per-test tally kernels
#
# Each kernel consumes a fixed number of draw slots per trial, starting at
# ``draw0`` (the protocol-round dispatcher reserves slot 0 for test choice).
# All return (accepts, rejects) with accepts + rejects == len(trials).
# ---------------------------------------------------------------------------


def _pick(cdf, u):
    """Inverse-CDF index of each uniform, clamped to the last outcome."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.shape[0] - 1)


def tally_bernoulli(seed, stream, trials, draw0, p_reject):
    u = uniforms(seed, stream, trials, draw0)
    rej = int(np.count_nonzero(u < p_reject))
    return len(trials) - rej, rej


def tally_chain(seed, stream, trials, draw0, probs):
    """Reject iff every stage fires: u_k < probs[k] for all k."""
    trials = np.asarray(trials, dtype=np.uint64)
    alive = np.ones(len(trials), dtype=bool)
    for k in range(len(probs)):
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            break
        u = uniforms(seed, stream, trials[idx], draw0 + k)
        alive[idx[u >= probs[k]]] = False
    rej = int(np.count_nonzero(alive))
    return len(trials) - rej, rej


def tally_unique(seed, stream, trials, draw0, cdf_a, cdf_b, gate_dim, valid):
    fa = _pick(cdf_a, uniforms(seed, stream, trials, draw0))
    fb = _pick(cdf_b, uniforms(seed, stream, trials, draw0 + 1))
    la, ga = fa // gate_dim, fa % gate_dim
    lb, gb = fb // gate_dim, fb % gate_dim
    bad = (la == lb) & ((ga != gb) | ~valid[ga])
    rej = int(np.count_nonzero(bad))
    return len(trials) - rej, rej


def tally_boundary(seed, stream, trials, draw0, label_cdf, target, q_reject):
    trials = np.asarray(trials, dtype=np.uint64)
    lab = _pick(label_cdf, uniforms(seed, stream, trials, draw0))
    hit = np.nonzero(lab == target)[0]
    rej = 0
    if hit.size:
        u1 = uniforms(seed, stream, trials[hit], draw0 + 1)
        rej = int(np.count_nonzero(u1 < q_reject))
    return len(trials) - rej, rej


def tally_low(seed, stream, trials, draw0, label_cdf, reject_table):
    n_terms = reject_table.shape[1]
    lab = _pick(label_cdf, uniforms(seed, stream, trials, draw0))
    u1 = uniforms(seed, stream, trials, draw0 + 1)
    term = np.minimum((u1 * n_terms).astype(np.int64), n_terms - 1)
    u2 = uniforms(seed, stream, trials, draw0 + 2)
    rej = int(np.count_nonzero(u2 < reject_table[lab, term]))
    return len(trials) - rej, rej


def select(seed, stream, trials, draw0, cdf):
    """Inverse-CDF pick per trial (the protocol round's test choice)."""
    return _pick(cdf, uniforms(seed, stream, trials, draw0)).astype(np.int64)
