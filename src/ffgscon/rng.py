"""Counter-based random streams for reproducible, partition-invariant sampling.

Every random draw in the package is addressed by the four integers
``(seed, stream, trial, draw)``: ``draw`` names a slot, one Philox4x32-10
block in :mod:`ffgscon._kernels` that gives two uniforms (from output words
0:1 and 2:3).  There is no sequential generator state, so the same
(config, seed) pair yields the same samples no matter how trials are chunked
or parallelized.

A :class:`CounterStream` is one such address, frozen.  A sampled verifier
shot runs its test's tally kernel on the one-trial array ``[trial]`` from
slot ``draw`` on; it reads the slots at the address and never advances it.

Stream ids (documented, frozen):

* k      -- verifier test k (1..8) run stand-alone: the stream id is the test id
* 0      -- protocol round: slot 0's first uniform picks the test, slots 1..
  feed the test
* 16+    -- free for callers (ad-hoc sampling in tests)
"""

from __future__ import annotations

from dataclasses import dataclass

STREAM_ROUND = 0
STREAM_USER = 16


@dataclass(frozen=True)
class CounterStream:
    """The address ``(seed, stream, trial, draw)`` of a sampled shot's first draw slot.

    Addresses for different trials never interact; ``dataclasses.replace(s,
    trial=t)`` is the sibling at the same seed, stream and draw.  A field out
    of its range raises ``ValueError``, since it would alias a valid address.
    """

    seed: int
    stream: int = STREAM_USER
    trial: int = 0
    draw: int = 0

    def __post_init__(self):
        # Philox word ranges; a round shot reads slots draw .. draw + 2
        for name, end in (("seed", 2**64), ("stream", 2**32), ("trial", 2**64), ("draw", 2**32 - 2)):
            if not 0 <= getattr(self, name) < end:
                raise ValueError(f"counter stream {name} must be in [0, {end}), got {getattr(self, name)!r}")
