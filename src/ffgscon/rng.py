"""Counter-based random streams for reproducible, partition-invariant sampling.

Every random draw in the package is addressed by the four integers
``(seed, stream, trial, draw)`` and produced by the Philox4x32-10 generator
in :mod:`ffgscon._kernels`.  There is no sequential generator state, so the
same (config, seed) pair yields the same samples no matter how trials are
chunked or parallelized.

A :class:`CounterStream` is one such address, frozen.  A sampled verifier
shot runs its test's tally kernel on the one-trial array ``[trial]`` from
draw ``draw`` on; it reads the draws at the address and never advances it.

Stream ids (documented, frozen):

* 1..8   -- verifier test i run stand-alone
* 0      -- protocol round: draw 0 picks the test, draws 1.. feed the test
* 9      -- the product test
* 16+    -- free for callers (seeded adversaries, ad-hoc sampling in tests)
"""

from __future__ import annotations

from dataclasses import dataclass

STREAM_ROUND = 0
STREAM_TEST = {i: i for i in range(1, 9)}
STREAM_PRODUCT = 9
STREAM_USER = 16


@dataclass(frozen=True)
class CounterStream:
    """The address ``(seed, stream, trial, draw)`` of a sampled shot's first draw.

    Addresses for different trials never interact; ``for_trial`` is the cheap
    way to get a sibling.
    """

    seed: int
    stream: int = STREAM_USER
    trial: int = 0
    draw: int = 0

    def for_trial(self, trial: int) -> "CounterStream":
        return CounterStream(self.seed, self.stream, trial)


def stream_for_test(test_id) -> int:
    if test_id == "PRODUCT":
        return STREAM_PRODUCT
    return STREAM_TEST[int(test_id)]
