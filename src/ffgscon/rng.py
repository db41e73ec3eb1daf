"""Counter-based random streams for reproducible, partition-invariant sampling.

Every random draw in the package is addressed by the four integers
``(seed, stream, trial, draw)`` and produced by the Philox4x32-10 generator
in :mod:`ffgscon._kernels`.  There is no sequential generator state, so the
same (config, seed) pair yields the same samples no matter how trials are
chunked or parallelized.

A :class:`CounterStream` names one ``(seed, stream, trial)`` cell.  Sampled
verifier shots run a tally kernel on that cell's trial, from draw
``stream.draw`` on; ``uniform`` and ``bernoulli`` hand out the cell's draws
one by one (the product test uses them).

Stream ids (documented, frozen):

* 1..8   -- verifier test i run stand-alone
* 0      -- protocol round: draw 0 picks the test, draws 1.. feed the test
* 9      -- the product test
* 16+    -- free for callers (e.g. ad-hoc sampling in tests)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import _kernels

STREAM_ROUND = 0
STREAM_TEST = {i: i for i in range(1, 9)}
STREAM_PRODUCT = 9
STREAM_USER = 16


@dataclass
class CounterStream:
    """Sequential view of one (seed, stream, trial) cell of the counter space.

    ``uniform()`` hands out the draws of that cell in order.  Streams for
    different trials never interact; ``for_trial`` is the cheap way to get a
    sibling.
    """

    seed: int
    stream: int = STREAM_USER
    trial: int = 0
    draw: int = field(default=0)

    def uniform(self) -> float:
        u = _kernels.uniforms(self.seed, self.stream, (self.trial,), self.draw)[0]
        self.draw += 1
        return float(u)

    def bernoulli(self, p: float) -> bool:
        return self.uniform() < p

    def for_trial(self, trial: int) -> "CounterStream":
        return CounterStream(self.seed, self.stream, trial)


def stream_for_test(test_id) -> int:
    if test_id == "PRODUCT":
        return STREAM_PRODUCT
    return STREAM_TEST[int(test_id)]
