"""Seeded measurement noise for the simulated hardware.

Real micro-benchmarks are noisy, and the paper's deployment module
repeats each measurement until the 95% confidence interval of the mean
is within 5% of the mean.  To make that machinery meaningful in
simulation, every simulated duration is perturbed by a small
multiplicative lognormal factor drawn from a seeded RNG, so runs are
noisy but reproducible.

Hot-path notes: each substream is the ``__next__`` of an endless
iterator, built when the model is (or reset), that chains blocks of
factors: a block draws normal deviates in one call and maps them to
``math.exp(sigma * x)``.  NumPy generators produce the *same* deviate
sequence whether drawn singly or in blocks of any size, so every factor
is bit-identical to one ``standard_normal()`` call per draw, and a draw
runs no Python frame besides the factor method itself.  The RNG is
built on the first draw, and the first block is small
(:data:`_FIRST_BLOCK`) because the library builds a short-lived device
per call, and a substream a device never touches draws nothing.
Longer-lived devices (a Table IV sweep call draws about 184 per
substream; a serving GPU's device lasts the run) refill in
:data:`_BLOCK`-sized blocks.  Nothing is shared between models: every
device seed differs, so a cache of blocks across models would only
hold memory.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import Callable, Iterator, List

import numpy as np


#: Substream index per factor type; each draws from its own seeded RNG
#: so e.g. adding kernel launches never shifts the transfer-noise draws.
_FACTOR_STREAMS = {"duration": 0, "latency": 1, "rate": 2}

#: Normal deviates drawn on a substream's first use.
_FIRST_BLOCK = 16

#: Normal deviates drawn per later refill.
_BLOCK = 256


def _blocks(stream: int, seed: int, sigma: float) -> Iterator[List[float]]:
    """Endless blocks of lognormal factors of substream ``(stream, seed)``."""
    rng = np.random.default_rng((stream, seed))
    exp = math.exp
    n = _FIRST_BLOCK
    while True:
        yield [exp(sigma * x) for x in rng.standard_normal(n).tolist()]
        n = _BLOCK


def _factors(stream: int, seed: int, sigma: float) -> Callable[[], float]:
    """The next-factor function of substream ``(stream, seed)``."""
    if sigma == 0.0:
        return repeat(1.0).__next__
    return chain.from_iterable(_blocks(stream, seed, sigma)).__next__


class NoiseModel:
    """Multiplicative lognormal noise on simulated durations.

    sigma
        Standard deviation of the underlying normal; 0 disables noise.
        Typical hardware jitter is 1-3%.

    Each factor type (duration / latency / rate) draws from its own
    independent substream of ``seed``, so enabling or reordering one
    noise consumer does not perturb the sequences the others see.
    """

    def __init__(self, seed: int = 0, sigma: float = 0.02) -> None:
        if sigma < 0:
            raise ValueError(f"negative noise sigma: {sigma}")
        self.seed = seed
        self.sigma = sigma
        self.reset()

    @classmethod
    def disabled(cls) -> "NoiseModel":
        """A noise model that always returns exactly 1.0."""
        return cls(seed=0, sigma=0.0)

    def duration_factor(self) -> float:
        """Factor applied to a kernel execution duration."""
        return self._duration()

    def latency_factor(self) -> float:
        """Factor applied to a transfer's setup latency."""
        return self._latency()

    def rate_factor(self) -> float:
        """Factor applied to a transfer's effective bandwidth."""
        return self._rate()

    def reset(self) -> None:
        """Rewind all substreams to the seed (identical future draws)."""
        self._duration, self._latency, self._rate = (
            _factors(_FACTOR_STREAMS[name], self.seed, self.sigma)
            for name in ("duration", "latency", "rate"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NoiseModel(seed={self.seed}, sigma={self.sigma})"
