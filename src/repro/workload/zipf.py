"""Zipf-like popularity sampling.

The paper (section 3.1, citing Breslau et al. [4]) assumes the access
frequency of the ``i``-th most popular object is proportional to
``1 / i**theta``.  :class:`ZipfSampler` draws object *ranks* from that law
using inverse-CDF sampling over the precomputed normalized weights, which
is exact (not an approximation) and fast via ``numpy.searchsorted``.
"""

from __future__ import annotations

import numpy as np


class ZipfSampler:
    """Sample ranks ``0 .. n-1`` with probability proportional to ``1/(rank+1)**theta``."""

    def __init__(self, num_items: int, theta: float) -> None:
        if num_items < 1:
            raise ValueError("num_items must be >= 1")
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self.num_items = num_items
        self.theta = theta
        weights = 1.0 / np.power(np.arange(1, num_items + 1, dtype=np.float64), theta)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    def probability(self, rank: int) -> float:
        """Exact probability of drawing ``rank``."""
        if not 0 <= rank < self.num_items:
            raise IndexError(f"rank {rank} out of range")
        lower = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - lower)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` ranks (dtype int64).

        The ranks are the index array ``searchsorted`` builds, returned
        without a copy.  Each rank takes one uniform draw, in order, so
        ranks drawn in blocks equal one whole draw: the trace generator
        gathers its int32 id column block by block through them and
        never holds a whole column of ranks.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        u = rng.random(count)
        return np.searchsorted(self._cdf, u, side="left").astype(
            np.int64, copy=False
        )
