"""Zipf-like popularity sampling.

The paper (section 3.1, citing Breslau et al. [4]) assumes the access
frequency of the ``i``-th most popular object is proportional to
``1 / i**theta``.  :class:`ZipfSampler` draws object *ranks* from that law
by inverse-CDF sampling over the precomputed normalized weights, which
is exact (not an approximation).  The inverse is looked up through a
guide table (Chen & Asau's cutpoint method) instead of one binary search
per draw: a uniform draw's bucket gives the first candidate rank and a
fixed number of vectorized comparisons finish the search, each rank
being exactly the one ``numpy.searchsorted(cdf, u, side="left")`` gives.
"""

from __future__ import annotations

import numpy as np

# Guide-table size: at least 4 buckets an item, up to 2**16 buckets.  At
# the paper's theta = 0.8 that takes one correction pass at 2,000 items
# and 7 at 100,000.  A larger table costs more than it saves: 32 buckets
# an item (512 KB at 2,000 items) kept ~2 MB more heap resident over
# repeated trace generation.
_MAX_BUCKETS = 1 << 16
_BUCKETS_PER_ITEM = 4


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
        # Guide table over K buckets, K a power of two: bucket b holds
        # the first rank whose CDF value is >= b / K.  Scaling by a power
        # of two is exact, so `scaled[r] < u * K` is `cdf[r] < u` bit for
        # bit, and a draw in bucket b lies at most `passes` ranks past
        # guide[b].
        self.buckets = min(
            _MAX_BUCKETS,
            1 << (_BUCKETS_PER_ITEM * num_items - 1).bit_length(),
        )
        edges = np.searchsorted(
            self._cdf,
            np.arange(self.buckets + 1, dtype=np.float64) / self.buckets,
            side="left",
        )
        self.passes = int(np.diff(edges).max())
        self._guide = edges[:-1].astype(np.int64, copy=False)
        self._scaled = self._cdf * self.buckets

    def probability(self, rank: int) -> float:
        """Exact probability of drawing ``rank``."""
        if not 0 <= rank < self.num_items:
            raise IndexError(f"rank {rank} out of range")
        lower = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - lower)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` ranks (dtype int64).

        Each rank takes one uniform draw ``u``, in order, and is the
        first rank whose CDF value is ``>= u`` -- the rank
        ``np.searchsorted(cdf, u, side="left")`` gives, found through the
        guide table and ``passes`` correction steps.  So ranks drawn in
        blocks equal one whole draw: the trace generator gathers its
        int32 id column block by block through them and never holds a
        whole column of ranks.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        u = rng.random(count)
        u *= self.buckets
        ranks = self._guide[u.astype(np.intp)]
        scaled = self._scaled
        for _ in range(self.passes):
            ranks += scaled[ranks] < u
        return ranks
