import numpy as np

from bench.inputs import arrival_order
from bench.spec import SHUFFLE_BLOCK


def test_seed_reorders_inside_blocks_and_never_across_a_segment():
    total, segment = 50, 20  # segments end mid-block, the last one short
    order = arrival_order(total, segment, seed=3)
    assert sorted(order) == list(range(total))
    for start in range(0, total, segment):
        rows = order[start:start + segment]
        for b in range(0, len(rows), SHUFFLE_BLOCK):
            block = rows[b:b + SHUFFLE_BLOCK]
            assert sorted(block) == list(
                range(start + b, start + b + len(block))
            )
    assert np.array_equal(order, arrival_order(total, segment, seed=3))
    assert not np.array_equal(order, arrival_order(total, segment, seed=4))
