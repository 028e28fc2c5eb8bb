"""Property tests of the exactness claims that the fast paths rest on.

hypothesis runs derandomized and without its example database, so every
run draws the same examples and no run replays an earlier run's failure."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relviews.hed import CostHead
from tests.helpers import ConstantCostHead, hed_module

# tie edits of a drawn table: a duplicated target row, a node on a target
# row, a node one ulp to either side of a target row, a zero node or row
_EDITS = ("duplicate_target", "node_on_target", "ulp_below", "ulp_above", "zero_node",
          "zero_target")


@st.composite
def tables(draw):
    """(instances (B, m, d), stacked targets (C*slots, d), slots, head): node
    and target norms from 1e-150 to 1e150, values rounded onto a grid that
    makes exact ties, a shared offset under which the Gram form cancels, and
    tie edits applied after the scaling."""
    b, m, count, slots, d = (draw(st.integers(1, n)) for n in (3, 6, 4, 5, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = rng.standard_normal((b, m, d))
    targets = rng.standard_normal((count * slots, d))
    if draw(st.booleans()):              # integer grid: ties between slots and nodes
        u, targets = np.round(2.0 * u), np.round(2.0 * targets)
    u *= 10.0 ** draw(st.integers(-150, 150))
    targets *= 10.0 ** draw(st.integers(-150, 150))
    if draw(st.booleans()):              # a shared offset up to 1e8 times the spread
        spread = max(np.abs(u).max(), np.abs(targets).max())
        shift = min(spread * 10.0 ** draw(st.integers(0, 8)), 1e150) * rng.standard_normal(d)
        u += shift
        targets += shift
    nodes = u.reshape(b * m, d)
    for kind, i, j in draw(st.lists(st.tuples(st.sampled_from(_EDITS),
                                              st.integers(0, b * m - 1),
                                              st.integers(0, count * slots - 1)),
                                    max_size=6)):
        if kind == "duplicate_target":
            targets[j] = targets[i % len(targets)]
        elif kind == "node_on_target":
            nodes[i] = targets[j]
        elif kind == "ulp_below":
            nodes[i] = np.nextafter(targets[j], -np.inf)
        elif kind == "ulp_above":
            nodes[i] = np.nextafter(targets[j], np.inf)
        elif kind == "zero_node":
            nodes[i] = 0.0
        else:
            targets[j] = 0.0
    # a learned head, or one whose deletion never wins, so every value is a
    # sum of the table's minima
    head = CostHead(d, hidden=3, seed=1) if draw(st.booleans()) else ConstantCostHead(np.inf)
    return u, targets, slots, head


def _table(limit, u, targets, slots, head):
    """`hed._forward`'s values and decisions with the screen threshold at `limit`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hed_module, "SCREEN_MIN_ENTRIES", limit)
        value, decisions, _ = hed_module._forward(u, targets, slots, head)
        return value, decisions()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(tables())
def test_screened_table_equals_the_full_table_bit_for_bit(table):
    # the screen keeps every entry that ties an exact row or column minimum,
    # so the values, the deletion and insertion choices and both argmins
    # (first index on a tie) are the full table's
    value, decisions = _table(0, *table)
    full_value, full_decisions = _table(np.inf, *table)
    assert np.array_equal(value, full_value)
    for got, expect in zip(decisions, full_decisions, strict=True):
        assert np.array_equal(got, expect)
