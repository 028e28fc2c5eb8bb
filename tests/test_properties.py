"""Property tests of the exactness claims that the fast paths rest on.

hypothesis runs derandomized and without its example database, so every
run draws the same examples and no run replays an earlier run's failure;
`tests/conftest.py` keeps its other files out of the checkout."""
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from relviews import autodiff as ad
from relviews.checkpoint import read_container, write_container
from relviews.hed import CostHead
from relviews.transitivity import TransitivityConfig
from tests.helpers import ConstantCostHead, exact_ged, hed_module

# tie edits of a drawn table: a duplicated target row, a node on a target
# row, a node one ulp to either side of a target row, a zero node or row, and
# a class whose slots duplicate another class's, which ties the two classes
_EDITS = ("duplicate_target", "node_on_target", "ulp_below", "ulp_above", "zero_node",
          "zero_target", "duplicate_class")


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
        elif kind == "duplicate_class":
            src, dst = i % count * slots, j // slots * slots
            targets[dst:dst + slots] = targets[src:src + slots]
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


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(tables())
def test_nearest_equals_the_exact_tables_argmin(table):
    # rows the Gram table's bound cannot decide, exact ties between classes
    # among them, take the exact table's argmin, so every index is its argmin
    exact = hed_module._forward(*table)[0]
    assert np.array_equal(hed_module.nearest(*table), exact.argmin(axis=1))


@st.composite
def small_pairs(draw):
    """(g (m, d), p (q, d), head) with m and q at most 5, over six orders of
    magnitude, some nodes of g repeated from p: either a learned head or a
    constant deletion and insertion cost at the drawn scale."""
    m, q, d = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    g, p = rng.standard_normal((m, d)) * scale, rng.standard_normal((q, d)) * scale
    for i, j in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, q - 1)),
                              max_size=3)):
        g[i] = p[j]
    head = (CostHead(d, hidden=3, seed=draw(st.integers(0, 99))) if draw(st.booleans())
            else ConstantCostHead(scale * draw(st.floats(0.0, 4.0))))
    return g, p, head


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_pairs())
def test_hed_lies_between_zero_and_the_exact_edit_distance(pair):
    g, p, head = pair
    value, exact = hed_module.hed(g, p, head).value, exact_ged(g, p, head)
    # exact_ged adds negative gains to its all-delete base, so its rounding
    # is relative to that base and the matched distances, not to its value
    base = (head.forward(g)[0].sum() + head.forward(p)[0].sum()
            + min(len(g), len(p)) * (np.abs(g).sum() + np.abs(p).sum())) / (2 * len(g))
    assert 0.0 <= value <= exact + 1e-12 * base


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_pairs(), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_added_nodes_raise_the_distance_sum_by_at_most_their_deletion_costs(pair, k, seed):
    # the robustness certificate: S(g) = 2|g| hed(g, p), and nodes X added to
    # g keep g's node terms, add at most cost(x) each and can only lower a
    # slot's term, so S(g + X) <= S(g) + sum of cost(X)
    g, p, head = pair
    extra = np.random.default_rng(seed).standard_normal((k, g.shape[1])) * np.abs(g).max()
    before = 2 * len(g) * hed_module.hed(g, p, head).value
    after = 2 * (len(g) + k) * hed_module.hed(np.vstack([g, extra]), p, head).value
    bound = before + head.forward(extra)[0].sum()
    # below the normal range rounding is absolute, and 2|g| multiplies it
    assert after <= bound * (1 + 1e-12) + 4 * (len(g) + k) * np.nextafter(0.0, 1.0)


_MAX = np.finfo(np.float64).max
# values a float64 text round trip can get wrong: signed zero, the smallest
# subnormal and normal numbers, and the largest finite double
_EDGE_VALUES = (-0.0, 5e-324, -5e-324, np.finfo(np.float64).tiny, _MAX, -_MAX)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=4, min_side=0,
                                                          max_side=5),
                           elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                              st.sampled_from(_EDGE_VALUES))),
                min_size=1, max_size=3))
def test_container_reads_back_every_tensor_bit_for_bit(tmp_path_factory, arrays):
    path = tmp_path_factory.getbasetemp() / "round_trip.txt"
    tensors = [(f"t{i}", arr) for i, arr in enumerate(arrays)]
    write_container(path, "test-container 1", {"kind": "any"}, tensors)
    config, back = read_container(path, "test-container 1", "container", "write it again")
    assert config == {"kind": "any"} and list(back) == [name for name, _ in tensors]
    for (_, arr), got in zip(tensors, back.values()):
        assert got.dtype == np.float64 and got.shape == arr.shape
        assert got.tobytes() == arr.tobytes()


# candidate counts at, and one to either side of, one and two blocks
_AROUND_BLOCKS = [k + j for k in (ad._CANDIDATE_BLOCK, 2 * ad._CANDIDATE_BLOCK)
                  for j in (-1, 0, 1)]


@st.composite
def masked_tables(draw):
    """(u (..., m, d), v (p, d), where): random values at a drawn scale, some
    rows repeated so entries tie at 0, and a mask of a drawn candidate count,
    from none to all, with counts around `_CANDIDATE_BLOCK` on tables large
    enough to hold them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    large = draw(st.booleans())
    b, m, p = (3, 17, 96) if large else tuple(draw(st.integers(1, 6)) for _ in range(3))
    d = draw(st.integers(1, 8))
    u = rng.standard_normal((b, m, d)) * 10.0 ** draw(st.integers(-150, 150))
    v = rng.standard_normal((p, d)) * 10.0 ** draw(st.integers(-150, 150))
    if draw(st.booleans()):
        v[rng.integers(p)] = u.reshape(-1, d)[rng.integers(b * m)]
    if draw(st.booleans()):              # one (B*m, d) stack of rows
        u = u.reshape(-1, d)
    shape = (*u.shape[:-1], p)
    size = int(np.prod(shape))
    count = draw(st.sampled_from(_AROUND_BLOCKS) if large and draw(st.booleans())
                 else st.integers(0, size))
    where = np.zeros(size, dtype=bool)
    where[rng.choice(size, count, replace=False)] = True
    return u, v, where.reshape(shape)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(masked_tables())
def test_masked_distances_equal_the_full_table_and_are_inf_elsewhere(table):
    u, v, where = table
    got, full = ad.pairwise_l2(u, v, where), ad.pairwise_l2(u, v)
    assert got.shape == full.shape == where.shape
    assert np.array_equal(got[where], full[where])
    assert np.all(got[~where] == np.inf)


@st.composite
def score_rows(draw):
    """(scores (B, P), q): scores over 16 orders of magnitude, on an integer
    grid for ties or not, with drawn values written over some entries, NaN
    and signed zeros among them; q in (0, 1), often one of eighths, which
    put the interpolation weight on 0.5 and on the order statistics."""
    b, p = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scores = rng.standard_normal((b, p)) * 10.0 ** rng.integers(-8, 9, (b, p))
    if draw(st.booleans()):
        scores = np.round(scores)
    for row, col, value in draw(st.lists(st.tuples(
            st.integers(0, b - 1), st.integers(0, p - 1),
            st.one_of(st.floats(allow_infinity=False), st.sampled_from((0.0, -0.0, np.nan)))),
            max_size=4)):
        scores[row, col] = value
    q = draw(st.one_of(st.sampled_from([i / 8 for i in range(1, 8)]),
                       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    return scores, q


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(score_rows())
def test_row_quantiles_equal_numpys_linear_method(rows):
    scores, q = rows
    got = TransitivityConfig(gamma_quantile=q).resolve_rows(scores)
    want = np.quantile(scores, q, method="linear", axis=1)
    # equal as values: where a row's quantile is zero, its sign follows the
    # order in which a sort leaves 0.0 and -0.0, which may differ from numpy's
    assert np.array_equal(got, want, equal_nan=True)


_FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st

@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10
"""


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # under the repo's warning filters and conftest, a failing property ends
    # in a failure report, not in INTERNALERROR from hypothesis's plugin
    (tmp_path / "test_failing.py").write_text(_FAILING_PROPERTY)
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-p", "tests.conftest", "-c", str(root / "pyproject.toml"),
                          str(tmp_path / "test_failing.py")],
                         cwd=root, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "Falsifying example" in out.stdout and "INTERNALERROR" not in out.stdout + out.stderr
