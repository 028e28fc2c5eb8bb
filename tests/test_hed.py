import importlib

import numpy as np
import pytest

from relviews import autodiff as ad
from relviews.errors import ConfigError
from relviews.hed import CostHead, hed, hed_values_multi
from tests.conftest import central_diff, rel_error
from tests.helpers import (ConstantCostHead, LinearCostHead, exact_ged, tape_hed, tape_table)

# the module, not the `relviews.hed` function the package exports
hed_module = importlib.import_module("relviews.hed")


def test_identical_graphs_zero_distance():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 8))
    for head in (ConstantCostHead(3.0), CostHead(8, seed=1)):
        res = hed(x, x.copy(), head)
        assert res.value == 0.0
        assert np.array_equal(res.forward_assignment, np.arange(5))
        assert np.array_equal(res.backward_assignment, np.arange(5))


def test_single_pair_hand_computation():
    # both directions substitute at ||u - v||/2; alpha = 1/2 for one node
    u = np.array([[1.0, 0.0]])
    v = np.array([[0.0, 2.0]])
    res = hed(u, v, ConstantCostHead(1e6))
    assert res.value == pytest.approx(np.sqrt(5.0) / 2.0, abs=1e-12)


def test_single_node_against_empty_hand_computation():
    u = np.array([[3.0, 4.0]])
    head = ConstantCostHead(2.0)
    # one node vs one identical node: zero
    assert exact_ged(u, u.copy(), head) == 0.0


def test_deletion_beats_far_substitution():
    u = np.array([[0.0, 0.0]])
    v = np.array([[100.0, 0.0]])
    res = hed(u, v, ConstantCostHead(1.0))
    # each side deletes/inserts at cost 1: value = (1 + 1) / (2 * 1)
    assert res.value == pytest.approx(1.0)
    assert res.forward_assignment[0] == -1
    assert res.backward_assignment[0] == -1


def test_tie_prefers_substitution():
    u = np.array([[0.0]])
    v = np.array([[1.0]])
    res = hed(u, v, ConstantCostHead(0.5))   # deletion cost equals sub cost 0.5
    assert res.forward_assignment[0] == 0
    assert res.backward_assignment[0] == 0


def test_value_recomputable_from_assignments():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((4, 6))
    v = rng.standard_normal((5, 6))
    head = CostHead(6, seed=3)
    res = hed(u, v, head)
    du, iv = (head.forward(x)[0] for x in (u, v))
    total = 0.0
    for i, a in enumerate(res.forward_assignment):
        total += du[i] if a < 0 else np.linalg.norm(u[i] - v[a]) / 2.0
    for j, a in enumerate(res.backward_assignment):
        total += iv[j] if a < 0 else np.linalg.norm(u[a] - v[j]) / 2.0
    assert res.value == pytest.approx(total / (2 * 4), abs=1e-12)


def test_hed_lower_bounds_exact_ged():
    rng = np.random.default_rng(4)
    head = ConstantCostHead(0.8)
    for trial in range(200):
        m, p = rng.integers(1, 5, size=2)
        u = rng.standard_normal((m, 8))
        v = rng.standard_normal((p, 8))
        h = hed(u, v, head).value
        e = exact_ged(u, v, head)
        assert 0.0 <= h <= e + 1e-9, trial


def test_hed_lower_bound_with_learned_head():
    rng = np.random.default_rng(5)
    head = CostHead(4, seed=6)
    for trial in range(100):
        u = rng.standard_normal((4, 4))
        v = rng.standard_normal((4, 4))
        assert hed(u, v, head).value <= exact_ged(u, v, head) + 1e-9


def test_added_nodes_raise_the_unnormalized_distance_by_at_most_their_deletion_costs():
    # S(g) = 2|g| h(g, p). Nodes X added to g keep every term of g's own
    # nodes, add at most cost(x) each, and can only lower a proxy slot's
    # term: S(g + X) <= S(g) + sum of cost(X)
    rng = np.random.default_rng(13)
    for draw in range(1000):
        m, p, k = rng.integers(1, 5, size=3)
        d = int(rng.integers(1, 5))
        g, proxy, extra = (10.0 ** rng.uniform(-2.0, np.log10(3.0))
                           * rng.standard_normal((rows, d)) for rows in (m, p, k))
        head = CostHead(d, hidden=int(rng.integers(1, 8)), seed=draw)
        before = 2 * m * hed(g, proxy, head).value
        after = 2 * (m + k) * hed(np.vstack([g, extra]), proxy, head).value
        bound = before + head.forward(extra)[0].sum()
        assert after - bound <= 1e-12 * bound, draw


def test_exact_ged_identical_zero():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 3))
    assert exact_ged(x, x.copy(), ConstantCostHead(5.0)) == 0.0


def test_exact_ged_brute_force_cross_check():
    # oracle: direct evaluation of all mappings for a 2x2 case by hand
    u = np.array([[0.0], [10.0]])
    v = np.array([[1.0], [11.0]])
    head = ConstantCostHead(0.4)
    # best mapping matches both (cost 1 + 1), but deleting all costs 4*0.4=1.6
    assert exact_ged(u, v, head) == pytest.approx(1.6 / 4.0)
    big_head = ConstantCostHead(100.0)
    assert exact_ged(u, v, big_head) == pytest.approx(2.0 / 4.0)


def test_exact_ged_guard():
    x = np.zeros((9, 2))
    with pytest.raises(ValueError):
        exact_ged(x, x, ConstantCostHead(1.0))


def test_symmetry_equal_sizes():
    rng = np.random.default_rng(8)
    head = CostHead(5, seed=9)
    for _ in range(20):
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((4, 5))
        assert abs(hed(a, b, head).value - hed(b, a, head).value) < 1e-12


def test_scale_homogeneity_with_linear_head():
    rng = np.random.default_rng(10)
    head = LinearCostHead(rng.standard_normal(6))
    a = rng.standard_normal((3, 6))
    b = rng.standard_normal((5, 6))
    assert hed(2.0 * a, 2.0 * b, head).value == pytest.approx(
        2.0 * hed(a, b, head).value, rel=1e-12)


def test_dim_mismatch_and_empty_errors():
    with pytest.raises(ConfigError):
        hed(np.zeros((2, 3)), np.zeros((2, 4)), ConstantCostHead(1.0))
    with pytest.raises(ValueError):
        hed(np.zeros((0, 3)), np.zeros((2, 3)), ConstantCostHead(1.0))


def multi_grads(u, targets, slots, head, seed, table=tape_table):
    """A distance table and the gradients of sum(seed * table) w.r.t. the
    instances, the stacked targets (the tape oracle alone computes them;
    None for the closed form) and, for a CostHead, its tensors."""
    u_var = ad.Var(u.copy(), requires_grad=True)
    t_var = ad.Var(targets.copy(), requires_grad=True)
    if isinstance(head, CostHead):
        head.zero_grads()
    out = table(u_var, t_var if table is tape_table else targets.copy(), slots, head)
    ad.backward(out, seed)
    head_grads = {}
    if isinstance(head, CostHead):
        head_grads = {name: g.copy() for name, g in head.grads.items()}
    return out.value, u_var.grad, t_var.grad, head_grads


def closed_grads(u, targets, slots, head, seed):
    """`multi_grads` of `hed_values_multi`, which computes no target gradient."""
    return multi_grads(u, targets, slots, head, seed, hed_values_multi)


def multi_value(u, targets, slots, head, seed):
    return float((seed * hed_values_multi(u, targets, slots, head)).sum())


def test_backward_zero_for_identical_graphs():
    # each instance repeats the nodes of its own class's proxy (m = 5, slots = 3)
    rng = np.random.default_rng(11)
    slots = 3
    targets = rng.standard_normal((2 * slots, 5))
    u = np.stack([targets[c * slots + np.array([0, 1, 2, 0, 1])] for c in range(2)])
    head = CostHead(5, seed=12)
    for grads in (multi_grads, closed_grads):
        table, du, dt, hg = grads(u, targets, slots, head, np.eye(2))
        assert table[0, 0] == 0.0 and table[1, 1] == 0.0
        assert np.all(du == 0.0) and (dt is None or np.all(dt == 0.0))
        assert all(np.all(g == 0.0) for g in hg.values())


def test_backward_single_substitution_hand_derivative():
    # one node per instance, two slots per class, substitution everywhere:
    # table[b, c] = (min_j ||u_b - v_cj|| / 2 + sum_j ||u_b - v_cj|| / 2) / 2
    u = np.array([[[1.0, 0.0]], [[-1.0, 3.0]]])
    targets = np.array([[0.0, 2.0], [3.0, 1.0], [-2.0, -1.0], [0.5, 0.5]])
    table, du, dt, _ = multi_grads(u, targets, 2, ConstantCostHead(1e6), np.ones((2, 2)))
    expect_u = np.zeros_like(u)
    expect_t = np.zeros_like(targets)
    for b in range(2):
        for c in range(2):
            v = targets[2 * c:2 * c + 2]
            dist = np.linalg.norm(u[b, 0] - v, axis=1)
            assert table[b, c] == pytest.approx((dist.min() + dist.sum()) / 4.0, abs=1e-12)
            for j in range(2):
                weight = 0.25 * (1 + (j == dist.argmin()))
                direction = (u[b, 0] - v[j]) / dist[j]
                expect_u[b, 0] += weight * direction
                expect_t[2 * c + j] -= weight * direction
    np.testing.assert_allclose(du, expect_u, atol=1e-12)
    np.testing.assert_allclose(dt, expect_t, atol=1e-12)
    _, du, _, _ = closed_grads(u, targets, 2, ConstantCostHead(1e6), np.ones((2, 2)))
    np.testing.assert_allclose(du, expect_u, atol=1e-12)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(13)
    slots = 3
    u = 0.5 * rng.standard_normal((2, 4, 5))
    targets = 0.5 * rng.standard_normal((2 * slots, 5))
    head = CostHead(5, seed=14)
    seed = rng.standard_normal((2, 2))
    table, du, dt, hg = multi_grads(u, targets, slots, head, seed)
    # the closed form agrees with the oracle that the differences check
    table_c, du_c, _, hg_c = closed_grads(u, targets, slots, head, seed)
    assert np.array_equal(table_c, table)
    assert np.abs(du_c - du).max() <= 1e-12 * np.abs(du).max()
    for name, g in hg.items():
        assert np.abs(hg_c[name] - g).max() <= 1e-12 * np.abs(g).max(), name
    # both branches occur, so the cost head gets a gradient
    dist = np.linalg.norm(u[:, :, None] - targets[None, None], axis=-1).reshape(2, 4, 2, slots)
    del_cost = head.forward(u.reshape(-1, 5))[0].reshape(2, 4, 1)
    take_del = del_cost < 0.5 * dist.min(axis=3)
    assert take_del.any() and not take_del.all()

    checked = 0
    step = 1e-5
    for which, grad in enumerate((du, dt)):
        arr = (u, targets)[which]

        def fn(x, which=which):
            args = [u, targets]
            args[which] = x
            return multi_value(*args, slots, head, seed)

        for _ in range(15):
            idx = np.unravel_index(rng.integers(0, arr.size), arr.shape)
            fd = central_diff(fn, arr, idx, step)
            assert rel_error(fd, grad[idx]) < 1e-4, (which, idx, fd, grad[idx])
            checked += 1
    for name, arr in head.named_tensors():
        for _ in range(5):
            idx = np.unravel_index(rng.integers(0, arr.size), arr.shape)
            keep = arr[idx]
            arr[idx] = keep + step
            up = multi_value(u, targets, slots, head, seed)
            arr[idx] = keep - step
            down = multi_value(u, targets, slots, head, seed)
            arr[idx] = keep
            fd = (up - down) / (2 * step)
            assert rel_error(fd, hg[name][idx]) < 1e-4, (name, idx)
            checked += 1
    assert checked >= 50


def test_upstream_scales_gradients():
    rng = np.random.default_rng(16)
    u = rng.standard_normal((2, 3, 4))
    targets = rng.standard_normal((4, 4))
    head = ConstantCostHead(0.7)
    seed = rng.standard_normal((2, 2))
    _, du1, dt1, _ = multi_grads(u, targets, 2, head, seed)
    _, du3, dt3, _ = multi_grads(u, targets, 2, head, 3.0 * seed)
    np.testing.assert_allclose(du3, 3.0 * du1, atol=1e-12)
    np.testing.assert_allclose(dt3, 3.0 * dt1, atol=1e-12)
    _, du1, _, _ = closed_grads(u, targets, 2, head, seed)
    _, du3, _, _ = closed_grads(u, targets, 2, head, 3.0 * seed)
    np.testing.assert_allclose(du3, 3.0 * du1, atol=1e-12)


# ------------------------------------------------------ screened distance table

def assert_paths_equal(monkeypatch, u, targets, slots, head, seed):
    """`multi_grads` of the oracle and of the closed form each agree bit for
    bit with every table screened and with every table full, and the two
    tables are equal; returns the table."""
    tables = []
    for grads in (multi_grads, closed_grads):
        screened, full = [], []
        for limit, out in ((0, screened), (np.inf, full)):
            monkeypatch.setattr(hed_module, "SCREEN_MIN_ENTRIES", limit)
            out.extend(grads(u, targets, slots, head, seed))
        for a, b in zip(screened[:3], full[:3]):
            assert (a is b is None) or np.array_equal(a, b, equal_nan=True)
        assert screened[3].keys() == full[3].keys()
        for name in full[3]:
            assert np.array_equal(screened[3][name], full[3][name], equal_nan=True), name
        tables.append(full[0])
    assert np.array_equal(tables[0], tables[1], equal_nan=True)
    return tables[1]


def screen_inputs():
    """(name, instances (B, m, d), stacked targets (C*slots, d)) with ties and
    near-ties that a loose screen would drop."""
    rng = np.random.default_rng(20)
    slots, d = 5, 6
    base = rng.standard_normal((3 * slots, d))
    # first-batch seeding: instances repeat slots exactly, distance 0
    seeded = np.stack([base[rng.integers(0, 3 * slots, 4)] for _ in range(6)])
    # a collapsed proxy: slots of each class 1e-15 apart around one point
    collapsed = (np.repeat(base[::slots], slots, axis=0)
                 + 1e-15 * rng.standard_normal((3 * slots, d)))
    near = collapsed[rng.integers(0, 3 * slots, (6, 4))] + 1e-15 * rng.standard_normal((6, 4, d))
    # slots one ulp from instance nodes, and ties between slots
    ulp = np.nextafter(seeded, np.inf)
    tied = base.copy()
    tied[1] = tied[0]
    tied[slots + 2] = np.nextafter(tied[slots], -np.inf)
    # a common offset much larger than the spread: the Gram form cancels
    offset = 1e6 + 1e-3 * rng.standard_normal((6, 4, d))
    return [
        ("seeded", seeded, base),
        ("collapsed", near, collapsed),
        ("one_ulp", seeded, np.nextafter(base, np.inf)),
        ("one_ulp_instances", ulp, base),
        ("tied_slots", tied[rng.integers(0, 3 * slots, (6, 4))], tied),
        ("offset", offset, 1e6 + 1e-3 * rng.standard_normal((3 * slots, d))),
        ("random", rng.standard_normal((6, 4, d)), base),
    ]


@pytest.mark.parametrize("u, targets", [pytest.param(u, t, id=name)
                                         for name, u, t in screen_inputs()])
def test_screened_table_and_gradients_equal_the_full_table(monkeypatch, u, targets):
    head = CostHead(u.shape[-1], hidden=4, seed=21)
    seed = np.random.default_rng(22).standard_normal((u.shape[0], 3))
    assert_paths_equal(monkeypatch, u, targets, 5, head, seed)
    # a head whose deletion never wins sends every gradient through the minima
    table = assert_paths_equal(monkeypatch, u, targets, 5, ConstantCostHead(1e9), seed)
    assert np.isfinite(table).all()


def test_screen_keeps_every_minimum():
    rng = np.random.default_rng(26)
    # common offsets from none to far past the spread: the Gram error grows
    # from nothing to many times the distances it screens
    offsets = [(f"offset_{k}", 10.0 ** k + 1e-3 * rng.standard_normal((6, 4, 6)),
                10.0 ** k + 1e-3 * rng.standard_normal((15, 6))) for k in range(9)]
    for name, u, targets in screen_inputs() + offsets:
        b, m, _ = u.shape
        keep = hed_module._candidates(u, targets, 5)
        dist = np.sqrt(np.square(u[:, :, None] - targets).sum(axis=-1)).reshape(b, m, 3, 5)
        keep = keep.reshape(b, m, 3, 5)
        at_row_min = dist == dist.min(axis=3, keepdims=True)
        at_col_min = dist == dist.min(axis=1, keepdims=True)
        assert keep[at_row_min | at_col_min].all(), name
        if name == "random":
            assert keep.mean() < 0.5    # the screen does drop entries


def test_screen_keeps_nan_and_propagates_it(monkeypatch):
    rng = np.random.default_rng(23)
    u = rng.standard_normal((3, 4, 6))
    targets = rng.standard_normal((10, 6))
    u[1, 2, 3] = np.nan
    assert hed_module._candidates(u, targets, 5).all()
    seed = rng.standard_normal((3, 2))
    table = assert_paths_equal(monkeypatch, u, targets, 5, ConstantCostHead(1e9), seed)
    assert np.isnan(table[1]).all() and np.isfinite(table[[0, 2]]).all()
    targets[7, 0] = np.nan
    u[1, 2, 3] = 0.0
    table = assert_paths_equal(monkeypatch, u, targets, 5, ConstantCostHead(1e9), seed)
    assert np.isnan(table[:, 1]).all() and np.isfinite(table[:, 0]).all()


def test_nearest_takes_the_exact_table_where_nan_or_overflow_leave_no_bound(monkeypatch):
    # a NaN node, or squared norms that overflow, make the bound NaN or inf,
    # so every row of the call takes the exact table's argmin, which is the
    # first index in a NaN row
    rng = np.random.default_rng(29)
    u = rng.standard_normal((3, 4, 6))
    targets = rng.standard_normal((10, 6))
    nan_u = u.copy()
    nan_u[1, 2, 3] = np.nan
    forward, rows = hed_module._forward, []
    monkeypatch.setattr(hed_module, "_forward",
                        lambda x, *a, **kw: rows.append(len(x)) or forward(x, *a, **kw))
    head = ConstantCostHead(1e9)
    with np.errstate(over="ignore", invalid="ignore"):
        for x, t in ((nan_u, targets), (1e200 * u, 1e200 * targets)):
            exact = forward(x, t, 5, head)[0]
            assert np.array_equal(hed_module.nearest(x, t, 5, head), exact.argmin(axis=1))
    assert np.isnan(forward(nan_u, targets, 5, head)[0][1]).all()
    assert rows == [3, 3]


def test_screened_pair_equals_the_tape_oracle(monkeypatch):
    """`hed` is the one-row table, so a pair of at least `SCREEN_MIN_ENTRIES`
    entries is screened; values and assignments still equal the unscreened
    tape form bit for bit, tied and near-tied slots included."""
    calls = []
    screen = hed_module._candidates
    monkeypatch.setattr(hed_module, "_candidates", lambda *a: calls.append(1) or screen(*a))
    rng = np.random.default_rng(27)
    slots = rng.standard_normal((40, 6))
    slots[1] = slots[0]
    slots[3] = np.nextafter(slots[2], np.inf)
    pairs = [(u.reshape(-1, u.shape[-1]), targets) for _, u, targets in screen_inputs()]
    pairs.append((slots[rng.integers(0, 40, 40)] + 1e-15 * rng.standard_normal((40, 6)), slots))
    assert 40 * 40 >= hed_module.SCREEN_MIN_ENTRIES
    for limit in (hed_module.SCREEN_MIN_ENTRIES, 0):
        monkeypatch.setattr(hed_module, "SCREEN_MIN_ENTRIES", limit)
        for i, (u, targets) in enumerate(pairs):
            for head in (CostHead(6, hidden=4, seed=28), ConstantCostHead(0.05),
                         ConstantCostHead(1e9)):
                calls.clear()
                res, ref = hed(u, targets, head), tape_hed(u, targets, head)
                assert len(calls) == (limit == 0 or i == len(pairs) - 1)
                assert res.value == ref.value, i
                assert np.array_equal(res.forward_assignment, ref.forward_assignment), i
                assert np.array_equal(res.backward_assignment, ref.backward_assignment), i


@pytest.mark.parametrize("batch, expect_screen", [(1, False), (60, True)])
def test_dispatch_on_table_size(monkeypatch, batch, expect_screen):
    rng = np.random.default_rng(24)
    slots = 8
    u = rng.standard_normal((batch, slots, 5))
    targets = rng.standard_normal((4 * slots, 5))
    entries = batch * slots * 4 * slots
    assert (entries >= hed_module.SCREEN_MIN_ENTRIES) == expect_screen
    calls = []
    screen = hed_module._candidates
    monkeypatch.setattr(hed_module, "_candidates", lambda *a: calls.append(1) or screen(*a))
    table = hed_values_multi(u, targets, slots, CostHead(5, seed=25))
    assert len(calls) == expect_screen
    monkeypatch.setattr(hed_module, "SCREEN_MIN_ENTRIES", np.inf)
    full = hed_values_multi(u, targets, slots, CostHead(5, seed=25))
    assert np.array_equal(table, full)


def test_multi_refuses_bad_targets():
    head = ConstantCostHead(1.0)
    u = np.zeros((2, 3, 4))
    with pytest.raises(ConfigError, match="node dims differ"):
        hed_values_multi(u, np.zeros((6, 5)), 3, head)
    with pytest.raises(ValueError, match="slots"):
        hed_values_multi(u, np.zeros((7, 4)), 3, head)
    with pytest.raises(ValueError):
        hed_values_multi(u, np.zeros((0, 4)), 3, head)


# ------------------------------------------------------------ masked subsets

def kept_rows_table(u, targets, slots, head, keep):
    """Reference for a masked table: one unmasked table per kept node set."""
    return np.stack([[hed_values_multi(u[b, row][None], targets, slots, head)[0]
                      for row in keep[b]] for b in range(u.shape[0])])


@pytest.mark.parametrize("m", [5, 12])
def test_masked_rows_equal_tables_of_kept_rows(m):
    """Within 1e-12. With a constant cost head the rows are == below 8 nodes
    and for single-node masks: shorter sums run in order, so the zero terms
    of dropped nodes change nothing, while from 8 terms numpy sums pairwise
    and the zeros regroup the kept terms. The MLP head's costs can differ in
    the last bit, because BLAS rounds a row's product by the batch shape."""
    rng = np.random.default_rng(30)
    u = rng.standard_normal((3, m, 4))
    targets = rng.standard_normal((3 * 5, 4))
    keep = np.zeros((3, 4, m), dtype=bool)
    keep[:, 0, 0] = True                             # the global view alone
    keep[:, 1:3] = rng.random((3, 2, m)) < 0.5       # mixed subsets
    keep[:, 1:3, 0] = True
    keep[:, 3] = True                                # every node
    for head in (CostHead(4, hidden=5, seed=31), ConstantCostHead(0.3)):
        table = hed_values_multi(u, targets, 5, head, keep)
        expect = kept_rows_table(u, targets, 5, head, keep)
        assert table.shape == (3, 4, 3)
        np.testing.assert_allclose(table, expect, rtol=0, atol=1e-12)
    assert np.array_equal(table[:, 0], expect[:, 0])
    if m < 8:
        assert np.array_equal(table, expect)


def test_masked_all_node_row_equals_hed():
    rng = np.random.default_rng(32)
    for m in (3, 8, 16, 17):
        u = rng.standard_normal((2, m, 4))
        targets = rng.standard_normal((6, 4))
        keep = np.ones((2, 1, m), dtype=bool)
        for head in (ConstantCostHead(0.3), CostHead(4, hidden=5, seed=33)):
            table = hed_values_multi(u, targets, 6, head, keep)[:, 0, 0]
            expect = [hed(x, targets, head).value for x in u]
            if isinstance(head, ConstantCostHead):   # the same sums, in the same order
                assert table.tolist() == expect
            np.testing.assert_allclose(table, expect, rtol=0, atol=1e-12)


def test_masked_table_is_never_screened():
    """A subset's slot minimum can fall on an entry that is neither a row
    minimum nor an all-node column minimum, which `_candidates` drops."""
    rng = np.random.default_rng(34)
    b, m, count, slots, d = 4, 8, 6, 8, 5
    targets = rng.standard_normal((count * slots, d))
    u = 10.0 * rng.standard_normal((b, m, d))
    u[:, 1] = targets[0] + 1e-6 * rng.standard_normal((b, d))   # slot 0's minimum
    u[:, 2] = targets[1] + 1e-6 * rng.standard_normal((b, d))   # next to slot 1
    assert b * m * count * slots >= hed_module.SCREEN_MIN_ENTRIES
    assert not hed_module._candidates(u, targets, slots)[:, 2, 0].any()
    keep = np.zeros((b, 1, m), dtype=bool)
    keep[:, 0, [0, 2]] = True                        # node 1 dropped
    for head in (ConstantCostHead(1e3), CostHead(d, hidden=4, seed=35)):
        table = hed_values_multi(u, targets, slots, head, keep)
        expect = kept_rows_table(u, targets, slots, head, keep)
        np.testing.assert_allclose(table, expect, rtol=0, atol=1e-12)


def test_masked_table_refuses_bad_masks():
    head = ConstantCostHead(1.0)
    u = np.zeros((2, 3, 4))
    targets = np.zeros((6, 4))
    for keep in (np.ones((2, 3), dtype=bool), np.ones((2, 1, 4), dtype=bool),
                 np.ones((1, 1, 3), dtype=bool), np.zeros((2, 1, 3), dtype=bool)):
        with pytest.raises(ValueError, match="keep"):
            hed_values_multi(u, targets, 3, head, keep)


# ------------------------------------------------------- the tape oracle

def oracle_cases():
    """(instances (B, m, d), stacked targets (C*slots, d), slots, head): small
    and screened tables, ties, repeated nodes and each kind of head."""
    rng = np.random.default_rng(40)
    cases = []
    for draw in range(40):
        b, m, count, slots, d = (int(rng.integers(1, n)) for n in (9, 9, 6, 9, 7))
        targets = rng.standard_normal((count * slots, d))
        u = rng.standard_normal((b, m, d)) * rng.choice([0.3, 1.0, 3.0])
        if draw % 4 == 1:       # instances seeded from the targets: zero distances
            u = targets[rng.integers(0, count * slots, (b, m))].copy()
        if draw % 4 == 2:       # rounded: ties between slots and between nodes
            u, targets = np.round(u, 0), np.round(targets, 0)
        head = (CostHead(d, hidden=int(rng.integers(1, 6)), seed=draw), ConstantCostHead(0.7),
                LinearCostHead(rng.standard_normal(d)))[draw % 3]
        cases.append((u, targets, slots, head))
    big = np.random.default_rng(41).standard_normal((8, 8, 5))
    cases.append((big, big[:4].reshape(-1, 5), 8, CostHead(5, hidden=4, seed=42)))
    assert 8 * 8 * 32 >= hed_module.SCREEN_MIN_ENTRIES
    return cases


def test_tables_and_pair_values_equal_the_tape_oracle_bit_for_bit():
    # the same numpy operations in the same order: unmasked, masked and
    # single-pair values equal the tape forms exactly
    rng = np.random.default_rng(43)
    for i, (u, targets, slots, head) in enumerate(oracle_cases()):
        assert np.array_equal(hed_values_multi(u, targets, slots, head),
                              tape_table(u, targets, slots, head)), i
        keep = rng.random((u.shape[0], 3, u.shape[1])) < 0.5
        keep[:, :, 0] |= ~keep.any(axis=2)
        assert np.array_equal(hed_values_multi(u, targets, slots, head, keep),
                              tape_table(u, targets, slots, head, keep)), i
        res, ref = hed(u[0], targets[:slots], head), tape_hed(u[0], targets[:slots], head)
        assert res.value == ref.value, i
        assert np.array_equal(res.forward_assignment, ref.forward_assignment), i
        assert np.array_equal(res.backward_assignment, ref.backward_assignment), i


def test_closed_form_gradients_equal_the_tape_oracle():
    # instance and cost-head gradients of sum(seed * table) within 1e-12 of
    # the largest oracle entry; a masked table is value-only and refuses a Var
    rng = np.random.default_rng(44)
    for i, (u, targets, slots, head) in enumerate(oracle_cases()):
        keep = rng.random((u.shape[0], 3, u.shape[1])) < 0.5
        keep[:, :, 0] |= ~keep.any(axis=2)
        with pytest.raises(ValueError, match="value-only"):
            hed_values_multi(ad.Var(u.copy(), requires_grad=True), targets, slots, head, keep)
        seed = rng.standard_normal((u.shape[0], targets.shape[0] // slots))
        grads = []
        for table in (hed_values_multi, tape_table):
            u_var = ad.Var(u.copy(), requires_grad=True)
            if isinstance(head, CostHead):
                head.zero_grads()
            out = table(u_var, targets, slots, head)
            ad.backward(out, seed)
            grads.append((out.value, u_var.grad,
                          head.grad_buffer.copy() if isinstance(head, CostHead) else None))
        (val, gu, gh), (ref_val, ref_gu, ref_gh) = grads
        assert np.array_equal(val, ref_val), i
        assert np.abs(gu - ref_gu).max() <= 1e-12 * np.abs(ref_gu).max(initial=0.0), i
        if gh is not None:
            assert np.abs(gh - ref_gh).max() <= 1e-12 * np.abs(ref_gh).max(initial=0.0), i


def test_no_grad_table_returns_an_array():
    u, targets, slots, head = oracle_cases()[0]
    assert type(hed_values_multi(u, targets, slots, head)) is np.ndarray
    assert isinstance(hed_values_multi(ad.Var(u), targets, slots, head), ad.Var)
