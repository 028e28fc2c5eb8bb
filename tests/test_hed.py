import importlib

import numpy as np
import pytest

from relviews import autodiff as ad
from relviews.errors import ConfigError
from relviews.hed import CostHead, hed, hed_values_multi
from tests.conftest import central_diff, rel_error
from tests.helpers import ConstantCostHead, LinearCostHead, exact_ged

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
    du, iv = head.costs(u), head.costs(v)
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


def multi_grads(u, targets, slots, head, seed):
    """hed_values_multi table and the gradients of sum(seed * table) w.r.t. the
    instances, the stacked targets and, for a CostHead, its tensors."""
    u_var, t_var = ad.leaf(u.copy()), ad.leaf(targets.copy())
    bound = head.bind(True)
    table = hed_values_multi(u_var, t_var, slots, bound)
    ad.backward(table, seed)
    head_grads = {}
    if isinstance(head, CostHead):
        head.zero_grads()
        bound.accumulate()
        head_grads = {name: g.copy() for name, g in head.grads.items()}
    return table.value, u_var.grad, t_var.grad, head_grads


def multi_value(u, targets, slots, head, seed):
    table = hed_values_multi(ad.constant(u), ad.constant(targets), slots, head.bind(False))
    return float((seed * table.value).sum())


def test_backward_zero_for_identical_graphs():
    # each instance repeats the nodes of its own class's proxy (m = 5, slots = 3)
    rng = np.random.default_rng(11)
    slots = 3
    targets = rng.standard_normal((2 * slots, 5))
    u = np.stack([targets[c * slots + np.array([0, 1, 2, 0, 1])] for c in range(2)])
    head = CostHead(5, seed=12)
    table, du, dt, hg = multi_grads(u, targets, slots, head, np.eye(2))
    assert table[0, 0] == 0.0 and table[1, 1] == 0.0
    assert np.all(du == 0.0) and np.all(dt == 0.0)
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


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(13)
    slots = 3
    u = 0.5 * rng.standard_normal((2, 4, 5))
    targets = 0.5 * rng.standard_normal((2 * slots, 5))
    head = CostHead(5, seed=14)
    seed = rng.standard_normal((2, 2))
    table, du, dt, hg = multi_grads(u, targets, slots, head, seed)
    # both branches occur, so the cost head gets a gradient
    dist = np.linalg.norm(u[:, :, None] - targets[None, None], axis=-1).reshape(2, 4, 2, slots)
    take_del = head.costs(u.reshape(-1, 5)).reshape(2, 4, 1) < 0.5 * dist.min(axis=3)
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


# ------------------------------------------------------ screened distance table

def assert_paths_equal(monkeypatch, u, targets, slots, head, seed):
    """`multi_grads` agrees bit for bit with every table screened and with
    every table full; returns the table."""
    screened, full = [], []
    for limit, out in ((0, screened), (np.inf, full)):
        monkeypatch.setattr(hed_module, "SCREEN_MIN_ENTRIES", limit)
        out.extend(multi_grads(u, targets, slots, head, seed))
    for a, b in zip(screened[:3], full[:3]):
        assert np.array_equal(a, b, equal_nan=True)
    assert screened[3].keys() == full[3].keys()
    for name in full[3]:
        assert np.array_equal(screened[3][name], full[3][name], equal_nan=True), name
    return full[0]


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
    table = hed_values_multi(ad.constant(u), ad.constant(targets), slots,
                             CostHead(5, seed=25).bind(False))
    assert len(calls) == expect_screen
    monkeypatch.setattr(hed_module, "SCREEN_MIN_ENTRIES", np.inf)
    full = hed_values_multi(ad.constant(u), ad.constant(targets), slots,
                            CostHead(5, seed=25).bind(False))
    assert np.array_equal(table.value, full.value)


def test_multi_refuses_bad_targets():
    head = ConstantCostHead(1.0).bind(False)
    u = ad.constant(np.zeros((2, 3, 4)))
    with pytest.raises(ConfigError, match="node dims differ"):
        hed_values_multi(u, ad.constant(np.zeros((6, 5))), 3, head)
    with pytest.raises(ValueError, match="slots"):
        hed_values_multi(u, ad.constant(np.zeros((7, 4))), 3, head)
    with pytest.raises(ValueError):
        hed_values_multi(u, ad.constant(np.zeros((0, 4))), 3, head)


# ------------------------------------------------------------ masked subsets

def kept_rows_table(u, targets, slots, head, keep):
    """Reference for a masked table: one unmasked table per kept node set."""
    return np.stack([[hed_values_multi(ad.constant(u[b, row][None]), ad.constant(targets),
                                       slots, head.bind(False)).value[0]
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
        table = hed_values_multi(ad.constant(u), ad.constant(targets), 5,
                                 head.bind(False), keep).value
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
            table = hed_values_multi(ad.constant(u), ad.constant(targets), 6,
                                     head.bind(False), keep).value[:, 0, 0]
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
        table = hed_values_multi(ad.constant(u), ad.constant(targets), slots,
                                 head.bind(False), keep).value
        expect = kept_rows_table(u, targets, slots, head, keep)
        np.testing.assert_allclose(table, expect, rtol=0, atol=1e-12)


def test_masked_table_refuses_bad_masks():
    head = ConstantCostHead(1.0).bind(False)
    u = ad.constant(np.zeros((2, 3, 4)))
    targets = ad.constant(np.zeros((6, 4)))
    for keep in (np.ones((2, 3), dtype=bool), np.ones((2, 1, 4), dtype=bool),
                 np.ones((1, 1, 3), dtype=bool), np.zeros((2, 1, 3), dtype=bool)):
        with pytest.raises(ValueError, match="keep"):
            hed_values_multi(u, targets, 3, head, keep)
