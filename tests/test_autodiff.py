"""Checks of the tape's backward and the shared closed forms, and
finite-difference checks of the generic tape ops in `tests.helpers` that
the tape oracles use."""
import warnings

import numpy as np
import pytest

from relviews import autodiff as ad
from tests.conftest import central_diff, rel_error
from tests.helpers import (add, argmin_min, concat, constant, div, exp, gathered_pair_matrix,
                           leaky_relu, matmul, mul, onehot_take_grad, pair_matrix, pairwise_l2,
                           reduce_min, reshape, softplus, sqrt, square, sub, take, tanh, vmean,
                           vsum, where_select)


def check_grad(build, shapes, seed=0, coords=6, step=1e-6, tol=1e-5):
    """build(list of Vars) -> scalar Var; compares grads to central FD."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    leaves = [ad.Var(a.copy(), requires_grad=True) for a in arrays]
    out = build(leaves)
    ad.backward(out)
    for ai, arr in enumerate(arrays):
        flat_idx = rng.integers(0, arr.size, size=min(coords, arr.size))
        for fi in flat_idx:
            idx = np.unravel_index(fi, arr.shape)

            def fn(x, ai=ai, idx=idx):
                vals = [a.copy() for a in arrays]
                vals[ai] = x
                return float(build([constant(v) for v in vals]).value)

            fd = central_diff(fn, arr, idx, step)
            an = leaves[ai].grad[idx]
            assert rel_error(fd, an) < tol, (ai, idx, fd, an)


def test_add_mul_broadcast():
    check_grad(lambda vs: vsum(add(mul(vs[0], vs[1]), vs[0])), [(3, 4), (4,)])


def test_sub_div():
    check_grad(lambda vs: vsum(sub(div(vs[0], add(mul(vs[1], vs[1]), 2.0)), vs[1])),
               [(5,), (5,)])


def test_matmul():
    check_grad(lambda vs: vsum(matmul(vs[0], vs[1])), [(3, 4), (4, 2)])


def test_reshape_concat_gather():
    def build(vs):
        c = concat([vs[0], vs[1]], axis=1)
        g = take(c, np.array([2, 0, 1, 2]))
        return vsum(reshape(g, (4 * 5,)))
    check_grad(build, [(3, 2), (3, 3)])


def test_sum_mean_axes():
    check_grad(lambda vs: vsum(mul(vmean(vs[0], axis=0, keepdims=True), vs[1])),
               [(4, 3), (1, 3)])


def test_elementwise_nonlinearities():
    check_grad(lambda vs: vsum(add(add(exp(vs[0]), tanh(vs[0])), softplus(vs[0]))),
               [(7,)])
    check_grad(lambda vs: vsum(sqrt(add(square(vs[0]), 1.0))), [(6,)])


EXTREMES = np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 710.0, -710.0, 800.0, -800.0])


def test_softplus_matches_logaddexp_at_extremes():
    x = np.concatenate([EXTREMES, np.random.default_rng(1).normal(scale=20.0, size=200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = softplus(constant(x)).value
    np.testing.assert_array_max_ulp(y, np.logaddexp(0.0, x), maxulp=2)


def mask_sigmoid(x):
    """Reference logistic function, each sign branch on its own elements."""
    out = np.empty_like(x)
    p = x >= 0
    out[p] = 1.0 / (1.0 + np.exp(-x[p]))
    ex = np.exp(x[~p])
    out[~p] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_mask_form():
    x = np.concatenate([EXTREMES, np.random.default_rng(2).normal(scale=20.0, size=200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(ad._sigmoid(x, np.exp(-np.abs(x))), mask_sigmoid(x))


def test_softplus_backward_is_the_mask_form_sigmoid():
    # with g = 1 the gradient is the sigmoid itself, from the forward's exp(-|x|)
    x = np.concatenate([EXTREMES, np.random.default_rng(2).normal(scale=20.0, size=200)])
    x_var = ad.Var(x.copy(), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ad.backward(softplus(x_var), np.ones_like(x))
    assert np.array_equal(x_var.grad, mask_sigmoid(x))


def test_leaky_relu_slope():
    x = ad.Var(np.array([-2.0, -0.5, 0.5, 3.0]), requires_grad=True)
    y = vsum(leaky_relu(x, 0.2))
    ad.backward(y)
    assert np.allclose(x.grad, [0.2, 0.2, 1.0, 1.0])


def test_reduce_min_routes_to_argmin():
    vals = np.array([[3.0, 1.0, 2.0], [0.5, 4.0, 0.5]])
    x = ad.Var(vals.copy(), requires_grad=True)
    y = vsum(reduce_min(x, axis=1))
    ad.backward(y)
    expect = np.zeros_like(vals)
    expect[0, 1] = 1.0
    expect[1, 0] = 1.0  # tie resolved to the lowest index
    assert np.array_equal(x.grad, expect)


@pytest.mark.parametrize("axis", [0, 1])
def test_no_grad_reduce_min_equals_argmin_form(axis):
    rng = np.random.default_rng(31)
    inf, nan = np.inf, np.nan
    cases = {
        "random": rng.standard_normal((6, 7)),
        "tied": np.array([[2.0, 1.0, 1.0, 3.0], [0.0, 0.0, 5.0, 0.0],
                          [4.0, 4.0, 4.0, 4.0], [1.5, 0.0, 0.0, 1.5]]),
        "inf": np.array([[inf, inf, inf], [inf, 2.0, inf], [3.0, inf, 1.0], [inf, inf, 0.0]]),
        "nan": np.array([[nan, 1.0, 0.5], [1.0, nan, inf], [inf, 2.0, nan],
                         [nan, nan, nan], [0.0, 3.0, 1.0]]),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, value in cases.items():
            out = reduce_min(constant(value), axis)
            expect = argmin_min(value, axis)
            assert not out.requires_grad, name
            np.testing.assert_array_equal(out.value, expect, err_msg=name)
            assert np.array_equal(np.signbit(out.value), np.signbit(expect)), name


def test_where_select_routes_by_mask():
    a = ad.Var(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    b = ad.Var(np.array([10.0, 20.0, 30.0]), requires_grad=True)
    cond = np.array([True, False, True])
    y = vsum(where_select(cond, a, b))
    ad.backward(y)
    assert np.array_equal(a.grad, [1.0, 0.0, 1.0])
    assert np.array_equal(b.grad, [0.0, 1.0, 0.0])


def test_grad_accumulates_over_reuse():
    x = ad.Var(np.array([2.0]), requires_grad=True)
    y = add(mul(x, x), mul(x, 3.0))
    ad.backward(y)
    assert np.allclose(x.grad, [2 * 2.0 + 3.0])


def test_constants_get_no_grad():
    c = constant(np.ones(3))
    x = ad.Var(np.ones(3), requires_grad=True)
    y = vsum(mul(c, x))
    ad.backward(y)
    assert c.grad is None
    assert np.allclose(x.grad, 1.0)


def test_zero_upstream_gives_zero_grads():
    x = ad.Var(np.ones((2, 2)), requires_grad=True)
    y = vsum(exp(x))
    ad.backward(y, np.asarray(0.0))
    assert np.all(x.grad == 0.0)


@pytest.mark.parametrize("shape, axis", [((4, 4, 4), 0), ((4, 4, 4), 1), ((4, 4, 4), 2),
                                         ((3, 5, 4), -1), ((4, 5, 3), -3)],
                         ids=["cube0", "cube1", "cube2", "last", "first"])
@pytest.mark.parametrize("idx", [[3, 0, 2], [0, 1, 2, 3], [2, 0, 2, 1, 2, 2]],
                         ids=["unique", "all", "repeated"])
def test_take_backward_equals_one_hot_form(shape, axis, idx):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(shape)
    x_var = ad.Var(x.copy(), requires_grad=True)
    y = take(x_var, idx, axis=axis)
    assert np.array_equal(y.value, np.take(x, idx, axis=axis))
    g = rng.standard_normal(y.shape)
    ad.backward(y, g)
    assert np.array_equal(x_var.grad, onehot_take_grad(x.shape, idx, axis, g))


@pytest.mark.parametrize("n", [2, 3, 6])
def test_pair_matrix_equals_gathered_form(n):
    rng = np.random.default_rng(n)
    m = n * (n - 1) // 2
    vals = rng.standard_normal((2, 3, m, 1))
    vals[0, 0, 0, 0] = -abs(vals[0, 0, 0, 0])          # a negative value at row 0
    idx_i, idx_j = np.triu_indices(n, k=1)
    a, b = ad.Var(vals.copy(), requires_grad=True), ad.Var(vals.copy(), requires_grad=True)
    got = pair_matrix(a, idx_i, idx_j, n)
    ref = gathered_pair_matrix(b, n)
    assert np.array_equal(got.value, ref.value)
    assert np.array_equal(got.value, np.swapaxes(got.value, -1, -2))
    assert np.all(np.diagonal(got.value, axis1=-2, axis2=-1) == 0.0)
    g = rng.standard_normal(got.shape)
    ad.backward(got, g)
    ad.backward(ref, g)
    assert np.array_equal(a.grad, b.grad)


@pytest.mark.parametrize("build, grad_a, grad_b", [
    # y's backward hands one array to a and b, whose grads then grow again
    (lambda a, b: add(mul(add(a, b), a), mul(add(a, b), b)), [3.5, 2.0], [3.5, 2.0]),
    # z's backward hands one array to y and a as their first grads
    (lambda a, b: add(add(a, b), a), [2.0, 2.0], [1.0, 1.0]),
], ids=["shared_then_summed", "shared_first_grad"])
def test_shared_gradient_arrays_accumulate_exactly(build, grad_a, grad_b):
    a = ad.Var(np.array([1.5, -2.0]), requires_grad=True)
    b = ad.Var(np.array([0.25, 3.0]), requires_grad=True)
    ad.backward(build(a, b))
    assert np.array_equal(a.grad, grad_a)
    assert np.array_equal(b.grad, grad_b)


@pytest.mark.parametrize("gap", [0.0, 1e-300, 1e-18, 1e-8])
def test_pairwise_l2_gradient_rows_stay_bounded_near_zero(gap):
    # row 1 of u sits `gap` from row 2 of v, the other pairs at the nodes'
    # scale of 1e-3; no gradient row may exceed the sum of |g| over its
    # distances, and a pair closer than rounding (64 eps (|u| + |v|), about
    # 7e-17 here: the first three gaps) gets none
    rng = np.random.default_rng(41)
    u, v = rng.standard_normal((3, 6)) * 1e-3, rng.standard_normal((4, 6)) * 1e-3
    direction = rng.standard_normal(6)
    u[1] = v[2] + gap * direction / np.linalg.norm(direction)
    g = rng.standard_normal((3, 4))
    g0 = g.copy()
    g0[1, 2] = 0.0                   # the same upstream without the close pair
    grads = []
    for seed in (g, g0):
        u_var, v_var = ad.Var(u.copy(), requires_grad=True), ad.Var(v.copy(), requires_grad=True)
        dist = pairwise_l2(u_var, v_var)
        ad.backward(dist, seed)
        # the tables' closed form is the tape's u gradient
        assert np.array_equal(ad.pairwise_l2_grad(seed, dist.value, u, v), u_var.grad)
        grads.append((u_var.grad, v_var.grad))
    (gu, gv), (gu0, gv0) = grads
    assert np.all(np.linalg.norm(gu, axis=1) <= np.abs(g).sum(axis=1) * (1 + 1e-9))
    assert np.all(np.linalg.norm(gv, axis=1) <= np.abs(g).sum(axis=0) * (1 + 1e-9))
    dist = np.linalg.norm(u[1] - v[2])
    if gap < 1e-12:
        assert 0.0 <= dist < 1e-17
        assert np.array_equal(gu, gu0) and np.array_equal(gv, gv0)
    else:
        unit = g[1, 2] * (u[1] - v[2]) / dist
        np.testing.assert_allclose(gu[1] - gu0[1], unit, rtol=0, atol=1e-6 * abs(g[1, 2]))
        np.testing.assert_allclose(gv0[2] - gv[2], unit, rtol=0, atol=1e-6 * abs(g[1, 2]))


@pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 7)])
def test_pairwise_l2_candidate_blocks_equal_one_block(monkeypatch, blocks, extra):
    # 0, 1, block - 1, block, block + 1 and 2 block + 7 candidates: every
    # entry equals the one-block pass's bit for bit, the full table's where
    # computed, and every other entry is +inf
    count = blocks * ad._CANDIDATE_BLOCK + extra
    rng = np.random.default_rng(43)
    u, v = rng.standard_normal((3, 40, 8)), rng.standard_normal((50, 8))
    where = np.zeros((3, 40, 50), dtype=bool)
    where.flat[rng.choice(where.size, count, replace=False)] = True
    blocked = ad.pairwise_l2(u, v, where)
    monkeypatch.setattr(ad, "_CANDIDATE_BLOCK", where.size)
    assert np.array_equal(blocked, ad.pairwise_l2(u, v, where))
    assert np.array_equal(blocked[where], ad.pairwise_l2(u, v)[where])
    assert (blocked[~where] == np.inf).all()
