"""Finite-difference checks for every tape primitive."""
import warnings

import numpy as np
import pytest

from relviews import autodiff as ad
from tests.conftest import central_diff, rel_error
from tests.helpers import argmin_min, concat, gathered_pair_matrix, onehot_take_grad


def check_grad(build, shapes, seed=0, coords=6, step=1e-6, tol=1e-5):
    """build(list of Vars) -> scalar Var; compares grads to central FD."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    leaves = [ad.leaf(a.copy()) for a in arrays]
    out = build(leaves)
    ad.backward(out)
    for ai, arr in enumerate(arrays):
        flat_idx = rng.integers(0, arr.size, size=min(coords, arr.size))
        for fi in flat_idx:
            idx = np.unravel_index(fi, arr.shape)

            def fn(x, ai=ai, idx=idx):
                vals = [a.copy() for a in arrays]
                vals[ai] = x
                return float(build([ad.constant(v) for v in vals]).value)

            fd = central_diff(fn, arr, idx, step)
            an = leaves[ai].grad[idx]
            assert rel_error(fd, an) < tol, (ai, idx, fd, an)


def test_add_mul_broadcast():
    check_grad(lambda vs: ad.vsum(vs[0] * vs[1] + vs[0]), [(3, 4), (4,)])


def test_sub_div():
    check_grad(lambda vs: ad.vsum(vs[0] / (vs[1] * vs[1] + 2.0) - vs[1]),
               [(5,), (5,)])


def test_matmul():
    check_grad(lambda vs: ad.vsum(ad.matmul(vs[0], vs[1])), [(3, 4), (4, 2)])


def test_reshape_concat_gather():
    def build(vs):
        c = concat([vs[0], vs[1]], axis=1)
        g = ad.take(c, np.array([2, 0, 1, 2]))
        return ad.vsum(ad.reshape(g, (4 * 5,)))
    check_grad(build, [(3, 2), (3, 3)])


def test_sum_mean_axes():
    check_grad(lambda vs: ad.vsum(ad.vmean(vs[0], axis=0, keepdims=True) * vs[1]),
               [(4, 3), (1, 3)])


def test_elementwise_nonlinearities():
    check_grad(lambda vs: ad.vsum(ad.exp(vs[0]) + ad.tanh(vs[0]) + ad.softplus(vs[0])),
               [(7,)])
    check_grad(lambda vs: ad.vsum(ad.sqrt(ad.square(vs[0]) + 1.0)), [(6,)])


EXTREMES = np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 710.0, -710.0, 800.0, -800.0])


def test_softplus_matches_logaddexp_at_extremes():
    x = np.concatenate([EXTREMES, np.random.default_rng(1).normal(scale=20.0, size=200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = ad.softplus(ad.constant(x)).value
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
    leaf = ad.leaf(x.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ad.backward(ad.softplus(leaf), np.ones_like(x))
    assert np.array_equal(leaf.grad, mask_sigmoid(x))


def test_leaky_relu_slope():
    x = ad.leaf(np.array([-2.0, -0.5, 0.5, 3.0]))
    y = ad.vsum(ad.leaky_relu(x, 0.2))
    ad.backward(y)
    assert np.allclose(x.grad, [0.2, 0.2, 1.0, 1.0])


def test_reduce_min_routes_to_argmin():
    vals = np.array([[3.0, 1.0, 2.0], [0.5, 4.0, 0.5]])
    x = ad.leaf(vals.copy())
    y = ad.vsum(ad.reduce_min(x, axis=1))
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
            out = ad.reduce_min(ad.constant(value), axis)
            expect = argmin_min(value, axis)
            assert not out.requires_grad, name
            np.testing.assert_array_equal(out.value, expect, err_msg=name)
            assert np.array_equal(np.signbit(out.value), np.signbit(expect)), name


def test_where_select_routes_by_mask():
    a = ad.leaf(np.array([1.0, 2.0, 3.0]))
    b = ad.leaf(np.array([10.0, 20.0, 30.0]))
    cond = np.array([True, False, True])
    y = ad.vsum(ad.where_select(cond, a, b))
    ad.backward(y)
    assert np.array_equal(a.grad, [1.0, 0.0, 1.0])
    assert np.array_equal(b.grad, [0.0, 1.0, 0.0])


def test_grad_accumulates_over_reuse():
    x = ad.leaf(np.array([2.0]))
    y = x * x + x * 3.0
    ad.backward(y)
    assert np.allclose(x.grad, [2 * 2.0 + 3.0])


def test_constants_get_no_grad():
    c = ad.constant(np.ones(3))
    x = ad.leaf(np.ones(3))
    y = ad.vsum(c * x)
    ad.backward(y)
    assert c.grad is None
    assert np.allclose(x.grad, 1.0)


def test_backward_from_multiple_roots():
    x = ad.leaf(np.array([1.0, 2.0]))
    y1 = ad.vsum(ad.square(x))
    y2 = ad.vsum(x * 3.0)
    ad.backward_from([(y1, np.asarray(1.0)), (y2, np.asarray(2.0))])
    assert np.allclose(x.grad, 2.0 * x.value + 6.0)


def test_zero_upstream_gives_zero_grads():
    x = ad.leaf(np.ones((2, 2)))
    y = ad.vsum(ad.exp(x))
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
    leaf = ad.leaf(x.copy())
    y = ad.take(leaf, idx, axis=axis)
    assert np.array_equal(y.value, np.take(x, idx, axis=axis))
    g = rng.standard_normal(y.shape)
    ad.backward(y, g)
    assert np.array_equal(leaf.grad, onehot_take_grad(x.shape, idx, axis, g))


@pytest.mark.parametrize("n", [2, 3, 6])
def test_pair_matrix_equals_gathered_form(n):
    rng = np.random.default_rng(n)
    m = n * (n - 1) // 2
    vals = rng.standard_normal((2, 3, m, 1))
    vals[0, 0, 0, 0] = -abs(vals[0, 0, 0, 0])          # a negative value at row 0
    idx_i, idx_j = np.triu_indices(n, k=1)
    a, b = ad.leaf(vals.copy()), ad.leaf(vals.copy())
    got = ad.pair_matrix(a, idx_i, idx_j, n)
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
    (lambda a, b: (a + b) * a + (a + b) * b, [3.5, 2.0], [3.5, 2.0]),
    # z's backward hands one array to y and a as their first grads
    (lambda a, b: (a + b) + a, [2.0, 2.0], [1.0, 1.0]),
], ids=["shared_then_summed", "shared_first_grad"])
def test_shared_gradient_arrays_accumulate_exactly(build, grad_a, grad_b):
    a = ad.leaf(np.array([1.5, -2.0]))
    b = ad.leaf(np.array([0.25, 3.0]))
    ad.backward(build(a, b))
    assert np.array_equal(a.grad, grad_a)
    assert np.array_equal(b.grad, grad_b)
