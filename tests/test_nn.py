import sys
import threading
import tracemalloc

import numpy as np
import pytest

import oracles
from elastic_tickets import arch, nn
from elastic_tickets.errors import ConfigError, ShapeError, UsageError
from elastic_tickets.tensor import Rng
from support import randint_below

REL_TOL = 1e-6
FD_H = 1e-4


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-30)
    return np.linalg.norm(a - b) / denom


def margin_normal(rng, shape, margin=0.05):
    """Normal draws pushed away from zero so ReLU/max kinks stay > FD_H away."""
    x = rng.normal64("init", int(np.prod(shape))).reshape(shape)
    return x + np.sign(x) * margin


def check_param_grad(loss_fn, theta, analytic):
    fd = oracles.oracle_fd_grad(loss_fn, theta.copy(), FD_H)
    assert rel_err(analytic, fd) <= REL_TOL


# ---------------------------------------------------------------------------
# per-layer finite-difference checks (64-bit, central differences)


@pytest.mark.parametrize("i", range(20))
def test_dense_grads(i):
    rng = Rng(1000 + i)
    n, d_in, d_out = [2 + randint_below(rng, "init", 4) for _ in range(3)]
    x = rng.normal64("init", n * d_in).reshape(n, d_in)
    w = rng.normal64("init", d_in * d_out).reshape(d_in, d_out)
    b = rng.normal64("init", d_out)
    r = rng.normal64("init", n * d_out).reshape(n, d_out)
    y, cache = nn._dense_f(x, w, b)
    dx, dw, db = nn._dense_b(cache, r)
    check_param_grad(lambda th: float((nn._dense_f(x, th.reshape(w.shape), b)[0] * r).sum()), w.ravel(), dw)
    check_param_grad(lambda th: float((nn._dense_f(x, w, th)[0] * r).sum()), b.copy(), db)
    check_param_grad(lambda th: float((nn._dense_f(th.reshape(x.shape), w, b)[0] * r).sum()), x.ravel(), dx)


@pytest.mark.parametrize("i", range(20))
def test_conv_grads(i):
    rng = Rng(2000 + i)
    n = 1 + randint_below(rng, "init", 2)
    c = 1 + randint_below(rng, "init", 3)
    f = 1 + randint_below(rng, "init", 3)
    side = 4 + randint_below(rng, "init", 3)
    stride = 1 + randint_below(rng, "init", 2)
    pad = randint_below(rng, "init", 2)
    k = 1 if (side + 2 * pad) < 3 else (1 + 2 * randint_below(rng, "init", 2))
    x = rng.normal64("init", n * side * side * c).reshape(n, side, side, c)
    w = rng.normal64("init", f * c * k * k).reshape(f, c, k, k)
    y, cache = nn._conv_f(x, w, stride, pad)
    r = rng.normal64("init", y.size).reshape(y.shape)
    dx, dw = nn._conv_b(cache, r)
    check_param_grad(lambda th: float((nn._conv_f(x, th.reshape(w.shape), stride, pad)[0] * r).sum()),
                     w.ravel(), dw)
    check_param_grad(lambda th: float((nn._conv_f(th.reshape(x.shape), w, stride, pad)[0] * r).sum()),
                     x.ravel(), dx)


@pytest.mark.parametrize("i", range(20))
@pytest.mark.parametrize("spatial", [False, True])
def test_batchnorm_grads(i, spatial):
    rng = Rng(3000 + i)
    ch = 2 + randint_below(rng, "init", 3)
    if spatial:
        shape = (3, 4, 4, ch)
    else:
        shape = (8, ch)
    x = rng.normal64("init", int(np.prod(shape))).reshape(shape)
    gamma = 0.5 + rng.uniform64("init", ch)
    beta = rng.normal64("init", ch)
    rmean = np.zeros(ch)
    rvar = np.ones(ch)
    r = rng.normal64("init", int(np.prod(shape))).reshape(shape)

    def out(xv, g, b, mode):
        y, _, _, _ = nn._bn_f(xv, g, b, rmean, rvar, mode)
        return float((y * r).sum())

    for mode in ("train", "eval"):
        y, cache, _, _ = nn._bn_f(x, gamma, beta, rmean, rvar, mode)
        dx, dg, db = nn._bn_b(cache, r)
        check_param_grad(lambda th: out(th.reshape(shape), gamma, beta, mode), x.ravel(), dx)
        check_param_grad(lambda th: out(x, th, beta, mode), gamma.copy(), dg)
        check_param_grad(lambda th: out(x, gamma, th, mode), beta.copy(), db)


@pytest.mark.parametrize("i", range(20))
def test_relu_grads(i):
    rng = Rng(4000 + i)
    shape = (3, 5 + i % 3)
    x = margin_normal(rng, shape)
    r = rng.normal64("init", int(np.prod(shape))).reshape(shape)
    y, cache = nn._relu_f(x)
    dx = nn._relu_b(cache, r)
    check_param_grad(lambda th: float((nn._relu_f(th.reshape(shape))[0] * r).sum()), x.ravel(), dx)


@pytest.mark.parametrize("i", range(20))
def test_maxpool_grads(i):
    rng = Rng(5000 + i)
    shape = (2, 4, 4, 2 + i % 2)
    # separate entries so the argmax winner is stable under the FD perturbation
    x = rng.permutation("init", int(np.prod(shape))).astype(np.float64).reshape(shape) * 0.01
    r = rng.normal64("init", int(np.prod(shape)) // 4).reshape(shape[0], 2, 2, shape[3])
    y, cache = nn._maxpool2x2_f(x)
    dx = nn._maxpool2x2_b(cache, r)
    check_param_grad(lambda th: float((nn._maxpool2x2_f(th.reshape(shape))[0] * r).sum()),
                     x.ravel(), dx)


@pytest.mark.parametrize("i", range(20))
def test_global_avgpool_grads(i):
    rng = Rng(6000 + i)
    shape = (2, 3, 3, 2 + i % 3)
    x = rng.normal64("init", int(np.prod(shape))).reshape(shape)
    r = rng.normal64("init", shape[0] * shape[3]).reshape(shape[0], shape[3])
    y, cache = nn._gap_f(x)
    dx = nn._gap_b(cache, r)
    check_param_grad(lambda th: float((nn._gap_f(th.reshape(shape))[0] * r).sum()), x.ravel(), dx)


@pytest.mark.parametrize("i", range(20))
def test_residual_add_grads(i):
    # addition of two branches: gradient passes through unchanged to both
    rng = Rng(7000 + i)
    shape = (2, 3, 3, 4)
    a = rng.normal64("init", int(np.prod(shape))).reshape(shape)
    b = rng.normal64("init", int(np.prod(shape))).reshape(shape)
    r = rng.normal64("init", int(np.prod(shape))).reshape(shape)
    check_param_grad(lambda th: float(((th.reshape(shape) + b) * r).sum()), a.ravel(), r)
    check_param_grad(lambda th: float(((a + th.reshape(shape)) * r).sum()), b.ravel(), r)


@pytest.mark.parametrize("i", range(20))
def test_softmax_cross_entropy_grads(i):
    rng = Rng(8000 + i)
    n, k = 3 + i % 3, 2 + i % 4
    logits = rng.normal64("init", n * k).reshape(n, k)
    labels = np.array([randint_below(rng, "init", k) for _ in range(n)])
    loss, dlogits = nn.softmax_cross_entropy(logits, labels)
    check_param_grad(lambda th: nn.softmax_cross_entropy(th.reshape(n, k), labels)[0],
                     logits.ravel(), dlogits)


def test_fd_error_shrinks_quadratically():
    rng = Rng(42)
    x = margin_normal(rng, (4, 6))
    w = rng.normal64("init", 6 * 3).reshape(6, 3)
    labels = np.array([0, 1, 2, 0])

    def loss(th):
        y = x @ th.reshape(6, 3)
        return nn.softmax_cross_entropy(np.maximum(y, 0), labels)[0]

    a = arch.mlp_arch([6, 3])
    exact = oracles.oracle_fd_grad(loss, w.ravel(), 1e-6)
    e1 = np.linalg.norm(oracles.oracle_fd_grad(loss, w.ravel(), 4e-3) - exact)
    e2 = np.linalg.norm(oracles.oracle_fd_grad(loss, w.ravel(), 2e-3) - exact)
    assert e1 / max(e2, 1e-18) > 3.0  # central differences converge at order 2


# ---------------------------------------------------------------------------
# whole-network forward/backward


def test_zero_network_zero_logits():
    a = arch.mlp_arch([6, 5, 4])
    params = {k: np.zeros_like(v) for k, v in arch.init_params(a, Rng(1)).items()}
    x = Rng(2).normal64("init", 3 * 6).reshape(3, 6).astype(np.float32)
    logits, _ = nn.forward(a, params, x, "eval")
    assert np.array_equal(logits, np.zeros((3, 4), np.float32))


def test_two_layer_dense_vs_scalar_oracle():
    a = arch.mlp_arch([5, 4, 3])
    params = arch.init_params(a, Rng(3))
    x = Rng(4).normal64("init", 3 * 5).reshape(3, 5).astype(np.float32)
    logits, _ = nn.forward(a, params, x, "eval")
    ref = oracles.oracle_forward_scalar(
        [{"kind": "dense", "w": params["layer0/weight"], "b": params["layer0/bias"]},
         {"kind": "relu"},
         {"kind": "dense", "w": params["layer1/weight"], "b": params["layer1/bias"]}], x)
    assert np.abs(logits - ref).max() <= 1e-6


def test_forward_vs_scalar_oracle_many_random_mlps():
    for i in range(50):
        rng = Rng(9000 + i)
        widths = [2 + randint_below(rng, "init", 5) for _ in range(3)]
        a = arch.mlp_arch(widths)
        params = arch.init_params(a, rng)
        x = rng.normal64("init", 2 * widths[0]).reshape(2, widths[0]).astype(np.float32)
        logits, _ = nn.forward(a, params, x, "eval")
        layers = []
        for k in range(len(widths) - 1):
            layers.append({"kind": "dense", "w": params[f"layer{k}/weight"],
                           "b": params[f"layer{k}/bias"]})
            if k < len(widths) - 2:
                layers.append({"kind": "relu"})
        ref = oracles.oracle_forward_scalar(layers, x)
        assert np.abs(logits - ref).max() <= 1e-5


def test_batchnorm_train_mode_normalizes():
    a = arch.derive_arch("resnet_cifar", 8, input_shape=(3, 8, 8))
    params = arch.init_params(a, Rng(5))
    params["input/bn/gamma"] = np.full(16, 1.7, np.float32)
    params["input/bn/beta"] = np.full(16, -0.3, np.float32)
    x = Rng(6).normal64("init", 8 * 3 * 8 * 8).reshape(8, 3, 8, 8)
    xh = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    h, _ = nn._conv_f(xh, params["input/conv/weight"].astype(np.float64), 1, 1)
    y, _, _, _ = nn._bn_f(h, params["input/bn/gamma"].astype(np.float64),
                          params["input/bn/beta"].astype(np.float64),
                          np.zeros(16), np.ones(16), "train")
    mean = y.mean(axis=(0, 1, 2))
    std = y.std(axis=(0, 1, 2))
    assert np.abs(mean - (-0.3)).max() < 1e-4
    assert np.abs(std - 1.7).max() < 1e-4

def test_batchnorm_eval_is_affine():
    ch = 4
    gamma = np.array([1.0, 2.0, 0.5, -1.0])
    beta = np.array([0.0, 1.0, -2.0, 0.25])
    rmean = np.array([0.1, -0.2, 0.0, 2.0])
    rvar = np.array([1.0, 4.0, 0.25, 9.0])
    x = Rng(7).normal64("init", 6 * ch).reshape(6, ch)
    y1, _, _, _ = nn._bn_f(x, gamma, beta, rmean, rvar, "eval")
    scale = gamma / np.sqrt(rvar + nn.BN_EPS)
    y2 = scale * x + (beta - scale * rmean)
    assert np.abs(y1 - y2).max() < 1e-12
    y3, _, _, _ = nn._bn_f(x, gamma, beta, rmean, rvar, "eval")
    assert np.array_equal(y1, y3)


# the BN inputs of the presets' ResNets at their batches (100, 128 and the
# 500-image stats pass), VGG-16 at 128, and odd shapes
@pytest.mark.parametrize("shape", [(100, 32, 32, 16), (100, 16, 16, 32), (100, 8, 8, 64),
                                   (128, 32, 32, 16), (500, 8, 8, 64), (128, 16, 16, 128),
                                   (128, 2, 2, 512), (7, 5, 3, 3), (128, 512), (37, 10)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_batch_moments_bit_equal_to_numpy(shape, dtype):
    ch = shape[-1]
    rng = Rng(9)
    x = (rng.normal64("init", int(np.prod(shape))) * 3 + 1).reshape(shape).astype(dtype)
    gamma = (0.5 + rng.uniform64("init", ch)).astype(dtype)
    beta = rng.normal64("init", ch).astype(dtype)
    rmean, rvar = np.zeros(ch, np.float32), np.ones(ch, np.float32)
    axes = tuple(range(x.ndim - 1))
    mean, var = x.mean(axis=axes), x.var(axis=axes)
    _, _, (got_mean, m), (got_var, _) = nn._bn_f(x, gamma, beta, rmean, rvar, "collect")
    assert m == x.size // ch
    assert np.array_equal(got_mean, mean) and np.array_equal(got_var, var)
    invstd = 1.0 / np.sqrt(var + nn.BN_EPS)
    xhat = (x - mean) * invstd
    y, (got_xhat, got_invstd, *_), new_rmean, new_rvar = nn._bn_f(
        x, gamma, beta, rmean, rvar, "train")
    assert np.array_equal(got_xhat, xhat) and np.array_equal(got_invstd, invstd)
    assert np.array_equal(y, gamma * xhat + beta)
    unbiased = var * (m / (m - 1))
    assert np.array_equal(new_rvar, ((1 - nn.BN_MOMENTUM) * rvar
                                     + nn.BN_MOMENTUM * unbiased).astype(np.float32))
    assert np.array_equal(new_rmean, ((1 - nn.BN_MOMENTUM) * rmean
                                      + nn.BN_MOMENTUM * mean).astype(np.float32))


def test_backward_rejects_eval_cache():
    a = arch.mlp_arch([4, 3])
    params = arch.init_params(a, Rng(8))
    x = np.zeros((2, 4), np.float32)
    _, cache = nn.forward(a, params, x, "eval")
    with pytest.raises(UsageError):
        nn.backward(a, cache, np.zeros((2, 3), np.float32))


def test_vgg_whole_network_gradient_spot_check():
    # maxpool + flatten + fc-head path, finite differences on sampled coords
    a = arch.derive_arch("vgg_cifar", [1, 1, 1, 1, 1], head_layers=2,
                         input_shape=(1, 32, 32))
    params = {k: v.astype(np.float64) for k, v in arch.init_params(a, Rng(40)).items()}
    rng = Rng(41)
    x = rng.normal64("init", 2 * 1 * 32 * 32).reshape(2, 1, 32, 32)
    labels = np.array([3, 7])
    _, _, grads, _ = nn.loss_and_grad(a, params, x, labels, "train")
    h = 1e-5
    for path in ("stage0/unit0/conv/weight", "stage4/unit0/bn/gamma",
                 "output/fc0/bias", "output/fc1/weight"):
        flat = params[path].ravel()
        for _ in range(6):
            i = randint_below(rng, "init", flat.size)
            orig = flat[i]
            flat[i] = orig + h
            up = nn.loss_and_grad(a, params, x, labels, "train")[0]
            flat[i] = orig - h
            down = nn.loss_and_grad(a, params, x, labels, "train")[0]
            flat[i] = orig
            fd = (up - down) / (2 * h)
            got = grads[path].ravel()[i]
            assert abs(got - fd) <= 1e-6 * max(abs(got), abs(fd), 1e-3), (path, i)


def test_zero_upstream_gradient_gives_zero_grads():
    a = arch.derive_arch("resnet_cifar", 8, input_shape=(3, 8, 8))
    params = arch.init_params(a, Rng(9))
    x = Rng(10).normal64("init", 2 * 3 * 8 * 8).reshape(2, 3, 8, 8).astype(np.float32)
    _, cache = nn.forward(a, params, x, "train")
    grads = nn.backward(a, cache, np.zeros((2, 10), np.float32))
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())


def test_forward_shape_mismatch():
    a = arch.derive_arch("resnet_cifar", 8)
    params = arch.init_params(a, Rng(14))
    with pytest.raises(ShapeError):
        nn.forward(a, params, np.zeros((2, 3, 16, 16), np.float32), "eval")


def test_forward_mode_validation():
    a = arch.mlp_arch([4, 2])
    params = arch.init_params(a, Rng(15))
    with pytest.raises(ConfigError):
        nn.forward(a, params, np.zeros((1, 4), np.float32), "predict")


# ---------------------------------------------------------------------------
# im2col and tape bookkeeping: same floats as the per-offset copy loop


def loop_im2col(x_pad, kh, kw, stride, h_out, w_out):
    """Reference im2col: one strided slice copy per kernel offset."""
    n, c = x_pad.shape[0], x_pad.shape[3]
    cols = np.empty((n, h_out, w_out, kh, kw, c), dtype=x_pad.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j, :] = x_pad[:, i : i + stride * h_out : stride,
                                           j : j + stride * w_out : stride, :]
    return cols.reshape(n * h_out * w_out, kh * kw * c)


@pytest.mark.parametrize("side", [7, 8])
@pytest.mark.parametrize("k, pad, stride", [(3, 1, 1), (3, 1, 2), (1, 0, 2)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_im2col_matches_loop(side, k, pad, stride, dtype):
    x = Rng(50 + side).normal64("init", 2 * side * side * 5).reshape(2, side, side, 5).astype(dtype)
    x_pad = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    h_out = (side + 2 * pad - k) // stride + 1
    got = nn._im2col(x_pad, k, k, stride, h_out, h_out)
    want = loop_im2col(x_pad, k, k, stride, h_out, h_out)
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize("family, depth, input_shape", [
    ("resnet_cifar", 8, (3, 8, 8)),
    ("vgg_cifar", 13, (3, 32, 32)),
])
def test_eval_logits_bit_equal_to_loop_im2col(monkeypatch, family, depth, input_shape):
    a = arch.derive_arch(family, depth, input_shape=input_shape)
    params = arch.init_params(a, Rng(51))
    x = Rng(52).normal64("init", 3 * int(np.prod(input_shape))).reshape(3, *input_shape)
    x = x.astype(np.float32)
    got, _ = nn.forward(a, params, x, "eval")
    monkeypatch.setattr(nn, "_im2col", loop_im2col)
    want, _ = nn.forward(a, params, x, "eval")
    assert np.array_equal(got, want)


def whole_batch_conv_f(x, w, stride, pad):
    """Reference forward: one im2col matrix and one GEMM for the whole batch."""
    n, h, wd, c = x.shape
    f, _, kh, kw = w.shape
    x_pad = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (wd + 2 * pad - kw) // stride + 1
    mat = nn._im2col(x_pad, kh, kw, stride, h_out, w_out)
    wmat = np.ascontiguousarray(w.transpose(2, 3, 1, 0).reshape(kh * kw * c, f))
    y = (mat @ wmat).reshape(n, h_out, w_out, f)
    return y, (x_pad, w, stride, pad, h_out, w_out)


def whole_batch_conv_b(cache, dy):
    """Reference backward: rebuilt im2col, one dW GEMM, dcols and col2im passes."""
    x_pad, w, stride, pad, h_out, w_out = cache
    n = x_pad.shape[0]
    f, c, kh, kw = w.shape
    dy_mat = dy.reshape(n * h_out * w_out, f)
    mat = nn._im2col(x_pad, kh, kw, stride, h_out, w_out)
    dw = (mat.T @ dy_mat).reshape(kh, kw, c, f).transpose(3, 2, 0, 1)
    wmat = w.transpose(2, 3, 1, 0).reshape(kh * kw * c, f)
    dcols = (dy_mat @ wmat.T).reshape(n, h_out, w_out, kh, kw, c)
    dx_pad = np.zeros(x_pad.shape, dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            dx_pad[:, i : i + stride * h_out : stride,
                   j : j + stride * w_out : stride, :] += dcols[:, :, :, i, j, :]
    dx = dx_pad[:, pad:-pad, pad:-pad, :] if pad else dx_pad
    return dx, np.ascontiguousarray(dw)


def assert_conv_bit_equal(n, side, c, f, k, pad, stride, dtype, seed=55):
    rng = Rng(seed)
    x = rng.normal64("init", n * side * side * c).reshape(n, side, side, c).astype(dtype)
    w = rng.normal64("init", f * c * k * k).reshape(f, c, k, k).astype(dtype)
    y, cache = nn._conv_f(x, w, stride, pad)
    y_ref, cache_ref = whole_batch_conv_f(x, w, stride, pad)
    assert y.dtype == y_ref.dtype and np.array_equal(y, y_ref)
    dy = rng.normal64("init", y.size).reshape(y.shape).astype(dtype)
    dx, dw = nn._conv_b(cache, dy)
    dx_ref, dw_ref = whole_batch_conv_b(cache_ref, dy)
    assert dx.dtype == dx_ref.dtype and np.array_equal(dx, dx_ref)
    assert dw.dtype == dw_ref.dtype and np.array_equal(dw, dw_ref)


# per-tap backward GEMMs of n*h_out*w_out*c*f multiply-adds sit above
# nn._TAP_GEMM_FLOOR, so these take the split path
@pytest.mark.parametrize("n, side, c, f, k, pad, stride", [
    (20, 32, 16, 16, 3, 1, 1),   # 3x3 pad 1
    (40, 32, 16, 32, 3, 1, 2),   # 3x3 pad 1 stride 2
    (40, 32, 16, 32, 1, 0, 2),   # 1x1 stride-2 shortcut
    (48, 32, 3, 32, 3, 1, 1),    # RGB input
    # dx in image blocks of max(1024, 2**19 // c) rows, the second with a tail
    (70, 32, 16, 16, 3, 1, 1),   # 32 and 38 images
    (140, 16, 32, 32, 3, 1, 1),  # 64 and 76 images
    (300, 16, 64, 64, 3, 1, 2),  # 128 and 172 images, overlapping stride-2 taps
])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_kernels_bit_equal_to_whole_batch(n, side, c, f, k, pad, stride, dtype):
    assert (n * side * side * c * f) // stride ** 2 >= nn._TAP_GEMM_FLOOR
    assert_conv_bit_equal(n, side, c, f, k, pad, stride, dtype)


# below the floor, or with one channel or one filter, backward takes every
# tap in one GEMM: the split would leave the blocked GEMM kernel
@pytest.mark.parametrize("n, side, c, f, k, pad, stride", [
    (1, 32, 16, 16, 3, 1, 1),
    (3, 32, 3, 16, 3, 1, 1),
    (2, 6, 1, 3, 3, 1, 2),
    (2, 32, 1, 64, 3, 1, 1),
    (1, 4, 2, 1, 3, 0, 1),
    (2, 7, 5, 4, 3, 1, 2),
])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_kernels_bit_equal_below_split_floor(n, side, c, f, k, pad, stride, dtype):
    assert_conv_bit_equal(n, side, c, f, k, pad, stride, dtype)


def block_rows(width, filters):
    """The block rule's fewest GEMM rows: 2**19 elements (2 MiB of float32)
    of ``width``, at least 1024 rows and at least 2**22 multiply-adds."""
    return max(1024, (1 << 19) // width, -(-(1 << 22) // (width * filters)))


def spy_conv_blocks(monkeypatch):
    """Record, per ``_conv_f`` call, its filter count and the (images, rows,
    width) of every patch matrix it builds."""
    convs, conv_f, im2col = [], nn._conv_f, nn._im2col

    def conv_spy(x, w, stride, pad):
        convs.append((w.shape[0], []))
        return conv_f(x, w, stride, pad)

    def im2col_spy(x_pad, *args):
        mat = im2col(x_pad, *args)
        convs[-1][1].append((x_pad.shape[0], *mat.shape))
        return mat

    monkeypatch.setattr(nn, "_conv_f", conv_spy)
    monkeypatch.setattr(nn, "_im2col", im2col_spy)
    return convs


# a 3x3 conv of 16 channels has patch width 144: a block needs
# max(1024, 3640, 1821) rows, which 4 whole 32x32 images (4096 rows) first hold
@pytest.mark.parametrize("n, blocks", [
    (3, [3]),           # under one block: the whole batch
    (4, [4]),           # exactly one block
    (8, [4, 4]),        # exactly two blocks
    (10, [4, 6]),       # a 2-image tail joins the last block
    (15, [4, 4, 7]),
])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_blocks_fill_span_and_tail(monkeypatch, n, blocks, dtype):
    assert 3 * 1024 < block_rows(144, 16) <= 4 * 1024
    convs = spy_conv_blocks(monkeypatch)
    rng = Rng(56)
    x = rng.normal64("init", n * 32 * 32 * 16).reshape(n, 32, 32, 16).astype(dtype)
    w = rng.normal64("init", 16 * 16 * 9).reshape(16, 16, 3, 3).astype(dtype)
    y, _ = nn._conv_f(x, w, 1, 1)
    assert convs == [(16, [(b, b * 1024, 144) for b in blocks])]
    y_ref, _ = whole_batch_conv_f(x, w, 1, 1)
    assert np.array_equal(y, y_ref)


def test_eval_forward_never_builds_a_whole_batch_patch_matrix(monkeypatch):
    a = arch.derive_arch("resnet_cifar", 8)
    params = arch.init_params(a, Rng(57))
    x = Rng(58).normal64("init", 500 * 3 * 32 * 32).reshape(500, 3, 32, 32).astype(np.float32)
    want, _ = nn.forward(a, params, x, "eval")
    # the spy's call list needs one thread; the chunks are the same on any count
    monkeypatch.setattr(nn, "_eval_workers", lambda: 1)
    convs = spy_conv_blocks(monkeypatch)
    got, _ = nn.forward(a, params, x, "eval")
    assert np.array_equal(got, want)
    # the eval chunk rule: the fewest whole images giving every conv 1024
    # GEMM rows and 2**22 multiply-adds
    image_rows = [blocks[0][1] // blocks[0][0] for _, blocks in convs[:9]]
    macs = [r * blocks[0][2] * f for r, (f, blocks) in zip(image_rows, convs[:9])]
    chunk = max(max(-(-1024 // r), -(-(1 << 22) // m)) for r, m in zip(image_rows, macs))
    assert chunk == 32
    chunks = [32] * 14 + [52]  # a 20-image tail joins the last chunk
    assert len(convs) == 9 * len(chunks)
    for k in range(9):  # the calls of one conv, chunk by chunk
        calls = convs[k::9]
        assert [sum(b[0] for b in blocks) for _, blocks in calls] == chunks
        for (filters, blocks), n in zip(calls, chunks):
            images, rows, widths = zip(*blocks)
            assert rows[0] // images[0] == image_rows[k] and set(widths) == {widths[0]}
            width = widths[0]
            # the fewest whole images that hold the block rule's rows
            step = -(-block_rows(width, filters) // image_rows[k])
            assert sum(images) == n and len(blocks) == max(1, n // step)
            assert all(i == step for i in images[:-1])
            assert images[-1] < 2 * step  # a short tail joins the block before it
    # in a 32-image chunk, the input conv, the 8x8 stride-2 conv and both 1x1
    # shortcuts are one block; the other 3x3 convs still split
    assert [len(blocks) for _, blocks in convs[:9]] == [1, 8, 8, 2, 4, 1, 1, 2, 1]


def test_backward_builds_no_patch_matrix(monkeypatch):
    def forbidden(*args):
        raise AssertionError("_conv_b must not build an im2col matrix")

    rng = Rng(59)
    x = rng.normal64("init", 100 * 32 * 32 * 16).reshape(100, 32, 32, 16).astype(np.float32)
    w = rng.normal64("init", 16 * 16 * 9).reshape(16, 16, 3, 3).astype(np.float32)
    y, cache = nn._conv_f(x, w, 1, 1)
    dy = rng.normal64("init", y.size).reshape(y.shape).astype(np.float32)
    monkeypatch.setattr(nn, "_im2col", forbidden)
    tracemalloc.start()
    try:
        nn._conv_b(cache, dy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    patch_matrix_bytes = 100 * 32 * 32 * 9 * 16 * 4  # 59 MB
    assert peak < patch_matrix_bytes // 2


def test_resnet_unit_keeps_layer_caches_in_train_mode_only():
    a = arch.derive_arch("resnet_cifar", 8, input_shape=(3, 8, 8))
    params = arch.init_params(a, Rng(60))
    x = Rng(61).normal64("init", 2 * 3 * 8 * 8).reshape(2, 3, 8, 8).astype(np.float32)
    outs, tapes = {}, {}
    for mode in ("train", "eval", "collect"):
        outs[mode], cache = nn.forward(a, params, x, mode)
        tapes[mode] = cache["tape"]
    assert tapes["eval"] == [] and tapes["collect"] == []
    block, (body, shortcut) = next((layer, c) for layer, c in tapes["train"]
                                   if layer.path == "stage1/unit0")
    assert block.op == "block"
    assert [layer.op for layer, _ in body] == ["conv", "bn", "relu", "conv", "bn"]
    assert [layer.path for layer, _ in shortcut] == ["stage1/unit0/shortcut",
                                                      "stage1/unit0/bnshortcut"]
    assert all(c is not None for layer, c in body + shortcut if layer.op != "relu")
    assert np.array_equal(outs["train"], outs["collect"])


def test_tape_free_relu_overwrites_its_input():
    x = np.array([[-1.5, 0.0, 2.0], [3.0, -0.0, -2.0]], np.float32)
    want, mask = nn._relu_f(x)
    got, none = nn._relu_f(x, "eval")
    assert got is x and none is None
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert mask.dtype == bool


def test_only_train_mode_records_a_tape():
    a = arch.derive_arch("resnet_cifar", 8, input_shape=(3, 8, 8))
    params = arch.init_params(a, Rng(53))
    x = Rng(54).normal64("init", 4 * 3 * 8 * 8).reshape(4, 3, 8, 8).astype(np.float32)
    caches = {mode: nn.forward(a, params, x, mode)[1] for mode in ("train", "eval", "collect")}
    for mode, cache in caches.items():
        assert set(cache) == {"mode", "tape", "bn_updates"} and cache["mode"] == mode
    assert caches["eval"]["tape"] == [] and caches["collect"]["tape"] == []
    tape = caches["train"]["tape"]
    assert [layer for layer, _ in tape] == list(arch.program(a))
    layer, conv_cache = tape[1]
    assert layer.op == "conv" and conv_cache[0].shape == (4, 10, 10, 3)  # the padded input
    # collect still reports each batch-norm's raw batch moments and count
    collect = caches["collect"]["bn_updates"]
    assert set(collect) == set(caches["train"]["bn_updates"])
    h, _ = nn._conv_f(np.ascontiguousarray(x.transpose(0, 2, 3, 1)),
                      params["input/conv/weight"], 1, 1)
    mean, m = collect["input/bn/rmean"]
    var, m_var = collect["input/bn/rvar"]
    assert m == m_var == 4 * 8 * 8
    assert np.array_equal(mean, h.mean(axis=(0, 1, 2)))
    assert np.array_equal(var, h.var(axis=(0, 1, 2)))


DRIFT_ARCHS = [
    arch.derive_arch("resnet_cifar", 8),
    arch.derive_arch("resnet_cifar", 20),
    *(arch.derive_arch("vgg_cifar", d, head_layers=h) for d in (13, 16, 19) for h in (1, 3)),
    arch.derive_arch("vgg_cifar", [1, 2, 1, 3, 1], head_layers=2),
    arch.derive_arch("mlp", 1),
    arch.derive_arch("mlp", 3),
    arch.mlp_arch([16, 10, 10, 10, 6, 4]),
]


@pytest.mark.parametrize("a", DRIFT_ARCHS, ids=lambda a: a.name())
def test_program_and_param_specs_cannot_drift(a):
    # only paths and shapes matter here; ones skip a slow init of VGG's 20M weights
    params = {s.path: np.ones(s.shape, np.float32) for s in arch.param_specs(a)}
    x = Rng(71).normal64("init", 2 * int(np.prod(a.input_shape)))
    x = x.reshape(2, *a.input_shape).astype(np.float32)
    logits, cache = nn.forward(a, params, x, "train")
    grads = nn.backward(a, cache, np.ones_like(logits))
    assert list(grads) == arch.trainable_paths(a)
    shapes = {s.path: s.shape for s in arch.param_specs(a)}
    assert all(g.shape == shapes[path] for path, g in grads.items())
    assert set(cache["bn_updates"]) == {s.path for s in arch.param_specs(a)
                                        if s.kind in ("bn_rmean", "bn_rvar")}


@pytest.mark.parametrize("a", [arch.derive_arch("mlp", 2),
                               arch.derive_arch("resnet_cifar", 8, input_shape=(3, 8, 8)),
                               arch.derive_arch("vgg_cifar", 13)], ids=lambda a: a.name())
def test_backward_skips_only_the_discarded_input_gradient(a, monkeypatch):
    params = ({s.path: np.full(s.shape, 0.01, np.float32) for s in arch.param_specs(a)}
              if a.family == arch.FAMILY_VGG else arch.init_params(a, Rng(81)))
    x = Rng(82).normal64("init", 3 * int(np.prod(a.input_shape)))
    x = x.reshape(3, *a.input_shape).astype(np.float32)
    logits, cache = nn.forward(a, params, x, "train")
    dlogits = Rng(83).normal64("init", logits.size).reshape(logits.shape).astype(np.float32)
    full: dict = {}
    dx = nn._back(cache["tape"], dlogits, full)  # the whole reverse walk, down to the input
    assert dx.shape == x.shape
    skipped = []
    for name in ("_conv_b", "_dense_b"):
        def spy(c, dy, need_dx=True, kernel=getattr(nn, name)):
            out = kernel(c, dy, need_dx)
            assert (out[0] is None) == (not need_dx)
            if not need_dx:
                skipped.append(c[1])  # the layer's weight
            return out
        monkeypatch.setattr(nn, name, spy)
    grads = nn.backward(a, cache, dlogits)
    first = arch.prunable_paths(a)[0]
    assert len(skipped) == 1 and skipped[0] is params[first]
    assert list(grads) == arch.trainable_paths(a)
    assert all(np.array_equal(grads[path], full[path]) for path in grads)


def test_forward_macs_counts_the_sides_the_convs_output(monkeypatch):
    # a stride-2 conv takes the odd side 9 to 5 and then 5 to 3 (ceil, not floor)
    a = arch.derive_arch("resnet_cifar", 8, input_shape=(3, 9, 9))
    params = arch.init_params(a, Rng(84))
    macs = []

    def spy(x, w, stride, pad, kernel=nn._conv_f):
        y, c = kernel(x, w, stride, pad)
        macs.append(y.shape[1] * y.shape[2] * int(np.prod(w.shape)))
        return y, c

    monkeypatch.setattr(nn, "_conv_f", spy)
    nn.forward(a, params, np.zeros((1, 3, 9, 9), np.float32), "eval")
    assert len(macs) == 9
    assert arch.forward_macs(a) == sum(macs) + 64 * 10


def test_resnet_eval_peak_stays_under_five_stage0_activations():
    # A 500-image 32x32 ResNet-8 eval; one stage-0 activation is 500x32x32x16
    # float32 = 31.25 MiB. A block whose branch outputs outlive it, or a conv
    # GEMM block far past the cache budget, peaks higher.
    a = arch.derive_arch("resnet_cifar", 8)
    params = arch.init_params(a, Rng(72))
    x = Rng(73).normal64("init", 500 * 3 * 32 * 32).reshape(500, 3, 32, 32).astype(np.float32)
    tracemalloc.start()
    try:
        nn.forward(a, params, x, "eval")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 500 * 32 * 32 * 16 * 4


# ---------------------------------------------------------------------------
# eval forward in image chunks


def numpy_params(a, seed):
    """He-scaled weights and spread BN stats from numpy's generator: the
    seeded init of a VGG's 20M weights takes seconds."""
    g = np.random.default_rng(seed)
    params = {}
    for s in arch.param_specs(a):
        if s.kind in ("conv_weight", "dense_weight"):
            fan_in = int(np.prod(s.shape[1:])) if s.kind == "conv_weight" else s.shape[0]
            v = g.standard_normal(s.shape) * np.sqrt(2.0 / fan_in)
        elif s.kind in ("bn_gamma", "bn_rvar"):
            v = g.uniform(0.5, 1.5, s.shape)
        else:
            v = g.standard_normal(s.shape) * 0.1
        params[s.path] = v.astype(np.float32)
    return params


def spy_eval_chunks(monkeypatch):
    """Record the chunk bounds of every chunked eval, on two threads even
    on a one-core machine."""
    chunked, eval_chunks = [], nn._eval_chunks
    monkeypatch.setattr(nn, "_eval_workers", lambda: 2)
    monkeypatch.setattr(nn, "_eval_chunks",
                        lambda *args: chunked.append(args[3]) or eval_chunks(*args))
    return chunked


def assert_eval_bit_equal(a, params, x, want, want_bn, chunked, bounds):
    """``nn.forward`` in eval mode gives the reference logits ``want`` and
    bn_updates ``want_bn``, through the chunk ``bounds`` (None: unchunked)."""
    del chunked[:]
    got, cache = nn.forward(a, params, x, "eval")
    assert chunked == ([bounds] if bounds else [])
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert cache["tape"] == [] and cache["bn_updates"].keys() == want_bn.keys()
    assert all(cache["bn_updates"][k] is want_bn[k] for k in want_bn)


def chunk_batches(chunk):
    """(images, chunk bounds): under two chunks, exactly two, and two with a
    3-image tail."""
    return [(2 * chunk - 1, None), (2 * chunk, [(0, chunk), (chunk, 2 * chunk)]),
            (2 * chunk + 3, [(0, chunk), (chunk, 2 * chunk + 3)])]


@pytest.mark.parametrize("depth", [8, 14, 20, 32, 56])
def test_resnet_chunked_eval_bit_equal_to_one_whole_batch_run(depth, monkeypatch):
    a = arch.derive_arch("resnet_cifar", depth)
    prog = arch.program(a)
    assert [layer.op for layer in prog[-2:]] == ["gap", "dense"]
    assert nn._chunk_images(prog[:-2]) == 32
    params = numpy_params(a, 91)
    chunked = spy_eval_chunks(monkeypatch)
    x = np.random.default_rng(92).standard_normal((67, *a.input_shape), np.float32)
    for n, bounds in chunk_batches(32):
        want_bn: dict = {}
        want = nn._run(prog, params, x[:n], "eval", [], want_bn)
        assert_eval_bit_equal(a, params, x[:n], want, want_bn, chunked, bounds)


@pytest.mark.parametrize("depth", [13, 16, 19])
def test_vgg_chunked_eval_bit_equal_to_one_whole_batch_run(depth, monkeypatch):
    # both heads share the conv body and its weights, so one whole-batch run
    # of the body serves both: _run passes nothing from layer to layer but h
    heads = [arch.derive_arch("vgg_cifar", depth, head_layers=h) for h in (1, 3)]
    params = [numpy_params(a, 93) for a in heads]  # the body's draws come first
    progs = [arch.program(a) for a in heads]
    split = next(k for k, layer in enumerate(progs[0]) if layer.op == "flatten")
    assert progs[0][:split] == progs[1][:split]
    body = {k: v for k, v in params[0].items() if not k.startswith("output/")}
    assert all(np.array_equal(v, params[1][k]) for k, v in body.items())
    params[1].update(body)  # one set of arrays, so bn_updates can be checked by identity
    assert nn._chunk_images(progs[0][:split]) == 256
    chunked = spy_eval_chunks(monkeypatch)
    x = np.random.default_rng(94).standard_normal((515, *heads[0].input_shape), np.float32)
    # three images stand for "under two chunks": a VGG pass of 511 costs seconds
    for n, bounds in [(3, None), *chunk_batches(256)[1:]]:
        body_bn: dict = {}
        h = nn._run(progs[0][:split], params[0], x[:n], "eval", [], body_bn)
        for a, prog, p in zip(heads, progs, params):
            want_bn = dict(body_bn)
            want = nn._run(prog[split:], p, h, "eval", [], want_bn)
            assert_eval_bit_equal(a, p, x[:n], want, want_bn, chunked, bounds)


def test_chunked_eval_hands_each_chunk_to_one_thread(monkeypatch):
    # more threads than cores, switching often: a chunk taken twice or
    # never leaves its slot wrong or empty
    a = arch.derive_arch("resnet_cifar", 8)
    params = numpy_params(a, 95)
    x = np.random.default_rng(96).standard_normal((5 * 32 + 7, *a.input_shape), np.float32)
    want = nn._run(arch.program(a), params, x, "eval", [], {})
    monkeypatch.setattr(nn, "_eval_workers", lambda: 8)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got, _ = nn.forward(a, params, x, "eval")
            assert np.array_equal(got, want)
            assert threading.active_count() == threads  # no helper outlives the call
    finally:
        sys.setswitchinterval(interval)


def test_chunked_eval_restores_the_blas_thread_count(monkeypatch):
    blas = nn._thread_setup()
    if blas is None:
        pytest.skip("numpy links a BLAS without OpenBLAS's thread control")
    get_threads, _ = blas
    before = get_threads()
    monkeypatch.setattr(nn, "_eval_workers", lambda: 2)
    a = arch.derive_arch("resnet_cifar", 8)
    params = arch.init_params(a, Rng(93))
    x = Rng(94).normal64("init", 64 * 3 * 32 * 32).reshape(64, 3, 32, 32).astype(np.float32)
    inside, conv_f = [], nn._conv_f

    def counting_conv(*args):
        inside.append(get_threads())
        return conv_f(*args)

    monkeypatch.setattr(nn, "_conv_f", counting_conv)
    nn.forward(a, params, x, "eval")
    assert set(inside) == {1} and get_threads() == before

    def failing_conv(x, *args):
        if len(inside) == 12:  # a conv call partway through the eval
            raise FloatingPointError("chunk failed")
        return counting_conv(x, *args)

    inside.clear()
    monkeypatch.setattr(nn, "_conv_f", failing_conv)
    with pytest.raises(FloatingPointError, match="chunk failed"):
        nn.forward(a, params, x, "eval")
    assert get_threads() == before
    assert not nn._EVAL_LOCK.locked()


# ---------------------------------------------------------------------------
# optimizer


def test_plain_sgd_step():
    cfg = nn.TrainConfig(epochs=1, batch_size=1, lr=0.25, momentum=0.0, seed=0)
    params = {"layer0/weight": np.array([1.0, -2.0], np.float32)}
    grads = {"layer0/weight": np.array([0.5, 0.5], np.float32)}
    nn.sgd_step(params, grads, {}, {}, cfg, 0)
    assert np.allclose(params["layer0/weight"], [1.0 - 0.25 * 0.5, -2.0 - 0.25 * 0.5])


def test_momentum_and_decay_formula():
    cfg = nn.TrainConfig(epochs=1, batch_size=1, lr=0.1, momentum=0.9, weight_decay=0.01, seed=0)
    w = np.array([2.0], np.float32)
    params = {"layer0/weight": w.copy()}
    vel = {}
    g = np.array([1.0], np.float32)
    nn.sgd_step(params, {"layer0/weight": g}, {}, vel, cfg, 0)
    v1 = g + 0.01 * w
    assert np.allclose(vel["layer0/weight"], v1)
    assert np.allclose(params["layer0/weight"], w - 0.1 * v1)
    w1 = params["layer0/weight"].copy()
    nn.sgd_step(params, {"layer0/weight": g}, {}, vel, cfg, 1)
    v2 = 0.9 * v1 + (g + 0.01 * w1)
    assert np.allclose(params["layer0/weight"], w1 - 0.1 * v2, atol=1e-7)


def test_decay_skips_bias_and_bn():
    cfg = nn.TrainConfig(epochs=1, batch_size=1, lr=1.0, momentum=0.0, weight_decay=0.5, seed=0)
    params = {"layer0/bias": np.array([4.0], np.float32),
              "input/bn/gamma": np.array([4.0], np.float32),
              "layer0/weight": np.array([4.0], np.float32)}
    grads = {k: np.zeros(1, np.float32) for k in params}
    nn.sgd_step(params, grads, {}, {}, cfg, 0)
    assert params["layer0/bias"][0] == 4.0
    assert params["input/bn/gamma"][0] == 4.0
    assert params["layer0/weight"][0] == 4.0 - 0.5 * 4.0


def test_warmup_multipliers():
    cfg = nn.TrainConfig(epochs=1, batch_size=1, lr=1.0, warmup_steps=5, seed=0)
    got = [nn.effective_lr(cfg, step, 0) for step in range(6)]
    assert np.allclose(got, [0.2, 0.4, 0.6, 0.8, 1.0, 1.0])


def test_milestones_literal():
    cfg = nn.TrainConfig(epochs=160, batch_size=1, lr=1.0, milestones=(80, 160), seed=0)
    assert nn.effective_lr(cfg, 0, 79) == 1.0
    assert nn.effective_lr(cfg, 0, 80) == pytest.approx(0.1)
    assert nn.effective_lr(cfg, 0, 159) == pytest.approx(0.1)  # 160 never reached


def test_config_validation():
    with pytest.raises(ConfigError):
        nn.TrainConfig(epochs=5, batch_size=1, lr=0.1, milestones=(3, 3))
    with pytest.raises(ConfigError):
        nn.TrainConfig(epochs=5, batch_size=1, lr=0.1, milestones=(6,))
    with pytest.raises(ConfigError):
        nn.TrainConfig(epochs=5, batch_size=0, lr=0.1)
    with pytest.raises(ConfigError):
        nn.TrainConfig(epochs=5, batch_size=1, lr=0.0)
    with pytest.raises(ConfigError):
        nn.TrainConfig(epochs=5, batch_size=1, lr=0.1, momentum=1.0)


def test_mask_absorbing_zero_layer():
    a = arch.mlp_arch([6, 5, 3])
    params = arch.init_params(a, Rng(20))
    mask = {p: np.ones_like(params[p]) for p in arch.prunable_paths(a)}
    mask["layer0/weight"] = np.zeros_like(mask["layer0/weight"])
    cfg = nn.TrainConfig(epochs=1, batch_size=4, lr=0.1, momentum=0.9, seed=1)
    vel = {}
    params["layer0/weight"] *= 0
    x = Rng(21).normal64("init", 4 * 6).reshape(4, 6).astype(np.float32)
    y = np.array([0, 1, 2, 0])
    for step in range(7):
        _, _, grads, bn = nn.loss_and_grad(a, params, x, y, "train")
        nn.sgd_step(params, grads, mask, vel, cfg, step)
        assert np.array_equal(params["layer0/weight"], np.zeros_like(params["layer0/weight"]))


def test_gradient_masking_equivalence():
    # masking weights after the update == masking gradients before it,
    # provided weights start masked (elementwise optimizer)
    a = arch.mlp_arch([5, 4, 3])
    rng = Rng(22)
    base = arch.init_params(a, rng)
    mask = {p: (Rng(23 + i).uniform64("init", base[p].size) > 0.4)
            .astype(np.float32).reshape(base[p].shape)
            for i, p in enumerate(arch.prunable_paths(a))}
    for p in mask:
        base[p] = base[p] * mask[p]
    cfg = nn.TrainConfig(epochs=1, batch_size=4, lr=0.1, momentum=0.9, weight_decay=0.01, seed=0)
    x = Rng(24).normal64("init", 4 * 5).reshape(4, 5).astype(np.float32)
    y = np.array([0, 1, 2, 1])

    pa = {k: v.copy() for k, v in base.items()}
    pb = {k: v.copy() for k, v in base.items()}
    va, vb = {}, {}
    for step in range(5):
        _, _, ga, _ = nn.loss_and_grad(a, pa, x, y, "train")
        nn.sgd_step(pa, ga, mask, va, cfg, step)
        _, _, gb, _ = nn.loss_and_grad(a, pb, x, y, "train")
        gb = {k: (v * mask[k] if k in mask else v) for k, v in gb.items()}
        nn.sgd_step(pb, gb, {}, vb, cfg, step)
        for k in mask:
            pb[k] = pb[k] * mask[k]  # same masking postcondition, different route
    for k in pa:
        assert np.allclose(pa[k], pb[k], atol=1e-7), k


# ---------------------------------------------------------------------------
# training loop


def test_train_zero_epochs_is_noop(blob_data):
    train_ds, test_ds = blob_data
    a = arch.mlp_arch([12, 8, 4])
    params = arch.init_params(a, Rng(30))
    cfg = nn.TrainConfig(epochs=0, batch_size=16, lr=0.1, seed=5)
    out, record = nn.train(a, params, {}, train_ds, test_ds, cfg)
    assert all(np.array_equal(out[k], params[k]) for k in params)
    assert record.epoch_train_loss == [] and record.final_test_acc is None


def test_train_deterministic(blob_data):
    train_ds, test_ds = blob_data
    a = arch.mlp_arch([12, 8, 4])
    params = arch.init_params(a, Rng(31))
    cfg = nn.TrainConfig(epochs=2, batch_size=16, lr=0.1, momentum=0.9, seed=5)
    out1, rec1 = nn.train(a, params, {}, train_ds, test_ds, cfg)
    out2, rec2 = nn.train(a, params, {}, train_ds, test_ds, cfg)
    assert all(np.array_equal(out1[k], out2[k]) for k in out1)
    assert rec1.to_json() == rec2.to_json()


def test_train_seed_changes_trajectory(blob_data):
    train_ds, test_ds = blob_data
    a = arch.mlp_arch([12, 8, 4])
    params = arch.init_params(a, Rng(32))
    cfg1 = nn.TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=5)
    cfg2 = nn.TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=6)
    out1, _ = nn.train(a, params, {}, train_ds, test_ds, cfg1)
    out2, _ = nn.train(a, params, {}, train_ds, test_ds, cfg2)
    assert any(not np.array_equal(out1[k], out2[k]) for k in out1)


def test_train_learns_blobs(blob_data):
    train_ds, test_ds = blob_data
    a = arch.mlp_arch([12, 16, 4])
    params = arch.init_params(a, Rng(33))
    cfg = nn.TrainConfig(epochs=5, batch_size=16, lr=0.1, momentum=0.9, seed=1)
    _, record = nn.train(a, params, {}, train_ds, test_ds, cfg)
    assert record.final_test_acc >= 0.9


def test_estimate_bn_stats_matches_population():
    a = arch.derive_arch("resnet_cifar", 8, input_shape=(3, 8, 8))
    params = arch.init_params(a, Rng(34))
    images = Rng(35).normal64("init", 40 * 3 * 8 * 8).reshape(40, 3, 8, 8).astype(np.float32)
    stats = nn.estimate_bn_stats(a, params, images, batch_size=8)
    # stem batch-norm sees conv(stem) activations: recompute directly
    xh = np.ascontiguousarray(images.transpose(0, 2, 3, 1))
    h, _ = nn._conv_f(xh, params["input/conv/weight"], 1, 1)
    assert np.allclose(stats["input/bn/rmean"], h.mean(axis=(0, 1, 2)), atol=1e-4)
    assert np.allclose(stats["input/bn/rvar"], h.var(axis=(0, 1, 2)), atol=1e-4)
