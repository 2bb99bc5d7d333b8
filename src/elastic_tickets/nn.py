"""Layer kernels with hand-written backward passes, masked SGD, and training.

All kernels preserve the dtype of their inputs: float32 for normal training,
float64 when a caller (finite-difference checks, saliency scoring) needs tight
numerics. Pruned weights are kept at exactly zero by re-applying the binary
mask after every optimizer step.

``forward`` runs one interpreter, ``_run``, over the arch's layer program
(``arch.program``), and ``backward`` walks its tape in reverse (``_back``).
The walk ends at the first conv or dense layer, which computes its weight
gradient but not the gradient with respect to the network input: nothing
reads that one.
Only a train-mode forward records that tape; eval and collect passes keep
nothing past each layer, and apply ReLU in place. Two more rules keep their
peak down: a residual block runs in its own call (``_block_f``), so that
both branch outputs are freed when it returns, and the channels-last copy of
the input is made by the program's ``nhwc`` op, never held in ``forward``'s
frame. A conv's tape entry holds its padded input, kh*kw times smaller than
its im2col matrix.

No conv ever holds the patch matrix of a whole batch. The forward GEMMs one
block of images at a time into its slice of the output. The backward runs
one whole-batch dW GEMM per kernel tap over that tap's shifted window, and
the dx GEMMs and their adds tap by tap within each block of images.
``_image_blocks`` sizes every block from the shape, so that a block's GEMM
rows (patch width for the forward, channel width for dx) fit in about 2 MiB
of cache.
These splits give the same bits as the unsplit GEMM only while every piece
stays on OpenBLAS's blocked GEMM kernel: a one-row product takes the gemv
path, and products below about 1e6 multiply-adds take the small-matrix
kernel, and either sums in another order. So a block holds at least 1024
rows and ``_TAP_GEMM_FLOOR`` multiply-adds (the last partial block joins the
one before it), and a backward whose per-tap GEMMs fall under
``_TAP_GEMM_FLOOR`` multiply-adds, or have a single row or column, takes all
taps in one whole-batch GEMM. dW is never split by rows: each of its entries
sums over every row.

An eval forward of a conv arch splits the program at its first ``gap`` or
``flatten`` layer. The conv body runs over chunks of whole images, one
thread per core: the calling thread and helpers started and joined inside
the call, so that no thread outlives it into a fork. The bundled OpenBLAS
runs at one thread for that region, and its count is restored afterwards.
A chunk is the fewest whole images that give every conv in the body at
least ``_BLOCK_MIN_ROWS`` GEMM rows and ``_TAP_GEMM_FLOOR`` multiply-adds
(``_chunk_images``: 32 for the preset ResNets, 256 for VGG), so every chunk
GEMM stays on the blocked kernel; a short last chunk joins the one before
it. The chunk outputs are concatenated and the head runs once over the
whole batch on the calling thread, so its GEMMs are the unchunked ones.
Under two chunks, without conv layers, with a non-square input or without
the OpenBLAS thread control, the forward runs the whole batch as one. The
first threaded eval caps glibc's malloc arenas at one, so that the helpers'
allocations do not each grow an arena of their own.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .arch import (ArchDescriptor, BN_EPS, BN_MOMENTUM, BN_PARAMS, FAMILY_MLP, FAMILY_VGG,
                   program, trainable_paths)
from .errors import ConfigError, ShapeError, UsageError
from .tensor import Rng


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int
    lr: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    milestones: tuple[int, ...] = ()
    warmup_steps: int = 0
    seed: int = 0

    def __post_init__(self):
        self.milestones = tuple(int(m) for m in self.milestones)
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if any(m2 <= m1 for m1, m2 in zip(self.milestones, self.milestones[1:])):
            raise ConfigError(f"milestones must be strictly increasing, got {self.milestones}")
        if any(m > self.epochs for m in self.milestones):
            raise ConfigError(f"milestones must not exceed epochs={self.epochs}, got {self.milestones}")


@dataclass
class MetricsRecord:
    arch_name: str = ""
    dataset: str = ""
    seed: int = 0
    epoch_train_loss: list[float] = field(default_factory=list)
    epoch_train_acc: list[float] = field(default_factory=list)
    final_test_acc: float | None = None
    final_train_loss: float | None = None
    sparsity: float | None = None
    flops_normalized: float | None = None
    weight_decay: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "arch": self.arch_name,
            "dataset": self.dataset,
            "seed": self.seed,
            "epoch_train_loss": self.epoch_train_loss,
            "epoch_train_acc": self.epoch_train_acc,
            "final_test_acc": self.final_test_acc,
            "final_train_loss": self.final_train_loss,
            "sparsity": self.sparsity,
            "flops_normalized": self.flops_normalized,
            "weight_decay": self.weight_decay,
            "extra": self.extra,
        }


# ---------------------------------------------------------------------------
# layer kernels


def _dense_f(x, w, b):
    y = x @ w
    if b is not None:
        y = y + b
    return y, (x, w, b is not None)


def _dense_b(cache, dy, need_dx=True):
    x, w, has_b = cache
    dw = x.T @ dy
    db = dy.sum(axis=0) if has_b else None
    dx = dy @ w.T if need_dx else None
    return dx, dw, db


# Spatial activations flow channels-last (N, H, W, C) internally: im2col then
# lands in a GEMM-ready layout without transpose copies. Weights stay in the
# canonical (F, C, kh, kw) layout everywhere outside these kernels.


def _im2col(x_pad, kh, kw, stride, h_out, w_out):
    """Patch matrix (n*h_out*w_out, kh*kw*c) of a padded channels-last input."""
    n, c = x_pad.shape[0], x_pad.shape[3]
    win = np.lib.stride_tricks.sliding_window_view(x_pad, (kh, kw), axis=(1, 2))
    win = win[:, : stride * h_out : stride, : stride * w_out : stride]
    cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))  # (n, h, w, kh, kw, c)
    return cols.reshape(n * h_out * w_out, kh * kw * c)


# Split floors that keep every conv GEMM on the blocked kernel (module
# docstring), and the cache budget of a GEMM block: 2**19 elements is 2 MiB
# of float32. Below 1024 rows OpenBLAS repacks the weight matrix too often.
_TAP_GEMM_FLOOR = 1 << 22
_BLOCK_ELEMS = 1 << 19
_BLOCK_MIN_ROWS = 1024


def _image_blocks(n, image_rows, width, macs_per_row):
    """Bounds (b0, b1) of the image blocks a conv GEMM runs over.

    A block is a run of whole images holding at least
    ``max(_BLOCK_MIN_ROWS, _BLOCK_ELEMS // width)`` GEMM rows of ``width``
    elements and at least ``_TAP_GEMM_FLOOR`` multiply-adds; a short last
    block joins the one before it, so a batch under one block is one block.
    """
    rows = max(_BLOCK_MIN_ROWS, _BLOCK_ELEMS // width, -(-_TAP_GEMM_FLOOR // macs_per_row))
    return _runs(n, -(-rows // image_rows))


def _runs(n, step):
    """Bounds (b0, b1) of runs of ``step`` images over ``n``; a short last
    run joins the one before it."""
    starts = [k * step for k in range(max(1, n // step))]
    return list(zip(starts, starts[1:] + [n]))


def _conv_f(x, w, stride, pad):
    n, h, wd, c = x.shape
    f, c_in, kh, kw = w.shape
    if c != c_in:
        raise ShapeError(f"conv input channels {c} != weight channels {c_in}")
    if pad:
        x_pad = np.zeros((n, h + 2 * pad, wd + 2 * pad, c), dtype=x.dtype)
        x_pad[:, pad:pad + h, pad:pad + wd] = x
    else:
        x_pad = x
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (wd + 2 * pad - kw) // stride + 1
    wmat = np.ascontiguousarray(w.transpose(2, 3, 1, 0).reshape(kh * kw * c, f))
    y = np.empty((n, h_out, w_out, f), dtype=np.result_type(x_pad, wmat))
    for b0, b1 in _image_blocks(n, h_out * w_out, kh * kw * c, kh * kw * c * f):
        mat = _im2col(x_pad[b0:b1], kh, kw, stride, h_out, w_out)
        np.matmul(mat, wmat, out=y[b0:b1].reshape(-1, f))
    return y, (x_pad, w, stride, pad, h_out, w_out)


def _conv_b(cache, dy, need_dx=True):
    x_pad, w, stride, pad, h_out, w_out = cache
    n = x_pad.shape[0]
    f, c, kh, kw = w.shape
    image_rows = h_out * w_out
    dy_mat = dy.reshape(n * image_rows, f)
    wmat = w.transpose(2, 3, 1, 0).reshape(kh * kw * c, f)
    dwmat = np.empty(wmat.shape, dtype=np.result_type(x_pad, dy_mat))
    windows = [(slice(i, i + stride * h_out, stride), slice(j, j + stride * w_out, stride))
               for i in range(kh) for j in range(kw)]
    split = min(c, f) > 1 and dy_mat.shape[0] * c * f >= _TAP_GEMM_FLOOR
    groups = [[win] for win in windows] if split else [windows]
    # a group's columns of the patch matrix, and rows of dW
    taps = [slice(g * len(group) * c, (g + 1) * len(group) * c) for g, group in enumerate(groups)]
    # dW sums over every row, so its products stay whole-batch
    for group, rows in zip(groups, taps):
        cols = np.stack([x_pad[:, hs, ws] for hs, ws in group], axis=3)
        np.matmul(cols.reshape(-1, len(group) * c).T, dy_mat, out=dwmat[rows])
        del cols
    dw = np.ascontiguousarray(dwmat.reshape(kh, kw, c, f).transpose(3, 2, 0, 1))
    if not need_dx:
        return None, dw
    dx_pad = np.zeros(x_pad.shape, dtype=dy.dtype)
    # each dx element lies in one image block and takes its taps in (i, j)
    # order, as a whole-batch pass would add them
    blocks = _image_blocks(n, image_rows, c, c * f) if split else [(0, n)]
    for b0, b1 in blocks:
        dy_block = dy_mat[b0 * image_rows : b1 * image_rows]
        for group, rows in zip(groups, taps):
            dcols = (dy_block @ wmat[rows].T).reshape(b1 - b0, h_out, w_out, len(group), c)
            for t, (hs, ws) in enumerate(group):
                dx_pad[b0:b1, hs, ws] += dcols[:, :, :, t, :]
    if pad:
        dx_pad = dx_pad[:, pad:-pad, pad:-pad, :]
    return dx_pad, dw


def _bn_f(x, gamma, beta, rmean, rvar, mode, eps=BN_EPS, momentum=BN_MOMENTUM):
    axes = (0, 1, 2) if x.ndim == 4 else (0,)
    if mode in ("train", "collect"):
        m = x.size // x.shape[-1]
        mean = x.mean(axis=axes)
        xhat = x - mean  # channels-last broadcast
        # x.var's own ops: its division by an intp count runs in float64,
        # which differs from a float32 one once m is inexact in float32
        var = (xhat * xhat).sum(axis=axes)
        np.true_divide(var, np.intp(m), out=var, casting="unsafe")
        if mode == "collect":
            # raw batch moments for whole-pass aggregation, no EMA
            new_rmean, new_rvar = (mean, m), (var, m)
        else:
            unbiased = var * (m / (m - 1)) if m > 1 else var
            new_rmean = ((1 - momentum) * rmean + momentum * mean).astype(rmean.dtype)
            new_rvar = ((1 - momentum) * rvar + momentum * unbiased).astype(rvar.dtype)
    else:
        mean = rmean.astype(x.dtype)
        var = rvar.astype(x.dtype)
        new_rmean, new_rvar = rmean, rvar
        xhat = x - mean
    invstd = 1.0 / np.sqrt(var + eps)
    xhat *= invstd
    y = gamma * xhat
    y += beta
    cache = (xhat, invstd, gamma, axes, mode)
    return y, cache, new_rmean, new_rvar


def _bn_b(cache, dy):
    xhat, invstd, gamma, axes, mode = cache
    dgamma = (dy * xhat).sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    if mode == "eval":
        # frozen stats: output is an affine map of x
        dx = dy * (gamma * invstd)
        return dx, dgamma, dbeta
    m = dy.size // dy.shape[-1]
    dx = (gamma * invstd) / m * (m * dy - dbeta - xhat * dgamma)
    return dx, dgamma, dbeta


def _relu_f(x, mode="train"):
    if mode != "train":  # no tape: overwrite the fresh array the caller owns
        return np.multiply(x, x > 0, out=x), None
    mask = x > 0
    return x * mask, mask


def _relu_b(mask, dy):
    return dy * mask


def _maxpool2x2_f(x):
    n, h, w, c = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 needs even spatial dims, got {x.shape}")
    flat = x.reshape(n, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 5, 2, 4)
    flat = flat.reshape(n, h // 2, w // 2, c, 4)
    idx = flat.argmax(axis=-1)  # first max wins: deterministic tie-break
    y = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    return y, (idx, x.shape)


def _maxpool2x2_b(cache, dy):
    idx, x_shape = cache
    n, h, w, c = x_shape
    flat = np.zeros((n, h // 2, w // 2, c, 4), dtype=dy.dtype)
    np.put_along_axis(flat, idx[..., None], dy[..., None], axis=-1)
    return flat.reshape(n, h // 2, w // 2, c, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(x_shape)


def _gap_f(x):
    return x.mean(axis=(1, 2)), (x.shape,)


def _gap_b(cache, dy):
    (x_shape,) = cache
    n, h, w, c = x_shape
    return np.broadcast_to(dy[:, None, None, :] / (h * w), x_shape).astype(dy.dtype)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy; returns (loss, dlogits)."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=1, keepdims=True)
    probs = exp / z
    ll = shifted[np.arange(n), labels] - np.log(z[:, 0])
    loss = float(-ll.mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits.astype(logits.dtype)


# ---------------------------------------------------------------------------
# the layer-program interpreter


def _run(prog, params, h, mode, tape, bn_updates):
    """Run a layer program on ``h``; train mode appends (layer, cache) to ``tape``."""
    for layer in prog:
        op, path = layer.op, layer.path
        if op == "nhwc":
            h, c = np.ascontiguousarray(h.transpose(0, 2, 3, 1)), None
        elif op == "conv":
            h, c = _conv_f(h, params[f"{path}/weight"], layer.stride, layer.shape[2] // 2)
        elif op == "bn":
            h, c, bn_updates[f"{path}/rmean"], bn_updates[f"{path}/rvar"] = _bn_f(
                h, *(params[f"{path}/{name}"] for name in BN_PARAMS), mode)
        elif op == "relu":
            h, c = _relu_f(h, mode)
        elif op == "dense":
            h, c = _dense_f(h, params[f"{path}/weight"], params[f"{path}/bias"])
        elif op == "maxpool":
            h, c = _maxpool2x2_f(h)
        elif op == "gap":
            h, c = _gap_f(h)
        elif op == "flatten":
            h, c = h.reshape(h.shape[0], math.prod(h.shape[1:])), h.shape
        else:  # block
            h, c = _block_f(layer, params, h, mode, bn_updates)
        if mode == "train":
            tape.append((layer, c))
        del c  # an eval or collect cache dies before the next layer allocates
    return h


def _block_f(layer, params, x, mode, bn_updates):
    """A residual block, in its own frame so that both branch outputs are
    freed when it returns."""
    body, shortcut = [], []
    y = _run(layer.body, params, x, mode, body, bn_updates)
    y = y + (_run(layer.shortcut, params, x, mode, shortcut, bn_updates) if layer.shortcut else x)
    return y, (body, shortcut)


def _back(tape, dy, grads, need_dx=True):
    """Mirror of ``_run``: walk a tape backwards, storing parameter grads,
    and return the gradient with respect to the tape's input. With
    ``need_dx`` False the tape must start with a conv or dense layer, which
    then skips its input-gradient products, and None is returned."""
    for k in range(len(tape) - 1, -1, -1):
        layer, c = tape[k]
        op, path = layer.op, layer.path
        if op == "nhwc":
            dy = dy.transpose(0, 3, 1, 2)
        elif op == "conv":
            dy, grads[f"{path}/weight"] = _conv_b(c, dy, need_dx or k > 0)
        elif op == "bn":
            dy, grads[f"{path}/gamma"], grads[f"{path}/beta"] = _bn_b(c, dy)
        elif op == "relu":
            dy = _relu_b(c, dy)
        elif op == "dense":
            dy, grads[f"{path}/weight"], grads[f"{path}/bias"] = _dense_b(c, dy, need_dx or k > 0)
        elif op == "maxpool":
            dy = _maxpool2x2_b(c, dy)
        elif op == "gap":
            dy = _gap_b(c, dy)
        elif op == "flatten":
            dy = dy.reshape(c)
        else:  # block
            body, shortcut = c
            dy = _back(body, dy, grads) + (_back(shortcut, dy, grads) if shortcut else dy)
    return dy


# ---------------------------------------------------------------------------
# eval forward in image chunks (module docstring)

_EVAL_LOCK = threading.Lock()  # one chunked eval at a time sets the BLAS thread count


def _chunk_images(body):
    """Fewest whole images per eval chunk of a layer program, 0 without a conv."""
    step, stack = 0, list(body)
    while stack:
        layer = stack.pop()
        stack += layer.body + layer.shortcut
        if layer.op == "conv":
            rows = layer.side * layer.side
            step = max(step, -(-_BLOCK_MIN_ROWS // rows),
                       -(-_TAP_GEMM_FLOOR // (rows * math.prod(layer.shape))))
    return step


def _eval_workers():
    """Threads of a chunked eval: one per core this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _thread_setup():
    """The bundled OpenBLAS's (get, set) thread-count calls, or None when
    numpy links another BLAS. The first call also caps glibc's malloc arenas
    at one (``M_ARENA_MAX`` is -8)."""
    import ctypes
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-8, 1)
    # the BLAS symbols resolve through numpy's core extension, which links it
    core = np._core if hasattr(np, "_core") else np.core
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    try:
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _eval_chunks(body, params, x, bounds, bn_updates):
    """``body`` in eval mode over the image runs ``bounds`` of ``x``, on the
    calling thread and up to ``_eval_workers() - 1`` helper threads; returns
    the outputs concatenated in image order. The first chunk reports into
    ``bn_updates``."""
    outs = [None] * len(bounds)
    pending, lock, errors = iter(range(len(bounds))), threading.Lock(), []

    def work():
        try:
            while not errors:
                with lock:
                    k = next(pending, None)
                if k is None:
                    return
                b0, b1 = bounds[k]
                outs[k] = _run(body, params, x[b0:b1], "eval", [], bn_updates if k == 0 else {})
        except BaseException as e:  # noqa: BLE001 - re-raised on the calling thread
            errors.append(e)

    helpers = []
    try:
        for _ in range(min(_eval_workers(), len(bounds)) - 1):
            t = threading.Thread(target=work)
            t.start()
            helpers.append(t)
        work()
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]
    return np.concatenate(outs)


def forward(arch: ArchDescriptor, params: dict, x: np.ndarray, mode: str = "train"):
    """Run the network; returns (logits, cache) where cache drives backward.

    Train mode normalizes with batch statistics and records running-stat
    updates in ``cache['bn_updates']``; eval mode uses the stored stats.
    ``collect`` behaves like train but reports raw batch moments instead of
    exponentially averaged ones (used to re-estimate stats over a full pass).
    ``cache['tape']`` holds (layer, cache) pairs in train mode, and is empty
    in eval and collect mode.
    """
    if mode not in ("train", "eval", "collect"):
        raise ConfigError(f"mode must be 'train', 'eval' or 'collect', got {mode!r}")
    prog = program(arch)
    x = np.asarray(x)
    if arch.family == FAMILY_MLP:
        flat_dim = int(np.prod(arch.input_shape))
        if int(np.prod(x.shape[1:])) != flat_dim:
            raise ShapeError(f"input shape {x.shape[1:]} does not flatten to {flat_dim}")
    elif tuple(x.shape[1:]) != tuple(arch.input_shape):
        raise ShapeError(f"input shape {x.shape[1:]} != expected {arch.input_shape}")
    elif arch.family == FAMILY_VGG and (arch.input_shape[1] % (2 ** len(arch.stages))
                                        or arch.input_shape[2] % (2 ** len(arch.stages))):
        raise ShapeError(f"vgg input spatial dims must be divisible by {2 ** len(arch.stages)}")
    tape: list = []
    bn_updates: dict[str, np.ndarray] = {}
    split = next((k for k, layer in enumerate(prog) if layer.op in ("gap", "flatten")), len(prog))
    step = _chunk_images(prog[:split]) if mode == "eval" else 0
    # the chunk rule reads square conv sides from the program
    blas = (_thread_setup() if step and len(x) >= 2 * step
            and arch.input_shape[1] == arch.input_shape[2] else None)
    if blas is None:
        logits = _run(prog, params, x, mode, tape, bn_updates)
    else:
        get_threads, set_threads = blas
        with _EVAL_LOCK:
            threads = get_threads()
            set_threads(1)
            try:
                h = _eval_chunks(prog[:split], params, x, _runs(len(x), step), bn_updates)
            finally:
                set_threads(threads)
        logits = _run(prog[split:], params, h, mode, tape, bn_updates)
    return logits, {"mode": mode, "tape": tape, "bn_updates": bn_updates}


def backward(arch: ArchDescriptor, cache: dict, dlogits: np.ndarray):
    """Gradients for every trainable parameter, in canonical order, given
    the upstream logits gradient."""
    if cache["mode"] != "train":
        raise UsageError("backward requires a cache from a train-mode forward pass")
    grads: dict[str, np.ndarray] = {}
    tape = cache["tape"]
    # the layers before the first conv or dense (nhwc, flatten) hold no
    # parameters, so the walk stops there and computes no input gradient
    first = next(k for k, (layer, _) in enumerate(tape) if layer.op in ("conv", "dense"))
    _back(tape[first:], dlogits, grads, need_dx=False)
    return {path: grads[path] for path in trainable_paths(arch)}


def loss_and_grad(arch, params, x, labels, mode="train"):
    """(loss, accuracy, grads, bn_updates) on one batch."""
    logits, cache = forward(arch, params, x, mode)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    acc = float((logits.argmax(axis=1) == labels).mean())
    grads = backward(arch, cache, dlogits) if mode == "train" else {}
    return loss, acc, grads, cache["bn_updates"]


# ---------------------------------------------------------------------------
# optimizer


def effective_lr(config: TrainConfig, step: int, epoch: int) -> float:
    lr = config.lr * (0.1 ** sum(1 for m in config.milestones if epoch >= m))
    if config.warmup_steps > 0:
        lr *= min(1.0, (step + 1) / config.warmup_steps)
    return lr


def sgd_step(params, grads, mask, velocity, config: TrainConfig, step: int, epoch: int = 0):
    """One momentum-SGD update; pruned weights end the step at exactly zero.

    v <- momentum*v + (g + wd*theta); theta <- theta - lr_eff*v; theta <- theta*m.
    Weight decay touches conv/dense weights only.
    """
    lr = effective_lr(config, step, epoch)
    for path, g in grads.items():
        p = params[path]
        if p.shape != g.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.shape} at {path}")
        if config.weight_decay and path.endswith("/weight"):
            g = g + config.weight_decay * p
        v = velocity.get(path)
        v = g if v is None or config.momentum == 0.0 else config.momentum * v + g
        velocity[path] = v
        params[path] = p - lr * v
    for path, m in mask.items():
        p = params[path]
        if p.shape != m.shape:
            raise ShapeError(f"mask shape {m.shape} != param shape {p.shape} at {path}")
        params[path] = p * m
    return params, velocity


def estimate_bn_stats(arch, params, images, batch_size=500) -> dict[str, np.ndarray]:
    """Re-estimate batch-norm running stats with one pass over ``images``.

    Batches are normalized with their own statistics (as in training) while the
    exact per-channel mean/variance of the whole pass is aggregated; no weights
    change. Returns replacement ``.../rmean`` and ``.../rvar`` entries.
    """
    sums: dict[str, np.ndarray] = {}
    sqsums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for b0 in range(0, len(images), batch_size):
        x = images[b0 : b0 + batch_size]
        _, cache = forward(arch, params, x, "collect")
        batch_means = {p[: -len("/rmean")]: stat for p, (stat, _) in cache["bn_updates"].items()
                       if p.endswith("/rmean")}
        for path, (stat, m) in cache["bn_updates"].items():
            if not path.endswith("/rvar"):
                continue
            key = path[: -len("/rvar")]
            mu = batch_means[key]
            sums[key] = sums.get(key, 0.0) + mu * m
            sqsums[key] = sqsums.get(key, 0.0) + (stat + mu * mu) * m  # var + mean^2 = E[x^2]
            counts[key] = counts.get(key, 0) + m
    out = {}
    for key in sums:
        mean = sums[key] / counts[key]
        out[f"{key}/rmean"] = mean.astype(np.float32)
        out[f"{key}/rvar"] = np.maximum(sqsums[key] / counts[key] - mean * mean, 0.0).astype(np.float32)
    return out


def accuracy(arch, params, images, labels, batch_size=500) -> float:
    correct = 0
    for b0 in range(0, len(labels), batch_size):
        x = images[b0 : b0 + batch_size]
        y = labels[b0 : b0 + batch_size]
        logits, _ = forward(arch, params, x, "eval")
        correct += int((logits.argmax(axis=1) == y).sum())
    return correct / max(len(labels), 1)


def train(arch: ArchDescriptor, params: dict, mask: dict, train_data, test_data,
          config: TrainConfig, *, augment_fn=None, step_offset: int = 0,
          max_steps: int | None = None) -> tuple[dict, MetricsRecord]:
    """Full training loop; deterministic given (params, mask, config.seed).

    ``train_data``/``test_data`` expose ``images`` and ``labels``. Data order is
    reshuffled each epoch from the data-order substream; augmentation (if any)
    draws only from the augmentation substream. ``max_steps`` cuts the run
    short after that many optimizer steps (used for rewind captures).
    """
    rng = Rng(config.seed)
    params = {k: v.copy() for k, v in params.items()}
    velocity: dict[str, np.ndarray] = {}
    record = MetricsRecord(arch_name=arch.name(),
                           dataset=getattr(train_data, "name", ""),
                           seed=config.seed, weight_decay=config.weight_decay)
    n = len(train_data.labels)
    step = step_offset
    taken = 0
    done = max_steps is not None and max_steps <= 0
    for epoch in range(config.epochs):
        if done or n == 0:
            break
        perm = rng.permutation("data-order", n)
        loss_sum = 0.0
        correct = 0
        seen = 0
        for b0 in range(0, n, config.batch_size):
            idx = perm[b0 : b0 + config.batch_size]
            x = train_data.images[idx]
            y = train_data.labels[idx]
            if augment_fn is not None:
                x = augment_fn(x, rng)
            loss, acc, grads, bn_up = loss_and_grad(arch, params, x, y, "train")
            params.update(bn_up)
            sgd_step(params, grads, mask, velocity, config, step, epoch=epoch)
            step += 1
            taken += 1
            loss_sum += loss * len(idx)
            correct += int(round(acc * len(idx)))
            seen += len(idx)
            if max_steps is not None and taken >= max_steps:
                done = True
                break
        record.epoch_train_loss.append(loss_sum / max(seen, 1))
        record.epoch_train_acc.append(correct / max(seen, 1))
    if config.epochs > 0 and record.epoch_train_loss:
        record.final_train_loss = record.epoch_train_loss[-1]
    if (config.epochs > 0 and max_steps is None and test_data is not None
            and len(test_data.labels) > 0):
        record.final_test_acc = accuracy(arch, params, test_data.images, test_data.labels)
    return params, record
