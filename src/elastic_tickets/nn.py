"""Layer kernels with hand-written backward passes, masked SGD, and training.

All kernels preserve the dtype of their inputs: float32 for normal training,
float64 when a caller (finite-difference checks, saliency scoring) needs tight
numerics. Pruned weights are kept at exactly zero by re-applying the binary
mask after every optimizer step.

Only a train-mode forward records a backward tape; eval and collect passes
keep nothing past each layer, and apply ReLU in place. A conv's tape entry
holds its padded input, kh*kw times smaller than its im2col matrix.

No conv ever holds the patch matrix of a whole batch. The forward GEMMs one
block of images at a time into its slice of the output, and the backward
runs one (dW, dx) GEMM pair per kernel tap over that tap's shifted window.
Both splits give the same bits as the unsplit GEMM only while every piece
stays on OpenBLAS's blocked GEMM kernel: a one-row product takes the gemv
path, and products below about 1e6 multiply-adds take the small-matrix
kernel, and either sums in another order. So forward blocks hold at least
``_PATCH_ROWS`` patch rows (the last partial block joins the one before it),
and a backward whose per-tap GEMMs fall under ``_TAP_GEMM_FLOOR``
multiply-adds, or have a single row or column, takes all taps in one GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arch import ArchDescriptor, BN_EPS, BN_MOMENTUM, FAMILY_MLP, FAMILY_RESNET, FAMILY_VGG
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


def _dense_b(cache, dy):
    x, w, has_b = cache
    dw = x.T @ dy
    db = dy.sum(axis=0) if has_b else None
    dx = dy @ w.T
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
# docstring): 51 200 patch rows is 50 images at 32x32.
_PATCH_ROWS = 51_200
_TAP_GEMM_FLOOR = 1 << 22


def _conv_f(x, w, stride, pad):
    n, h, wd, c = x.shape
    f, c_in, kh, kw = w.shape
    if c != c_in:
        raise ShapeError(f"conv input channels {c} != weight channels {c_in}")
    if pad:
        x_pad = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    else:
        x_pad = x
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (wd + 2 * pad - kw) // stride + 1
    wmat = np.ascontiguousarray(w.transpose(2, 3, 1, 0).reshape(kh * kw * c, f))
    y = np.empty((n, h_out, w_out, f), dtype=np.result_type(x_pad, wmat))
    step = max(1, _PATCH_ROWS // (h_out * w_out))
    blocks = max(1, n // step)
    for k in range(blocks):
        b0, b1 = k * step, (n if k == blocks - 1 else (k + 1) * step)
        mat = _im2col(x_pad[b0:b1], kh, kw, stride, h_out, w_out)
        np.matmul(mat, wmat, out=y[b0:b1].reshape(-1, f))
    return y, (x_pad, w, stride, pad, h_out, w_out)


def _conv_b(cache, dy):
    x_pad, w, stride, pad, h_out, w_out = cache
    n = x_pad.shape[0]
    f, c, kh, kw = w.shape
    dy_mat = dy.reshape(n * h_out * w_out, f)
    wmat = w.transpose(2, 3, 1, 0).reshape(kh * kw * c, f)
    dwmat = np.empty(wmat.shape, dtype=np.result_type(x_pad, dy_mat))
    dx_pad = np.zeros(x_pad.shape, dtype=dy.dtype)
    windows = [(slice(None), slice(i, i + stride * h_out, stride),
                slice(j, j + stride * w_out, stride)) for i in range(kh) for j in range(kw)]
    if min(c, f) > 1 and dy_mat.shape[0] * c * f >= _TAP_GEMM_FLOOR:
        groups = [[win] for win in windows]
    else:
        groups = [windows]
    for g, group in enumerate(groups):
        # this group's columns of the patch matrix, and rows of dW
        rows = slice(g * len(group) * c, (g + 1) * len(group) * c)
        cols = np.stack([x_pad[win] for win in group], axis=3).reshape(-1, len(group) * c)
        np.matmul(cols.T, dy_mat, out=dwmat[rows])
        del cols  # freed before dcols, which is as large
        dcols = (dy_mat @ wmat[rows].T).reshape(n, h_out, w_out, len(group), c)
        for t, win in enumerate(group):
            dx_pad[win] += dcols[:, :, :, t, :]
    dw = dwmat.reshape(kh, kw, c, f).transpose(3, 2, 0, 1)
    if pad:
        dx = dx_pad[:, pad:-pad, pad:-pad, :]
    else:
        dx = dx_pad
    return dx, np.ascontiguousarray(dw)


def _bn_f(x, gamma, beta, rmean, rvar, mode, eps=BN_EPS, momentum=BN_MOMENTUM):
    axes = (0, 1, 2) if x.ndim == 4 else (0,)
    if mode in ("train", "collect"):
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        m = x.size // x.shape[-1]
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
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = x - mean  # channels-last broadcast
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
# family forwards


def _bn_params(params, prefix):
    return (params[f"{prefix}/gamma"], params[f"{prefix}/beta"],
            params[f"{prefix}/rmean"], params[f"{prefix}/rvar"])


def _resnet_unit_f(params, prefix, x, mode, bn_updates):
    """One basic block. Its layer caches are kept only in train mode, so an
    eval or collect pass frees each saved input as soon as the next layer ran."""
    stride = 2 if (f"{prefix}/shortcut/weight" in params) else 1
    tape = {}
    keep = tape.__setitem__ if mode == "train" else (lambda name, cache: None)

    def conv_bn(h, conv, bn, stride, pad):
        h, c = _conv_f(h, params[f"{prefix}/{conv}/weight"], stride, pad)
        keep(conv, c)
        h, c, rm, rv = _bn_f(h, *_bn_params(params, f"{prefix}/{bn}"), mode)
        keep(bn, c)
        bn_updates[f"{prefix}/{bn}/rmean"], bn_updates[f"{prefix}/{bn}/rvar"] = rm, rv
        return h

    h, c = _relu_f(conv_bn(x, "conv1", "bn1", stride, 1), mode)
    keep("relu1", c)
    h = conv_bn(h, "conv2", "bn2", 1, 1)
    h = h + (conv_bn(x, "shortcut", "bnshortcut", 2, 0) if stride == 2 else x)
    y, c = _relu_f(h, mode)
    keep("relu2", c)
    return y, (prefix, tape)


def _resnet_unit_b(cache, dy, grads):
    prefix, tape = cache

    def bn_conv_b(dy, bn, conv):
        dy, grads[f"{prefix}/{bn}/gamma"], grads[f"{prefix}/{bn}/beta"] = _bn_b(tape[bn], dy)
        dx, grads[f"{prefix}/{conv}/weight"] = _conv_b(tape[conv], dy)
        return dx

    dpre = _relu_b(tape["relu2"], dy)
    dr1 = bn_conv_b(dpre, "bn2", "conv2")
    dx = bn_conv_b(_relu_b(tape["relu1"], dr1), "bn1", "conv1")
    if "shortcut" in tape:
        return dx + bn_conv_b(dpre, "bnshortcut", "shortcut")
    return dx + dpre


def forward(arch: ArchDescriptor, params: dict, x: np.ndarray, mode: str = "train"):
    """Run the network; returns (logits, cache) where cache drives backward.

    Train mode normalizes with batch statistics and records running-stat
    updates in ``cache['bn_updates']``; eval mode uses the stored stats.
    ``collect`` behaves like train but reports raw batch moments instead of
    exponentially averaged ones (used to re-estimate stats over a full pass).
    Only train mode records the backward tape in ``cache['tape']``; eval and
    collect return it empty, so each layer's saved inputs are freed as soon
    as the next layer has run. Conv entries hold the padded input, not its
    im2col matrix, which backward rebuilds.
    """
    if mode not in ("train", "eval", "collect"):
        raise ConfigError(f"mode must be 'train', 'eval' or 'collect', got {mode!r}")
    x = np.asarray(x)
    tape = []
    record = tape.append if mode == "train" else (lambda entry: None)
    bn_updates: dict[str, np.ndarray] = {}
    if arch.family == FAMILY_MLP:
        flat_dim = int(np.prod(arch.input_shape))
        if int(np.prod(x.shape[1:])) != flat_dim:
            raise ShapeError(f"input shape {x.shape[1:]} does not flatten to {flat_dim}")
        h = x.reshape(x.shape[0], flat_dim)
        n_layers = len(arch.widths) - 1
        for k in range(n_layers):
            y, c = _dense_f(h, params[f"layer{k}/weight"], params[f"layer{k}/bias"])
            record(("dense", f"layer{k}", c))
            if k < n_layers - 1:
                y, cr = _relu_f(y, mode)
                record(("relu", None, cr))
            h = y
        logits = h
    elif arch.family == FAMILY_RESNET:
        if tuple(x.shape[1:]) != tuple(arch.input_shape):
            raise ShapeError(f"input shape {x.shape[1:]} != expected {arch.input_shape}")
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1))  # kernels run channels-last
        h, c = _conv_f(x, params["input/conv/weight"], 1, 1)
        record(("conv", "input/conv/weight", c))
        h, c, rm, rv = _bn_f(h, *_bn_params(params, "input/bn"), mode)
        bn_updates["input/bn/rmean"], bn_updates["input/bn/rvar"] = rm, rv
        record(("bn", "input/bn", c))
        h, c = _relu_f(h, mode)
        record(("relu", None, c))
        for i, st in enumerate(arch.stages):
            for j in range(st.units):
                h, c = _resnet_unit_f(params, f"stage{i}/unit{j}", h, mode, bn_updates)
                record(("resnet_unit", None, c))
        h, c = _gap_f(h)
        record(("gap", None, c))
        logits, c = _dense_f(h, params["output/fc/weight"], params["output/fc/bias"])
        record(("dense", "output/fc", c))
    elif arch.family == FAMILY_VGG:
        if tuple(x.shape[1:]) != tuple(arch.input_shape):
            raise ShapeError(f"input shape {x.shape[1:]} != expected {arch.input_shape}")
        if arch.input_shape[1] % (2 ** len(arch.stages)) or arch.input_shape[2] % (2 ** len(arch.stages)):
            raise ShapeError(f"vgg input spatial dims must be divisible by {2 ** len(arch.stages)}")
        h = np.ascontiguousarray(x.transpose(0, 2, 3, 1))  # kernels run channels-last
        for i, st in enumerate(arch.stages):
            for j in range(st.units):
                p = f"stage{i}/unit{j}"
                h, c = _conv_f(h, params[f"{p}/conv/weight"], 1, 1)
                record(("conv", f"{p}/conv/weight", c))
                h, c, rm, rv = _bn_f(h, *_bn_params(params, f"{p}/bn"), mode)
                bn_updates[f"{p}/bn/rmean"], bn_updates[f"{p}/bn/rvar"] = rm, rv
                record(("bn", f"{p}/bn", c))
                h, c = _relu_f(h, mode)
                record(("relu", None, c))
            h, c = _maxpool2x2_f(h)
            record(("maxpool", None, c))
        shape = h.shape
        h = h.reshape(shape[0], -1)
        record(("flatten", None, shape))
        n_head = len(arch.head_widths)
        for k in range(n_head):
            y, c = _dense_f(h, params[f"output/fc{k}/weight"], params[f"output/fc{k}/bias"])
            record(("dense", f"output/fc{k}", c))
            if k < n_head - 1:
                y, cr = _relu_f(y, mode)
                record(("relu", None, cr))
            h = y
        logits = h
    else:
        raise ConfigError(f"unknown family {arch.family!r}")
    cache = {"mode": mode, "tape": tape, "bn_updates": bn_updates}
    return logits, cache


def backward(arch: ArchDescriptor, cache: dict, dlogits: np.ndarray,
             return_input_grad: bool = False):
    """Gradients for every trainable parameter given upstream logits gradient.

    With ``return_input_grad`` the per-sample gradient w.r.t. the network input
    is returned as a second value (in the input's own layout).
    """
    if cache["mode"] != "train":
        raise UsageError("backward requires a cache from a train-mode forward pass")
    grads: dict[str, np.ndarray] = {}
    dy = dlogits
    for kind, name, c in reversed(cache["tape"]):
        if kind == "dense":
            dy, dw, db = _dense_b(c, dy)
            grads[f"{name}/weight"] = dw
            if db is not None:
                grads[f"{name}/bias"] = db
        elif kind == "conv":
            dy, dw = _conv_b(c, dy)
            grads[name] = dw
        elif kind == "bn":
            dy, dg, dbt = _bn_b(c, dy)
            grads[f"{name}/gamma"], grads[f"{name}/beta"] = dg, dbt
        elif kind == "relu":
            dy = _relu_b(c, dy)
        elif kind == "maxpool":
            dy = _maxpool2x2_b(c, dy)
        elif kind == "gap":
            dy = _gap_b(c, dy)
        elif kind == "flatten":
            dy = dy.reshape(c)
        elif kind == "resnet_unit":
            dy = _resnet_unit_b(c, dy, grads)
        else:
            raise UsageError(f"unknown tape entry {kind!r}")
    if return_input_grad:
        if dy.ndim == 4:
            dy = dy.transpose(0, 3, 1, 2)  # back to the caller's channels-first layout
        return grads, dy
    return grads


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
