"""Stand-in MNIST (IDX) and CIFAR-10 (binary) files, made from a seed.

The program under test only ever sees these files, through its own loaders.
The pixel statistics follow the real sets closely enough that the preset
recipes (lr included) train: MNIST stand-ins are smooth strokes on an
exactly-zero background, CIFAR stand-ins are smooth colour fields whose
per-channel means sit near the published constants. Uniform noise is
deliberately avoided: on MNIST-shaped noise lr 0.1 diverges.
"""

from __future__ import annotations

import os
import struct

import numpy as np

CIFAR_MEAN_U8 = np.array([0.4914, 0.4822, 0.4465]) * 255.0
CIFAR_STD_U8 = np.array([0.2470, 0.2435, 0.2616]) * 255.0
CIFAR_RECORD = 3073
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}

_STROKES = 3          # strokes per digit class
_STROKE_POINTS = 24   # samples along each quadratic Bezier stroke
_STROKE_SIGMA = 0.8   # pixel-space Gaussian pen radius
_INK_GAIN = 3.6       # blurred pen density -> ink in [0, 1]


def _balanced_labels(rng: np.random.Generator, n: int, classes: int = 10) -> np.ndarray:
    return rng.permutation(np.arange(n) % classes).astype(np.uint8)


def _blur(a: np.ndarray, radius: int, sigma: float) -> np.ndarray:
    """Separable Gaussian blur over the last two axes, zero padding."""
    k = np.exp(-np.arange(-radius, radius + 1) ** 2 / (2 * sigma ** 2)).astype(np.float32)
    k /= k.sum()
    h, w = a.shape[-2:]
    pad = np.pad(a, [(0, 0)] * (a.ndim - 2) + [(radius, radius), (0, 0)])
    a = sum(k[i] * pad[..., i:i + h, :] for i in range(k.size))
    pad = np.pad(a, [(0, 0)] * (a.ndim - 2) + [(0, 0), (radius, radius)])
    return sum(k[i] * pad[..., :, i:i + w] for i in range(k.size))


def mnist_images(rng: np.random.Generator, labels: np.ndarray,
                 templates: np.ndarray) -> np.ndarray:
    """(n, 28, 28) uint8 digits: jittered class strokes, zero background."""
    n = len(labels)
    t = np.linspace(0.0, 1.0, _STROKE_POINTS)[:, None]
    ctrl = templates[labels] + rng.normal(0.0, 0.9, size=(n, _STROKES, 3, 2))
    ctrl += rng.integers(-2, 3, size=(n, 1, 1, 2))
    p0, p1, p2 = ctrl[:, :, 0:1], ctrl[:, :, 1:2], ctrl[:, :, 2:3]
    pts = (1 - t) ** 2 * p0 + 2 * (1 - t) * t * p1 + t ** 2 * p2   # (n, strokes, points, 2)
    yx = np.clip(np.rint(pts), 0, 27).astype(np.int64).reshape(n, -1, 2)
    canvas = np.zeros((n, 28, 28), dtype=np.float32)
    rows = np.repeat(np.arange(n), yx.shape[1])
    canvas[rows, yx[..., 0].ravel(), yx[..., 1].ravel()] = 1.0   # pen down
    ink = _blur(canvas, 2, _STROKE_SIGMA) * _INK_GAIN
    ink[ink < 0.08] = 0.0
    return (np.clip(ink, 0.0, 1.0) * 255.0).astype(np.uint8)


def _smooth_field(rng: np.random.Generator, shape, coarse: int = 8) -> np.ndarray:
    """Gaussian noise on a coarse grid, nearest-upsampled to 32x32 and box-blurred."""
    z = rng.normal(size=shape + (coarse, coarse)).astype(np.float32)
    up = np.repeat(np.repeat(z, 32 // coarse, axis=-2), 32 // coarse, axis=-1)
    pad = np.pad(up, [(0, 0)] * (up.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    acc = np.zeros_like(up)
    for dy in range(3):
        for dx in range(3):
            acc += pad[..., dy:dy + 32, dx:dx + 32]
    return acc / 9.0


def cifar_images(rng: np.random.Generator, labels: np.ndarray,
                 class_pattern: np.ndarray) -> np.ndarray:
    """(n, 3, 32, 32) uint8 images: class pattern + per-image smooth field."""
    n = len(labels)
    z = class_pattern[labels] + 0.9 * _smooth_field(rng, (n, 3))
    z += 0.25 * rng.normal(size=z.shape).astype(np.float32)
    z -= z.mean(axis=(0, 2, 3), keepdims=True)
    z /= z.std(axis=(0, 2, 3), keepdims=True)
    px = CIFAR_MEAN_U8[None, :, None, None] + CIFAR_STD_U8[None, :, None, None] * z
    return np.clip(np.rint(px), 0, 255).astype(np.uint8)


def _write(path: str, blob: bytes) -> None:
    with open(path, "wb") as f:
        f.write(blob)


def write_mnist(directory: str, seed: int, n_train: int, n_test: int) -> None:
    """The four IDX files ``data.load_mnist`` reads."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng([seed, 0x4D4E])
    templates = rng.uniform(5.0, 23.0, size=(10, _STROKES, 3, 2))
    for split, n in (("train", n_train), ("test", n_test)):
        labels = _balanced_labels(rng, n)
        images = mnist_images(rng, labels, templates)
        img_name, lbl_name = MNIST_FILES[split]
        _write(os.path.join(directory, img_name),
               struct.pack(">IIII", 0x803, n, 28, 28) + images.tobytes())
        _write(os.path.join(directory, lbl_name), struct.pack(">II", 0x801, n) + labels.tobytes())


def write_cifar10(directory: str, seed: int, n_train: int, n_test: int) -> None:
    """Five train batches and a test batch in the CIFAR-10 binary layout."""
    if n_train % len(CIFAR_TRAIN_FILES):
        raise ValueError(f"n_train={n_train} must split evenly over "
                         f"{len(CIFAR_TRAIN_FILES)} files")
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng([seed, 0xC1FA])
    class_pattern = 1.1 * _smooth_field(rng, (10, 3), coarse=4)
    per_file = n_train // len(CIFAR_TRAIN_FILES)
    batches = [(name, per_file) for name in CIFAR_TRAIN_FILES] + [("test_batch.bin", n_test)]
    for name, n in batches:
        labels = _balanced_labels(rng, n)
        images = cifar_images(rng, labels, class_pattern)
        records = np.empty((n, CIFAR_RECORD), dtype=np.uint8)
        records[:, 0] = labels
        records[:, 1:] = images.reshape(n, -1)
        _write(os.path.join(directory, name), records.tobytes())
