"""Dataset loading (MNIST IDX, CIFAR-10 binary), normalization, augmentation,
and synthetic datasets for fast tests.

No network access: loaders read local files only. ``fetch_instructions`` tells
a user where to put them.
"""

from __future__ import annotations

import gzip
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DataBadMagic, DataCountMismatch,
                     DataRecordMisaligned, DataTruncated)
from .tensor import Rng

MNIST_MEAN, MNIST_STD = 0.1307, 0.3081
CIFAR10_MEAN = (0.4914, 0.4822, 0.4465)
CIFAR10_STD = (0.2470, 0.2435, 0.2616)

_MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}
_CIFAR_TRAIN = [f"data_batch_{i}.bin" for i in range(1, 6)]
_CIFAR_TEST = ["test_batch.bin"]
_CIFAR_RECORD = 3073  # 1 label byte + 3072 pixel bytes (R, G, B planes)


@dataclass
class Dataset:
    name: str
    split: str
    images: np.ndarray          # (N, C, H, W) float32, normalized
    labels: np.ndarray          # (N,) int64
    mean: tuple = ()
    std: tuple = ()

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, n: int) -> "Dataset":
        return Dataset(self.name, self.split, self.images[:n], self.labels[:n],
                       self.mean, self.std)


def fetch_instructions(name: str, directory: str) -> str:
    if name == "mnist":
        files = ", ".join(f for pair in _MNIST_FILES.values() for f in pair)
        return (f"MNIST not found under {directory}. Download the four IDX files "
                f"({files}, optionally .gz) from an MNIST mirror, e.g. "
                f"https://ossci-datasets.s3.amazonaws.com/mnist/, into that directory.")
    if name == "cifar10":
        return (f"CIFAR-10 not found under {directory}. Download and unpack "
                f"cifar-10-binary.tar.gz from https://www.cs.toronto.edu/~kriz/cifar.html "
                f"so that data_batch_*.bin/test_batch.bin sit in that directory "
                f"(a cifar-10-batches-bin subdirectory also works).")
    return f"unknown dataset {name!r}"


def _open_maybe_gz(base_path: str):
    if os.path.exists(base_path):
        return open(base_path, "rb")
    if os.path.exists(base_path + ".gz"):
        return gzip.open(base_path + ".gz", "rb")
    raise FileNotFoundError(base_path)


def _read_idx_images(path: str) -> np.ndarray:
    with _open_maybe_gz(path) as f:
        head = f.read(16)
        if len(head) < 16:
            raise DataTruncated(f"{path}: IDX image header needs 16 bytes, got {len(head)}")
        magic, count, rows, cols = struct.unpack(">IIII", head)
        if magic != 0x00000803:
            raise DataBadMagic(f"{path}: image magic {magic:#010x}, expected 0x00000803")
        expected = count * rows * cols
        body = f.read()  # bounded by the actual file, however the header lies
    if len(body) < expected:
        raise DataTruncated(f"{path}: expected {expected} pixel bytes, got {len(body)}")
    if len(body) > expected:
        raise DataCountMismatch(f"{path}: trailing bytes after {count} images of {rows}x{cols}")
    return np.frombuffer(body, dtype=np.uint8).reshape(count, rows, cols)


def _read_idx_labels(path: str) -> np.ndarray:
    with _open_maybe_gz(path) as f:
        head = f.read(8)
        if len(head) < 8:
            raise DataTruncated(f"{path}: IDX label header needs 8 bytes, got {len(head)}")
        magic, count = struct.unpack(">II", head)
        if magic != 0x00000801:
            raise DataBadMagic(f"{path}: label magic {magic:#010x}, expected 0x00000801")
        body = f.read()
    if len(body) < count:
        raise DataTruncated(f"{path}: expected {count} label bytes, got {len(body)}")
    if len(body) > count:
        raise DataCountMismatch(f"{path}: trailing bytes after {count} labels")
    labels = np.frombuffer(body, dtype=np.uint8).astype(np.int64)
    if labels.size and labels.max() > 9:
        raise DataCountMismatch(f"{path}: label value {labels.max()} outside [0, 9]")
    return labels


def load_mnist(directory: str) -> tuple[Dataset, Dataset]:
    """Parse the four big-endian IDX files; pixels to [0,1] then normalized."""
    out = []
    for split in ("train", "test"):
        img_name, lbl_name = _MNIST_FILES[split]
        images = _read_idx_images(os.path.join(directory, img_name))
        labels = _read_idx_labels(os.path.join(directory, lbl_name))
        if len(images) != len(labels):
            raise DataCountMismatch(
                f"{directory}: {split} has {len(images)} images but {len(labels)} labels")
        x = images.astype(np.float32) / 255.0
        x = (x - MNIST_MEAN) / MNIST_STD
        out.append(Dataset("mnist", split, x[:, None, :, :], labels,
                           (MNIST_MEAN,), (MNIST_STD,)))
    return out[0], out[1]


def _cifar_dir(directory: str) -> str:
    sub = os.path.join(directory, "cifar-10-batches-bin")
    return sub if os.path.isdir(sub) else directory


def _read_cifar_batch(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) % _CIFAR_RECORD != 0:
        offset = (len(blob) // _CIFAR_RECORD) * _CIFAR_RECORD
        raise DataRecordMisaligned(
            f"{path}: size {len(blob)} is not a multiple of {_CIFAR_RECORD}; "
            f"trailing partial record at byte offset {offset}")
    records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    if labels.size and labels.max() > 9:
        bad = int(np.argmax(labels > 9))
        raise DataRecordMisaligned(
            f"{path}: label {labels[bad]} outside [0, 9] at byte offset {bad * _CIFAR_RECORD}")
    images = records[:, 1:].reshape(-1, 3, 32, 32)
    return images, labels


def load_cifar10(directory: str) -> tuple[Dataset, Dataset]:
    directory = _cifar_dir(directory)
    out = []
    for split, names in (("train", _CIFAR_TRAIN), ("test", _CIFAR_TEST)):
        imgs, lbls = [], []
        for name in names:
            i, l = _read_cifar_batch(os.path.join(directory, name))
            imgs.append(i)
            lbls.append(l)
        images = np.concatenate(imgs).astype(np.float32) / 255.0
        labels = np.concatenate(lbls)
        mean = np.array(CIFAR10_MEAN, dtype=np.float32).reshape(1, 3, 1, 1)
        std = np.array(CIFAR10_STD, dtype=np.float32).reshape(1, 3, 1, 1)
        images = (images - mean) / std
        out.append(Dataset("cifar10", split, images, labels, CIFAR10_MEAN, CIFAR10_STD))
    return out[0], out[1]


def augment_batch(x: np.ndarray, rng: Rng, pad: int = 4) -> np.ndarray:
    """Pad-reflect, random crop, random horizontal flip.

    Consumes exactly 3 uniforms per image from the augmentation substream, so
    augmentation never perturbs the init or data-order streams.
    """
    n, c, h, w = x.shape
    u = rng.uniform64("augmentation", 3 * n)
    dy = np.minimum((u[0::3] * (2 * pad + 1)).astype(np.int64), 2 * pad)
    dx = np.minimum((u[1::3] * (2 * pad + 1)).astype(np.int64), 2 * pad)
    flip = u[2::3] < 0.5
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="reflect")
    out = np.empty_like(x)
    for i in range(n):
        img = padded[i, :, dy[i] : dy[i] + h, dx[i] : dx[i] + w]
        out[i] = img[:, :, ::-1] if flip[i] else img
    return out


# ---------------------------------------------------------------------------
# synthetic datasets


@dataclass(frozen=True)
class SynthSpec:
    generator: str = "gaussian-blobs"   # or "two-spirals"
    n_per_class: int = 100
    num_classes: int = 10
    input_shape: tuple[int, ...] = (16,)
    noise: float = 0.4   # keeps default blobs learnable by a width-8 mlp in 200 steps
    seed: int = 0
    test_fraction: float = 0.25


def synth(spec: SynthSpec) -> tuple[Dataset, Dataset]:
    """Separable-by-construction dataset, bit-deterministic for a fixed seed."""
    rng = Rng(spec.seed)
    dim = int(np.prod(spec.input_shape))
    name = f"synth-{spec.generator}"
    if spec.generator == "gaussian-blobs":
        k = spec.num_classes
        n = spec.n_per_class * k
        centers = rng.normal64("synth-data", k * dim).reshape(k, dim)
        if dim >= k:
            # orthonormal directions keep every pair of centers 2*sqrt(2) apart
            q, _ = np.linalg.qr(centers.T)
            centers = q.T[:k] * 2.0
        else:
            norms = np.linalg.norm(centers, axis=1, keepdims=True)
            centers = centers / np.maximum(norms, 1e-9) * 2.0
        labels = np.tile(np.arange(k, dtype=np.int64), spec.n_per_class)
        noise = rng.normal64("synth-data", n * dim).reshape(n, dim) * spec.noise
        x = centers[labels] + noise
    elif spec.generator == "two-spirals":
        if spec.num_classes != 2:
            raise ConfigError("two-spirals is a 2-class generator")
        if dim < 2:
            raise ConfigError("two-spirals needs input dimension >= 2")
        n = spec.n_per_class * 2
        t = rng.uniform64("synth-data", n) * 3.0 * np.pi + 0.5
        labels = np.tile(np.arange(2, dtype=np.int64), spec.n_per_class)
        sign = np.where(labels == 0, 1.0, -1.0)
        xy = np.stack([sign * t * np.cos(t), sign * t * np.sin(t)], axis=1) / (3.0 * np.pi)
        xy = xy + rng.normal64("synth-data", n * 2).reshape(n, 2) * spec.noise
        x = np.zeros((n, dim))
        x[:, :2] = xy
    else:
        raise ConfigError(f"unknown synthetic generator {spec.generator!r}")
    x = x.astype(np.float32).reshape(n, *spec.input_shape)
    n_test = int(round(n * spec.test_fraction))
    n_train = n - n_test
    train = Dataset(name, "train", x[:n_train], labels[:n_train])
    test = Dataset(name, "test", x[n_train:], labels[n_train:])
    return train, test
