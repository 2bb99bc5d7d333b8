"""Brute-force reference implementations used only by the test suite.

Everything here is deliberately slow and independent: scalar loops in float64,
full sorts, per-coordinate finite differences. This module must not import any
other module of this package (the test suite enforces that), so agreement with
the fast paths is meaningful evidence.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

SIZE_CAP = 10_000


class OracleGuardError(RuntimeError):
    """Instance too large for a brute-force oracle."""


def _guard(n: int) -> None:
    if n > SIZE_CAP:
        raise OracleGuardError(f"oracle guard: instance size {n} exceeds cap {SIZE_CAP}")


def oracle_matmul(a, b) -> np.ndarray:
    """Triple-loop matrix product, float64 accumulation, rounded to float32."""
    a = np.asarray(a)
    b = np.asarray(b)
    _guard(a.size + b.size)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out.astype(np.float32)


def oracle_forward_scalar(layers, x) -> np.ndarray:
    """Evaluate a tiny network with scalar loops in float64.

    ``layers`` is a list of dicts:
      {"kind": "dense", "w": (in,out), "b": (out,) or None}
      {"kind": "relu"}
      {"kind": "conv2d", "w": (F,C,kh,kw), "stride": s, "pad": p}
      {"kind": "bn_eval", "gamma","beta","mean","var","eps"}
      {"kind": "flatten"}
    """
    total = sum(int(np.asarray(l["w"]).size) for l in layers if "w" in l)
    _guard(total)
    h = np.asarray(x, dtype=np.float64)
    for layer in layers:
        kind = layer["kind"]
        if kind == "dense":
            w = np.asarray(layer["w"], dtype=np.float64)
            b = layer.get("b")
            n, d_in = h.shape
            d_out = w.shape[1]
            y = np.zeros((n, d_out))
            for i in range(n):
                for j in range(d_out):
                    acc = 0.0
                    for t in range(d_in):
                        acc += h[i, t] * w[t, j]
                    if b is not None:
                        acc += float(b[j])
                    y[i, j] = acc
            h = y
        elif kind == "relu":
            h = np.where(h > 0, h, 0.0)
        elif kind == "conv2d":
            w = np.asarray(layer["w"], dtype=np.float64)
            s = layer.get("stride", 1)
            p = layer.get("pad", 0)
            n, c, hi, wi = h.shape
            f, c2, kh, kw = w.shape
            assert c == c2
            ho = (hi + 2 * p - kh) // s + 1
            wo = (wi + 2 * p - kw) // s + 1
            y = np.zeros((n, f, ho, wo))
            for b_i in range(n):
                for fo in range(f):
                    for oy in range(ho):
                        for ox in range(wo):
                            acc = 0.0
                            for ci in range(c):
                                for ky in range(kh):
                                    for kx in range(kw):
                                        iy = oy * s + ky - p
                                        ix = ox * s + kx - p
                                        if 0 <= iy < hi and 0 <= ix < wi:
                                            acc += h[b_i, ci, iy, ix] * w[fo, ci, ky, kx]
                            y[b_i, fo, oy, ox] = acc
            h = y
        elif kind == "bn_eval":
            gamma = np.asarray(layer["gamma"], dtype=np.float64)
            beta = np.asarray(layer["beta"], dtype=np.float64)
            mean = np.asarray(layer["mean"], dtype=np.float64)
            var = np.asarray(layer["var"], dtype=np.float64)
            eps = float(layer.get("eps", 1e-5))
            y = np.empty_like(h)
            it = np.ndindex(h.shape)
            for idx in it:
                ch = idx[1]
                y[idx] = gamma[ch] * (h[idx] - mean[ch]) / math.sqrt(var[ch] + eps) + beta[ch]
            h = y
        elif kind == "flatten":
            h = h.reshape(h.shape[0], -1)
        else:
            raise ValueError(f"oracle has no layer kind {kind!r}")
    return h


def oracle_global_prune(named_values, target_zeros: int, alive=None) -> dict:
    """Full-sort global magnitude pruning.

    ``named_values``: list of (name, flat float array) in canonical order.
    Keeps the largest magnitudes among alive entries, ties broken by earlier
    (name order, flat index) kept first. Returns name -> flat 0/1 mask.
    """
    entries = []
    total = 0
    for rank, (name, vals) in enumerate(named_values):
        vals = np.asarray(vals).ravel()
        total += vals.size
        live = np.ones(vals.size, dtype=bool) if alive is None else np.asarray(alive[name]).ravel() > 0
        for i, v in enumerate(vals):
            entries.append((rank, i, abs(float(v)), bool(live[i])))
    _guard(total)
    assert 0 <= target_zeros <= total
    keep = (total - target_zeros)
    order = sorted((e for e in entries if e[3]), key=lambda e: (-e[2], e[0], e[1]))
    kept = {(rank, i) for rank, i, _, _ in order[:keep]}
    out = {}
    for rank, (name, vals) in enumerate(named_values):
        vals = np.asarray(vals).ravel()
        mask = np.zeros(vals.size, dtype=np.float32)
        for i in range(vals.size):
            if (rank, i) in kept:
                mask[i] = 1.0
        out[name] = mask
    return out


def oracle_fd_grad(loss_fn, theta: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences, one coordinate at a time, in float64."""
    theta = np.asarray(theta, dtype=np.float64)
    _guard(theta.size)
    grad = np.zeros_like(theta)
    flat = theta.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = float(loss_fn(theta))
        flat[i] = orig - h
        down = float(loss_fn(theta))
        flat[i] = orig
        g[i] = (up - down) / (2.0 * h)
    return grad


def oracle_encode_ticket(arch_doc: dict, meta: dict, weights: dict, mask: dict) -> bytes:
    """The v1 ``.eltk`` bytes built the simple way: a ``tobytes`` copy of each
    tensor and one joined payload. ``arch_doc`` is the arch's JSON form and
    ``meta`` holds ``rewind_step``, ``provenance`` and ``created_at``."""
    index, chunks, offset = [], [], 0
    for kind, tensors in (("f32", weights), ("mask-u8", mask)):
        for name in sorted(tensors):
            if kind == "f32":
                arr = np.ascontiguousarray(tensors[name], dtype=np.float32)
            else:
                arr = np.ascontiguousarray(tensors[name]).astype(np.uint8)
            raw = arr.tobytes()
            index.append({"name": name, "kind": kind, "shape": list(arr.shape),
                          "offset": offset, "length": len(raw)})
            chunks.append(raw)
            offset += len(raw)
    header = json.dumps({"arch": arch_doc, "meta": meta, "tensors": index},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = b"".join(chunks)
    return (b"ELTK" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header
            + payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def oracle_decode_ticket(blob: bytes) -> tuple[dict, dict, dict]:
    """(header, weights, masks) of a v1 ``.eltk`` file, decoded with a copy of
    the payload and of each tensor's bytes. Checks nothing but the CRC."""
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
    payload = blob[16 + header_len : -4]
    if zlib.crc32(payload) & 0xFFFFFFFF != struct.unpack("<I", blob[-4:])[0]:
        raise ValueError("payload CRC32 mismatch")
    weights, masks = {}, {}
    for entry in header["tensors"]:
        raw = payload[entry["offset"] : entry["offset"] + entry["length"]]
        shape = tuple(entry["shape"])
        if entry["kind"] == "f32":
            weights[entry["name"]] = np.frombuffer(raw, dtype=np.float32).reshape(shape).copy()
        else:
            masks[entry["name"]] = np.frombuffer(raw, dtype=np.uint8).reshape(shape).astype(np.float32)
    return header, weights, masks
