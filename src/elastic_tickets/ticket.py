"""Sparse tickets: rewind weights + binary mask + provenance, and their file format.

The ``.eltk`` container is deliberately dumb so any language can read it:

    magic ``ELTK`` | u32 LE version=1 | u64 LE header length |
    UTF-8 JSON header | raw little-endian payload | u32 LE CRC32(payload)

The header carries the architecture, metadata, and a tensor index of
(name, kind, shape, offset, length) entries; ``f32`` tensors are raw float32
and masks are one byte per entry (0/1). Round trips are bit-exact.

``save_ticket`` builds the index from shapes alone, then streams each tensor
from its own buffer while it updates the CRC, so it holds no payload copy.
Like every artifact file, it is written through ``atomic_open``, so the path
holds either the previous file or the complete new one. ``load_ticket``
reads the file once, slices tensors out of it without copying, keeps one
array per tensor, and rejects a file whose ticket fails ``check_ticket``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import arch as arch_mod
from .arch import ArchDescriptor
from .errors import (ShapeError, TicketBadChecksum, TicketBadMagic,
                     TicketBadVersion, TicketInvalid, TicketTruncated)
from .tensor import Rng

_MAGIC = b"ELTK"
_VERSION = 1


@dataclass
class SparseTicket:
    arch: ArchDescriptor
    rewind_weights: dict[str, np.ndarray]
    mask: dict[str, np.ndarray]
    rewind_step: int = 0
    provenance: dict = field(default_factory=dict)
    created_at: str = ""  # left empty by default so artifacts byte-reproduce


@dataclass
class SparsityReport:
    total: int
    zeros: int
    overall: float
    per_path: dict[str, tuple[int, int, float]]    # path -> (zeros, total, fraction)
    per_stage: dict[str, tuple[int, int, float]]


def _stage_key(path: str) -> str:
    return path.split("/")[0]


def sparsity(ticket: SparseTicket) -> SparsityReport:
    """Exact pruned fractions from integer zero/total counts."""
    per_path = {}
    per_stage_counts: dict[str, list[int]] = {}
    total = 0
    zeros = 0
    for path in arch_mod.prunable_paths(ticket.arch):
        m = ticket.mask[path]
        t = int(m.size)
        z = t - int(np.count_nonzero(m))
        per_path[path] = (z, t, z / t)
        key = _stage_key(path)
        agg = per_stage_counts.setdefault(key, [0, 0])
        agg[0] += z
        agg[1] += t
        total += t
        zeros += z
    per_stage = {k: (z, t, z / t) for k, (z, t) in per_stage_counts.items()}
    return SparsityReport(total=total, zeros=zeros, overall=zeros / total,
                          per_path=per_path, per_stage=per_stage)


def check_ticket(ticket: SparseTicket) -> list[str]:
    """List of invariant violations (empty = valid ticket)."""
    problems = []
    expected = set(arch_mod.prunable_paths(ticket.arch))
    got = set(ticket.mask)
    if expected != got:
        problems.append(f"mask keys differ from prunable paths: missing={sorted(expected - got)}, "
                        f"extra={sorted(got - expected)}")
    spec_shapes = {s.path: s.shape for s in arch_mod.param_specs(ticket.arch)}
    for path, shape in spec_shapes.items():
        w = ticket.rewind_weights.get(path)
        if w is None:
            problems.append(f"missing weight tensor {path}")
        elif tuple(w.shape) != shape:
            problems.append(f"weight {path} has shape {tuple(w.shape)}, expected {shape}")
    for path in sorted(expected & got):
        m = ticket.mask[path]
        if tuple(m.shape) != spec_shapes[path]:
            problems.append(f"mask {path} has shape {tuple(m.shape)}, expected {spec_shapes[path]}")
            continue
        zero = m == 0
        if not (zero | (m == 1)).all():
            problems.append(f"mask {path} has non-binary entries")
            continue
        w = ticket.rewind_weights.get(path)
        if w is not None and tuple(w.shape) == spec_shapes[path]:
            if np.any(zero & (w != 0)):
                problems.append(f"weights at {path} are nonzero under a zero mask")
    return problems


def validate_ticket(ticket: SparseTicket) -> None:
    problems = check_ticket(ticket)
    if problems:
        raise ShapeError("invalid ticket: " + "; ".join(problems))


def apply_mask(weights: dict[str, np.ndarray], mask: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """New arrays: weight * mask for masked paths (one product each), a copy
    of every other weight."""
    out = {k: v if k in mask else v.copy() for k, v in weights.items()}
    for path, m in mask.items():
        w = weights[path]
        out[path] = (w * m).astype(w.dtype, copy=False)
    return out


def make_ticket(arch: ArchDescriptor, weights: dict, mask: dict, rewind_step: int,
                provenance: dict) -> SparseTicket:
    """Construct a ticket, enforcing the masked-weights invariant."""
    t = SparseTicket(arch=arch, rewind_weights=apply_mask(weights, mask),
                     mask={k: v.astype(np.float32) for k, v in mask.items()},
                     rewind_step=rewind_step, provenance=provenance)
    validate_ticket(t)
    return t


def all_ones_mask(arch: ArchDescriptor) -> dict[str, np.ndarray]:
    shapes = {s.path: s.shape for s in arch_mod.param_specs(arch)}
    return {p: np.ones(shapes[p], dtype=np.float32) for p in arch_mod.prunable_paths(arch)}


def reinit_ticket(ticket: SparseTicket, rng: Rng) -> SparseTicket:
    """Keep the mask, redraw the weights from a fresh initialization."""
    fresh = arch_mod.init_params(ticket.arch, rng)
    prov = dict(ticket.provenance)
    prov["method"] = "reinit"
    prov["reinit_seed"] = rng.seed
    return make_ticket(ticket.arch, fresh, {k: v.copy() for k, v in ticket.mask.items()},
                       ticket.rewind_step, prov)


# ---------------------------------------------------------------------------
# file format


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Write to a temporary file beside ``path`` and rename it over ``path`` when
    the block ends; on any failure the temporary file is removed and ``path`` is
    untouched. No ``fsync``: this covers a killed process, not a power loss."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}."
                       f"{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(doc, path) -> None:
    """``doc`` as indented, key-sorted JSON with a final newline."""
    with atomic_open(path) as f:
        f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def save_ticket(ticket: SparseTicket, path) -> None:
    tensors = ([(name, "f32", ticket.rewind_weights[name])
                for name in sorted(ticket.rewind_weights)]
               + [(name, "mask-u8", ticket.mask[name]) for name in sorted(ticket.mask)])
    index = []
    offset = 0
    for name, kind, arr in tensors:
        shape = list(np.shape(arr)) or [1]  # stored arrays are at least 1-d
        length = math.prod(shape) * (4 if kind == "f32" else 1)
        index.append({"name": name, "kind": kind, "shape": shape,
                      "offset": offset, "length": length})
        offset += length
    header = {
        "arch": arch_mod.arch_to_json(ticket.arch),
        "meta": {
            "rewind_step": ticket.rewind_step,
            "provenance": ticket.provenance,
            "created_at": ticket.created_at,
        },
        "tensors": index,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(_MAGIC + struct.pack("<IQ", _VERSION, len(header_bytes)) + header_bytes)
        crc = 0
        for _, kind, arr in tensors:
            stored = (np.ascontiguousarray(arr, dtype=np.float32) if kind == "f32"
                      else np.ascontiguousarray(arr).astype(np.uint8))
            buf = memoryview(stored).cast("B")
            crc = zlib.crc32(buf, crc)
            f.write(buf)
        f.write(struct.pack("<I", crc & 0xFFFFFFFF))


def load_ticket(path) -> SparseTicket:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16:
        raise TicketTruncated(f"{path}: file too short for header ({len(blob)} bytes)")
    if blob[:4] != _MAGIC:
        raise TicketBadMagic(f"{path}: bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != _VERSION:
        raise TicketBadVersion(f"{path}: unsupported version {version}, expected {_VERSION}")
    (header_len,) = struct.unpack("<Q", blob[8:16])
    if len(blob) < 16 + header_len + 4:
        raise TicketTruncated(f"{path}: truncated header/payload")
    header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
    payload = memoryview(blob)[16 + header_len : len(blob) - 4]
    expected = max((e["offset"] + e["length"] for e in header["tensors"]), default=0)
    if len(payload) < expected:
        raise TicketTruncated(
            f"{path}: payload holds {len(payload)} bytes, index requires {expected}")
    (crc_stored,) = struct.unpack("<I", blob[-4:])
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    if crc != crc_stored:
        raise TicketBadChecksum(f"{path}: payload CRC32 {crc:#010x} != stored {crc_stored:#010x}")
    weights: dict[str, np.ndarray] = {}
    mask: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        lo, hi = entry["offset"], entry["offset"] + entry["length"]
        if hi > len(payload):
            raise TicketTruncated(f"{path}: tensor {entry['name']} extends past payload end")
        raw = payload[lo:hi]
        shape = tuple(entry["shape"])
        # the payload offset is not aligned in general: copy each tensor out of it
        if entry["kind"] == "f32":
            weights[entry["name"]] = np.frombuffer(raw, dtype=np.float32).reshape(shape).copy()
        elif entry["kind"] == "mask-u8":
            mask[entry["name"]] = np.frombuffer(raw, dtype=np.uint8).reshape(shape).astype(np.float32)
        else:
            raise TicketBadVersion(f"{path}: unknown tensor kind {entry['kind']!r}")
    meta = header["meta"]
    ticket = SparseTicket(
        arch=arch_mod.arch_from_json(header["arch"]),
        rewind_weights=weights,
        mask=mask,
        rewind_step=int(meta["rewind_step"]),
        provenance=meta["provenance"],
        created_at=meta["created_at"],
    )
    problems = check_ticket(ticket)
    if problems:
        raise TicketInvalid(f"{path}: invalid ticket: " + "; ".join(problems))
    return ticket
