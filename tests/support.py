"""Helpers that only the test suite uses, kept out of the runtime package.

Each draws or computes exactly what the package version did before it moved
here, so the tests that use them (criteria 4 and 9 among them) check the
same values.
"""

from __future__ import annotations

import numpy as np

from elastic_tickets import arch as arch_mod
from elastic_tickets.arch import ArchDescriptor, FAMILY_RESNET, FAMILY_VGG, StageSpec
from elastic_tickets.errors import ConfigError, UsageError
from elastic_tickets.ett import APPENDING, SQUEEZE, STRETCH, TransformSpec, _stretch_order
from elastic_tickets.tensor import Rng


def draw(rng: Rng, substream: str, n: int, dist: str = "uniform01") -> np.ndarray:
    """A float32 tensor of n variates from the named substream."""
    if dist == "uniform01":
        return rng.uniform64(substream, n).astype(np.float32)
    if dist == "standard-normal":
        return rng.normal64(substream, n).astype(np.float32)
    raise ConfigError(f"unknown distribution {dist!r}")


def randint_below(rng: Rng, substream: str, bound: int) -> int:
    """One integer in [0, bound) via a single uniform draw."""
    if bound <= 0:
        raise ConfigError(f"bound must be positive, got {bound}")
    u = rng.uniform64(substream, 1)[0]
    return min(int(u * bound), bound - 1)


def channel_stats(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean/std over (N, H, W); the source of the dataset constants."""
    mean = images.mean(axis=(0, 2, 3))
    std = images.std(axis=(0, 2, 3))
    return mean, std


def _shrunk_source_arch(spec: TransformSpec) -> ArchDescriptor:
    """Reconstruct the stretch's source arch from its target and selection."""
    t = spec.target_arch
    drops = [len(s) for s in spec.per_stage_selection]
    if t.family in (FAMILY_RESNET, FAMILY_VGG):
        conv = [StageSpec(st.width, st.units - d)
                for st, d in zip(t.stages, drops[: len(t.stages)])]
        if t.family == FAMILY_RESNET:
            return ArchDescriptor(family=t.family, num_classes=t.num_classes,
                                  input_shape=t.input_shape, stages=tuple(conv))
        head_drop = drops[len(t.stages)] if len(drops) > len(t.stages) else 0
        head = t.head_widths[head_drop:]
        return ArchDescriptor(family=t.family, num_classes=t.num_classes,
                              input_shape=t.input_shape, stages=tuple(conv),
                              head_widths=head)
    # mlp: dropping a hidden layer removes one interior width entry
    order = _stretch_order(len(t.widths) - 1 - drops[0], spec.per_stage_selection[0],
                           spec.ordering or APPENDING)
    kept = [t.widths[slot + 1] for slot, (_, rep) in enumerate(order) if not rep]
    return arch_mod.mlp_arch([t.widths[0]] + kept, input_shape=t.input_shape)


def inverse(spec: TransformSpec) -> TransformSpec:
    """The squeeze that exactly undoes a stretch: drop the replica positions."""
    if spec.direction != STRETCH:
        raise UsageError("inverse is defined for stretch specs only")
    tgt_groups = arch_mod.transform_groups(spec.target_arch)
    drop_sel = []
    for tu, sel in zip(tgt_groups, spec.per_stage_selection):
        n_src = len(tu) - len(sel)
        order = _stretch_order(n_src, sel, spec.ordering or APPENDING)
        drop_sel.append(tuple(slot for slot, (_, rep) in enumerate(order) if rep))
    return TransformSpec(direction=SQUEEZE,
                         per_stage_selection=tuple(drop_sel),
                         ordering=None,
                         replicated_mask_mode=spec.replicated_mask_mode,
                         target_arch=_shrunk_source_arch(spec))
