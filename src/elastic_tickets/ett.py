"""Elastic ticket transforms: stretch a ticket into a deeper family member or
squeeze it into a shallower one, moving whole units (weights, batch-norm state,
and masks together).

Invariant components never move: the input stem, the classifier, every
downsampling/dimension-changing unit, the stage count, and the stage widths.
Stretching replicates selected normal units; ``appending`` places the replica
block right after the last replicated source unit, ``interpolation`` places
each replica immediately after its source. Squeezing drops selected normal
units and closes the gaps. Both directions are one walk: ``_slots`` gives
each target slot's source unit, and ``_transform`` copies units into their
slots, permutes replica masks when asked, and records the provenance.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import arch as arch_mod
from .arch import (ArchDescriptor, FAMILY_RESNET, FAMILY_VGG,
                   ROLE_NORMAL, UnitRef)
from .errors import ConfigError, IncompatibilityError, UsageError
from .tensor import Rng
from .ticket import SparseTicket, make_ticket

STRETCH = "stretch"
SQUEEZE = "squeeze"
APPENDING = "appending"
INTERPOLATION = "interpolation"
MASK_COPY = "copy"
MASK_PERMUTE = "permute"


@dataclass(frozen=True)
class TransformSpec:
    direction: str
    per_stage_selection: tuple[tuple[int, ...], ...]
    ordering: str | None                 # stretch only
    replicated_mask_mode: str
    target_arch: ArchDescriptor

    def to_json(self) -> dict:
        return {
            "direction": self.direction,
            "per_stage_selection": [list(s) for s in self.per_stage_selection],
            "ordering": self.ordering,
            "replicated_mask_mode": self.replicated_mask_mode,
            "target_arch": arch_mod.arch_to_json(self.target_arch),
        }

    @staticmethod
    def from_json(doc: dict) -> "TransformSpec":
        return TransformSpec(
            direction=doc["direction"],
            per_stage_selection=tuple(tuple(int(i) for i in s)
                                      for s in doc["per_stage_selection"]),
            ordering=doc.get("ordering"),
            replicated_mask_mode=doc.get("replicated_mask_mode", MASK_COPY),
            target_arch=arch_mod.arch_from_json(doc["target_arch"]),
        )


def _unit_suffix_shapes(arch: ArchDescriptor, unit: UnitRef) -> dict[str, tuple]:
    shapes = {s.path: s.shape for s in arch_mod.param_specs(arch)}
    pre = unit.prefix + "/"
    return {p[len(pre):]: shapes[p] for p in arch_mod.unit_param_paths(arch, unit)}


def _passthrough_paths(arch: ArchDescriptor) -> list[str]:
    """Paths not owned by any transform group (resnet stem and classifier)."""
    grouped = set()
    for group in arch_mod.transform_groups(arch):
        for u in group:
            grouped.update(arch_mod.unit_param_paths(arch, u))
    return [s.path for s in arch_mod.param_specs(arch) if s.path not in grouped]


def check_compatible(source: ArchDescriptor, target: ArchDescriptor) -> None:
    """Raise IncompatibilityError naming the first violated transform invariant."""
    if source.family != target.family:
        raise IncompatibilityError(
            f"families differ: {source.family} vs {target.family}")
    src_groups = arch_mod.transform_groups(source)
    tgt_groups = arch_mod.transform_groups(target)
    if len(src_groups) != len(tgt_groups):
        raise IncompatibilityError(
            f"number of stages differs: {len(src_groups)} vs {len(tgt_groups)}")
    if source.family in (FAMILY_RESNET, FAMILY_VGG):
        sw = tuple(s.width for s in source.stages)
        tw = tuple(s.width for s in target.stages)
        if sw != tw:
            raise IncompatibilityError(f"stage widths differ: {sw} vs {tw}")
    for g, (su, tu) in enumerate(zip(src_groups, tgt_groups)):
        src_inv = [u for u in su if u.role != ROLE_NORMAL]
        tgt_inv = [u for u in tu if u.role != ROLE_NORMAL]
        if len(src_inv) != len(tgt_inv):
            raise IncompatibilityError(
                f"stage {g}: invariant unit counts differ: {len(src_inv)} vs {len(tgt_inv)}")
        for a, b in zip(src_inv, tgt_inv):
            if a.role != b.role or _unit_suffix_shapes(source, a) != _unit_suffix_shapes(target, b):
                raise IncompatibilityError(
                    f"stage {g}: invariant component {a.prefix} does not match {b.prefix}")
        src_norm = [u for u in su if u.role == ROLE_NORMAL]
        tgt_norm = [u for u in tu if u.role == ROLE_NORMAL]
        for label, a_desc, norm in (("source", source, src_norm), ("target", target, tgt_norm)):
            shapes = [_unit_suffix_shapes(a_desc, u) for u in norm]
            if any(s != shapes[0] for s in shapes[1:]):
                raise IncompatibilityError(
                    f"stage {g} of the {label} mixes normal units of different shapes; "
                    f"replication counts alone cannot describe a transform")
        if src_norm and tgt_norm:
            if _unit_suffix_shapes(source, src_norm[0]) != _unit_suffix_shapes(target, tgt_norm[0]):
                raise IncompatibilityError(f"stage {g}: normal unit shapes differ")
    src_keep = set(_passthrough_paths(source))
    tgt_keep = set(_passthrough_paths(target))
    src_pt = {sp.path: sp.shape for sp in arch_mod.param_specs(source) if sp.path in src_keep}
    tgt_pt = {sp.path: sp.shape for sp in arch_mod.param_specs(target) if sp.path in tgt_keep}
    if src_pt != tgt_pt:
        raise IncompatibilityError("input/output components differ between source and target")


def default_spec(source_arch: ArchDescriptor, target_arch: ArchDescriptor,
                 ordering: str = APPENDING,
                 replicated_mask_mode: str = MASK_COPY) -> TransformSpec:
    """The recommended selection for a source/target pair.

    Stretching replicates all normal units as evenly as possible, giving any
    leftover copies to the earlier units; squeezing drops the latest normal
    units first. Mixed growth/shrink across stages is rejected.
    """
    check_compatible(source_arch, target_arch)
    src_groups = arch_mod.transform_groups(source_arch)
    tgt_groups = arch_mod.transform_groups(target_arch)
    deltas = []
    normal_positions = []
    for su, tu in zip(src_groups, tgt_groups):
        pos = [i for i, u in enumerate(su) if u.role == ROLE_NORMAL]
        normal_positions.append(pos)
        deltas.append(sum(1 for u in tu if u.role == ROLE_NORMAL) - len(pos))
    if any(d > 0 for d in deltas) and any(d < 0 for d in deltas):
        raise IncompatibilityError(
            f"stages grow and shrink simultaneously (deltas {deltas}); not a single transform")
    selection = []
    direction = STRETCH if any(d > 0 for d in deltas) else (SQUEEZE if any(d < 0 for d in deltas) else STRETCH)
    for pos, d in zip(normal_positions, deltas):
        if d == 0:
            selection.append(())
        elif d > 0:
            if not pos:
                raise IncompatibilityError(
                    "stage has no replicable (normal) units to stretch from")
            base, rem = divmod(d, len(pos))
            sel = []
            for i, p in enumerate(pos):
                sel.extend([p] * (base + (1 if i < rem else 0)))
            selection.append(tuple(sorted(sel)))
        else:
            selection.append(tuple(pos[d:]))  # drop the latest normal units
    return TransformSpec(direction=direction,
                         per_stage_selection=tuple(selection),
                         ordering=ordering if direction == STRETCH else None,
                         replicated_mask_mode=replicated_mask_mode,
                         target_arch=target_arch)


def _stretch_order(n_units: int, sel: tuple[int, ...], ordering: str) -> list[tuple[int, bool]]:
    """Target slots as (source position, is_replica)."""
    if not sel:
        return [(i, False) for i in range(n_units)]
    if ordering == APPENDING:
        cut = max(sel) + 1
        return ([(i, False) for i in range(cut)]
                + [(i, True) for i in sorted(sel)]
                + [(i, False) for i in range(cut, n_units)])
    if ordering == INTERPOLATION:
        out = []
        counts = {i: sel.count(i) for i in set(sel)}
        for i in range(n_units):
            out.append((i, False))
            out.extend((i, True) for _ in range(counts.get(i, 0)))
        return out
    raise ConfigError(f"unknown ordering {ordering!r}")


def _validate_selection(units: list[UnitRef], sel: tuple[int, ...], *, unique: bool) -> None:
    for i in sel:
        if not 0 <= i < len(units):
            raise IncompatibilityError(f"selected unit {i} out of range 0..{len(units) - 1}")
        if units[i].role != ROLE_NORMAL:
            raise IncompatibilityError(
                f"selected unit {units[i].prefix} has invariant role {units[i].role}; "
                f"only normal units may be replicated or dropped")
    if unique and len(set(sel)) != len(sel):
        raise IncompatibilityError(f"duplicate drop indices {sel}")


def _slots(spec: TransformSpec, n_units: int, sel: tuple[int, ...]) -> list[tuple[int, bool]]:
    """One stage's target slots as (source position, is_replica): the kept
    units for a squeeze, the replication order for a stretch."""
    if spec.direction == SQUEEZE:
        return [(i, False) for i in range(n_units) if i not in set(sel)]
    return _stretch_order(n_units, sel, spec.ordering or APPENDING)


def _copy_unit(ticket, src_unit, tgt_unit, params, mask):
    pre_s = src_unit.prefix + "/"
    pre_t = tgt_unit.prefix + "/"
    for path in arch_mod.unit_param_paths(ticket.arch, src_unit):
        params[pre_t + path[len(pre_s):]] = ticket.rewind_weights[path]
    for path in ticket.mask:
        if path.startswith(pre_s):
            mask[pre_t + path[len(pre_s):]] = ticket.mask[path]


def _permute_unit_mask(mask: dict, tgt_unit, rng: Rng) -> None:
    pre = tgt_unit.prefix + "/"
    for path in sorted(p for p in mask if p.startswith(pre)):
        m = mask[path]
        perm = rng.permutation("mask-permutation", m.size)
        mask[path] = m.ravel()[perm].reshape(m.shape)


def _transform(ticket: SparseTicket, spec: TransformSpec, rng: Rng | None) -> SparseTicket:
    """Fill every target slot from its source unit and record the transform."""
    check_compatible(ticket.arch, spec.target_arch)
    src_groups = arch_mod.transform_groups(ticket.arch)
    tgt_groups = arch_mod.transform_groups(spec.target_arch)
    if len(spec.per_stage_selection) != len(src_groups):
        raise IncompatibilityError(
            f"selection covers {len(spec.per_stage_selection)} stages, arch has {len(src_groups)}")
    passthrough = _passthrough_paths(ticket.arch)
    params = {p: ticket.rewind_weights[p] for p in passthrough}
    mask = {p: ticket.mask[p] for p in passthrough if p in ticket.mask}
    for su, tu, sel in zip(src_groups, tgt_groups, spec.per_stage_selection):
        _validate_selection(su, sel, unique=spec.direction == SQUEEZE)
        slots = _slots(spec, len(su), sel)
        if len(slots) != len(tu):
            raise IncompatibilityError(
                f"stage of {len(su)} units, {spec.direction} selection {sel}, does not fill "
                f"{len(tu)} target slots")
        for slot, (src_pos, is_replica) in enumerate(slots):
            _copy_unit(ticket, su[src_pos], tu[slot], params, mask)
            if is_replica and spec.replicated_mask_mode == MASK_PERMUTE:
                _permute_unit_mask(mask, tu[slot], rng)
    prov = dict(ticket.provenance)
    prov["method"] = f"ett-{spec.direction}"
    entry = {**spec.to_json(), "source_arch": arch_mod.arch_to_json(ticket.arch)}
    prov["transform_history"] = [*prov.get("transform_history", []), entry]
    prov["source_arch"] = ticket.provenance.get("source_arch", ticket.arch.name())
    return make_ticket(spec.target_arch, params, mask, ticket.rewind_step, prov)


def stretch(ticket: SparseTicket, spec: TransformSpec, rng: Rng | None = None) -> SparseTicket:
    """Grow the ticket into spec.target_arch by replicating selected units."""
    if spec.direction != STRETCH:
        raise UsageError(f"stretch called with a {spec.direction!r} spec")
    if spec.replicated_mask_mode not in (MASK_COPY, MASK_PERMUTE):
        raise ConfigError(f"unknown mask mode {spec.replicated_mask_mode!r}")
    if spec.replicated_mask_mode == MASK_PERMUTE and rng is None:
        raise UsageError("mask permutation requires an rng")
    return _transform(ticket, spec, rng)


def squeeze(ticket: SparseTicket, spec: TransformSpec) -> SparseTicket:
    """Shrink the ticket into spec.target_arch by dropping selected units."""
    if spec.direction != SQUEEZE:
        raise UsageError(f"squeeze called with a {spec.direction!r} spec")
    return _transform(ticket, spec, None)


def replica_prefixes(spec: TransformSpec) -> list[str]:
    """Target unit prefixes filled by replicas (in target order) for a stretch."""
    if spec.direction != STRETCH:
        raise UsageError("replica positions exist for stretch specs only")
    out = []
    for tu, sel in zip(arch_mod.transform_groups(spec.target_arch), spec.per_stage_selection):
        slots = _slots(spec, len(tu) - len(sel), sel)
        out.extend(tu[slot].prefix for slot, (_, rep) in enumerate(slots) if rep)
    return out
