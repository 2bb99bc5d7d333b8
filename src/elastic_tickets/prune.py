"""Iterative magnitude pruning with rewinding, and the one-shot baselines
(magnitude, SNIP, GraSP, random permutation, reinit) matched to a reference
sparsity.

All selections are global across prunable tensors. Ranking ties break by
canonical path order then flat index, with candidates ordered keep-first, so
every method resolves full ties to the same kept set. The ranking selects
the boundary key with a partition instead of sorting every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import arch as arch_mod
from . import nn
from .arch import ArchDescriptor
from .errors import ConfigError, DomainError
from .tensor import Rng
from .ticket import (SparseTicket, all_ones_mask, apply_mask, make_ticket, reinit_ticket,
                     sparsity)


BASELINES = ("random", "reinit", "magnitude", "snip", "grasp")


@dataclass
class ImpConfig:
    rate: float                 # fraction pruned per round
    rounds: int
    rewind_step: int            # optimizer steps; 0 = reset to initialization
    train: nn.TrainConfig

    def __post_init__(self):
        if not 0.0 < self.rate < 1.0:
            raise ConfigError(f"prune rate must lie in (0, 1), got {self.rate}")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.rewind_step < 0:
            raise ConfigError(f"rewind_step must be >= 0, got {self.rewind_step}")


@dataclass
class ImpResult:
    dense_rewind: dict[str, np.ndarray]   # unmasked theta_r (full param set)
    tickets: list[SparseTicket]           # one per round, round k at 1-(1-p)^k
    metrics: list[nn.MetricsRecord]       # training record behind each round's pruning
    rewind_step: int


def _concat(ticket_like: dict[str, np.ndarray], paths) -> np.ndarray:
    return np.concatenate([np.asarray(ticket_like[p]).ravel() for p in paths])


def _split(flat: np.ndarray, paths, shapes) -> dict[str, np.ndarray]:
    out = {}
    pos = 0
    for p in paths:
        n = int(np.prod(shapes[p]))
        out[p] = flat[pos : pos + n].reshape(shapes[p]).astype(np.float32, copy=False)
        pos += n
    return out


def _keep_first_mask(keys: np.ndarray, alive: np.ndarray, keep: int) -> np.ndarray:
    """Mask keeping the first ``keep`` alive entries ordered by (key, position).

    ``keys`` orders candidates keep-first (smaller key = kept earlier); position
    is the concatenated (path order, flat index) position, the global tie-break.

    The keep-th smallest alive key (the pivot) is found by partitioning a
    compact copy of the alive keys in place. Every alive key below the pivot
    is kept, and the first alive keys equal to it, in position order, fill
    the rest: the full (key, position) sort's choice, found with whole-array
    comparisons and no index array of the alive entries. NaN keys rank last,
    as in the sort; when the pivot is NaN, or nothing is dropped, the full
    sort runs.
    """
    k = keys[alive]
    if 0 < keep < k.size:
        k.partition(keep - 1)
        pivot = k[keep - 1]
    else:
        pivot = np.nan
    del k
    if np.isnan(pivot):
        idx = np.nonzero(alive)[0]
        kept = idx[np.lexsort((idx, keys[idx]))[:keep]]  # primary: key, secondary: position
        mask = np.zeros(keys.shape[0], dtype=np.float32)
        mask[kept] = 1.0
        return mask
    below = alive & (keys < pivot)
    need = keep - np.count_nonzero(below)
    mask = below.astype(np.float32)
    mask[np.flatnonzero(alive & (keys == pivot))[:need]] = 1.0
    return mask


def _target_zero_count(total: int, target) -> int:
    if isinstance(target, (int, np.integer)):
        count = int(target)
    else:
        if not 0.0 <= float(target) < 1.0:
            raise DomainError(f"target sparsity must lie in [0, 1), got {target}")
        count = int(round(float(target) * total))
    if not 0 <= count < total:
        raise DomainError(f"target of {count} zeros infeasible for {total} weights")
    return count


def _select(arch: ArchDescriptor, keys: np.ndarray, alive: np.ndarray | None,
            target) -> dict[str, np.ndarray]:
    """Per-path mask keeping the smallest ``keys`` (in ``prunable_paths`` order) among
    the ``alive`` entries (all when None) so that ``target`` of all entries are zero."""
    keep = keys.size - _target_zero_count(keys.size, target)
    if alive is None:
        alive = np.ones(keys.size, dtype=bool)
    shapes = {s.path: s.shape for s in arch_mod.param_specs(arch)}
    return _split(_keep_first_mask(keys, alive, keep), arch_mod.prunable_paths(arch), shapes)


def magnitude_prune(weights: dict[str, np.ndarray], mask: dict[str, np.ndarray],
                    target_sparsity, arch: ArchDescriptor) -> dict[str, np.ndarray]:
    """Zero the smallest-magnitude surviving weights until the target is met.

    ``target_sparsity`` is a fraction in [0, 1) or an exact zero count; it must
    not be below the current sparsity.
    """
    paths = arch_mod.prunable_paths(arch)
    keys = _concat(weights, paths)
    total = keys.size
    target_zeros = _target_zero_count(total, target_sparsity)
    current_zeros = total - sum(int(np.count_nonzero(mask[p])) for p in paths)
    if target_zeros < current_zeros:
        raise DomainError(
            f"target sparsity {target_zeros}/{total} below current {current_zeros}/{total}")
    np.negative(np.abs(keys, out=keys), out=keys)  # -|w| on the fresh concatenation
    alive = np.concatenate([np.asarray(mask[p]).ravel() > 0 for p in paths])
    return _select(arch, keys, alive, target_zeros)


def snip_saliency(arch: ArchDescriptor, weights: dict[str, np.ndarray],
                  batch: tuple[np.ndarray, np.ndarray],
                  loss_scale: float = 1.0) -> dict[str, np.ndarray]:
    """Per-weight |theta * dL/dtheta| on one batch, float64, prunable paths only."""
    x, y = batch
    _, _, grads, _ = nn.loss_and_grad(arch, weights, x, y, "train")
    return {p: np.abs(np.asarray(weights[p], dtype=np.float64)
                      * np.asarray(grads[p], dtype=np.float64) * loss_scale)
            for p in arch_mod.prunable_paths(arch)}


def snip_prune(arch: ArchDescriptor, weights: dict[str, np.ndarray],
               batch: tuple[np.ndarray, np.ndarray], target_sparsity,
               loss_scale: float = 1.0) -> dict[str, np.ndarray]:
    """Keep the weights with the largest |theta * dL/dtheta| on one batch."""
    saliency = _concat(snip_saliency(arch, weights, batch, loss_scale),
                       arch_mod.prunable_paths(arch))
    return _select(arch, -saliency, None, target_sparsity)


def hvp_forward_diff(grad_fn, theta: np.ndarray, eps_scale: float = 1e-2) -> np.ndarray:
    """Hessian-vector product H g with v = g by forward differences, in float64:
    Hg ~ (grad(theta + eps*v) - grad(theta)) / eps, eps = eps_scale*|theta|/(|v|+1e-12)."""
    theta = np.asarray(theta, dtype=np.float64)
    g = np.asarray(grad_fn(theta), dtype=np.float64)
    eps = eps_scale * np.linalg.norm(theta) / (np.linalg.norm(g) + 1e-12)
    if eps == 0.0:
        return np.zeros_like(g)
    g2 = np.asarray(grad_fn(theta + eps * g), dtype=np.float64)
    return (g2 - g) / eps


def grasp_prune(arch: ArchDescriptor, weights: dict[str, np.ndarray],
                batch: tuple[np.ndarray, np.ndarray], target_sparsity,
                loss_scale: float = 1.0, eps_scale: float = 1e-2) -> dict[str, np.ndarray]:
    """Prune the weights contributing least to gradient flow: score = theta*(Hg),
    drop the largest scores. Computed in float64 throughout."""
    x, y = batch
    x64 = np.asarray(x, dtype=np.float64)
    trainable = arch_mod.trainable_paths(arch)
    shapes = {s.path: s.shape for s in arch_mod.param_specs(arch)}
    base = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}

    def grad_fn(theta_flat: np.ndarray) -> np.ndarray:
        params = dict(base)
        pos = 0
        for p in trainable:
            n = int(np.prod(shapes[p]))
            params[p] = theta_flat[pos : pos + n].reshape(shapes[p])
            pos += n
        _, _, grads, _ = nn.loss_and_grad(arch, params, x64, y, "train")
        return np.concatenate([grads[p].ravel() for p in trainable]) * loss_scale

    theta = np.concatenate([base[p].ravel() for p in trainable])
    hg = hvp_forward_diff(grad_fn, theta, eps_scale)
    score_by_path = {}
    pos = 0
    for p in trainable:
        n = int(np.prod(shapes[p]))
        score_by_path[p] = (theta[pos : pos + n] * hg[pos : pos + n])
        pos += n
    return _select(arch, _concat(score_by_path, arch_mod.prunable_paths(arch)), None,
                   target_sparsity)


def random_prune(ticket: SparseTicket, rng: Rng,
                 dense_rewind: dict[str, np.ndarray] | None = None) -> SparseTicket:
    """Permute each mask tensor uniformly, preserving per-path sparsity exactly.

    ``dense_rewind`` supplies unmasked rewind values for newly surviving
    positions; without it the ticket's own (masked) weights are reused.
    """
    new_mask = {}
    for path in sorted(ticket.mask):
        m = ticket.mask[path]
        perm = rng.permutation("mask-permutation", m.size)
        new_mask[path] = m.ravel()[perm].reshape(m.shape)
    weights = dense_rewind if dense_rewind is not None else ticket.rewind_weights
    prov = dict(ticket.provenance)
    prov["method"] = "random"
    return make_ticket(ticket.arch, weights, new_mask, ticket.rewind_step, prov)


def match_sparsity(method: str, reference: SparseTicket, dense_rewind: dict[str, np.ndarray],
                   batch: tuple[np.ndarray, np.ndarray] | None, rng: Rng | None) -> SparseTicket:
    """Build the ``method`` baseline on the target network from its dense rewind
    weights, matched to the reference's zero count exactly (random/reinit also
    preserve per-path ratios). SNIP and GraSP score ``batch``; random and
    reinit draw from ``rng``."""
    if method == "reinit":
        return reinit_ticket(reference, rng)
    if method == "random":
        return random_prune(reference, rng, dense_rewind)
    arch = reference.arch
    ref_report = sparsity(reference)
    if method == "magnitude":
        mask = magnitude_prune(dense_rewind, all_ones_mask(arch), ref_report.zeros, arch)
    elif method == "snip":
        mask = snip_prune(arch, dense_rewind, batch, ref_report.zeros)
    elif method == "grasp":
        mask = grasp_prune(arch, dense_rewind, batch, ref_report.zeros)
    else:
        raise ConfigError(f"unknown method {method!r}")
    prov = {"method": method, "dataset": reference.provenance.get("dataset", ""),
            "matched_sparsity": ref_report.overall,
            "source_arch": reference.provenance.get("source_arch", arch.name())}
    return make_ticket(arch, dense_rewind, mask, reference.rewind_step, prov)


def imp_run(arch: ArchDescriptor, train_data, test_data, cfg: ImpConfig,
            *, augment_fn=None) -> ImpResult:
    """The rewinding IMP loop.

    Start from theta_0, capture theta_r once after ``rewind_step`` optimizer
    steps, then repeat: fully train f(theta_r * m), globally prune the fraction
    ``rate`` of surviving weights with the smallest trained magnitudes, update
    the mask. Round-k tickets land at sparsity 1-(1-rate)^k up to floor
    rounding of each round's prune count.
    """
    n = len(train_data.labels)
    steps_per_epoch = -(-n // cfg.train.batch_size)
    total_steps = steps_per_epoch * cfg.train.epochs
    if cfg.rewind_step >= max(total_steps, 1):
        raise ConfigError(
            f"rewind_step {cfg.rewind_step} must be below total steps {total_steps}")
    paths = arch_mod.prunable_paths(arch)
    shapes = {s.path: s.shape for s in arch_mod.param_specs(arch)}
    total = survivors = sum(int(np.prod(shapes[p])) for p in paths)
    for k in range(1, cfg.rounds + 1):
        newly = int(np.floor(cfg.rate * survivors))
        survivors -= newly
        if newly == 0 or survivors <= 0:
            raise DomainError(
                f"round {k} of {cfg.rounds} at rate {cfg.rate} has no weights left to prune")

    rng = Rng(cfg.train.seed)
    theta0 = arch_mod.init_params(arch, rng)
    mask = all_ones_mask(arch)
    if cfg.rewind_step > 0:
        dense_rewind, _ = nn.train(arch, theta0, mask, train_data, test_data, cfg.train,
                                   augment_fn=augment_fn, max_steps=cfg.rewind_step)
    else:
        dense_rewind = {k_: v.copy() for k_, v in theta0.items()}

    tickets: list[SparseTicket] = []
    metrics: list[nn.MetricsRecord] = []
    for k in range(1, cfg.rounds + 1):
        start = apply_mask(dense_rewind, mask)
        trained, record = nn.train(arch, start, mask, train_data, test_data, cfg.train,
                                   augment_fn=augment_fn, step_offset=cfg.rewind_step)
        alive = sum(int(np.count_nonzero(m)) for m in mask.values())
        newly = int(np.floor(cfg.rate * alive))
        mask = magnitude_prune(trained, mask, total - (alive - newly), arch)
        prov = {"method": "imp", "imp_round": k, "dataset": getattr(train_data, "name", ""),
                "seed": cfg.train.seed, "source_arch": arch.name(),
                "rewind_step": cfg.rewind_step,
                "rewind_fraction": cfg.rewind_step / max(total_steps, 1),
                "prune_scope": "global over conv+dense weights incl. first conv and classifier",
                "recipe": {"rate": cfg.rate, "rounds": cfg.rounds,
                           "epochs": cfg.train.epochs, "batch_size": cfg.train.batch_size,
                           "lr": cfg.train.lr, "momentum": cfg.train.momentum,
                           "weight_decay": cfg.train.weight_decay,
                           "milestones": list(cfg.train.milestones),
                           "warmup_steps": cfg.train.warmup_steps}}
        ticket = make_ticket(arch, dense_rewind, mask, cfg.rewind_step, prov)
        record.sparsity = sparsity(ticket).overall
        tickets.append(ticket)
        metrics.append(record)
    return ImpResult(dense_rewind=dense_rewind, tickets=tickets, metrics=metrics,
                     rewind_step=cfg.rewind_step)
