"""Ticket retraining, linear mode connectivity probes, dataset transfer, and
side-by-side method comparison with sparsity matching enforced."""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from . import arch as arch_mod
from . import nn
from .errors import IncompatibilityError, ShapeError, UsageError
from .ticket import SparseTicket, atomic_open, sparsity, write_json


@dataclass
class InterpolationReport:
    alphas: list[float]
    accuracies: list[float]
    max_drop: float
    seeds: tuple[int, int]
    sparsity: float

    def to_json(self) -> dict:
        return {"alphas": self.alphas, "accuracies": self.accuracies,
                "max_drop": self.max_drop, "seeds": list(self.seeds),
                "sparsity": self.sparsity}

    def write_csv(self, path) -> None:
        with atomic_open(path, newline="") as f:
            w = csv.writer(f)
            w.writerow(["alpha", "test_acc"])
            for a, acc in zip(self.alphas, self.accuracies):
                w.writerow([f"{a:.6f}", f"{acc:.6f}"])


@dataclass
class CompareRow:
    method: str
    source_arch: str
    target_arch: str
    dataset: str
    sparsity: float
    seed_accs: dict[int, float]

    @property
    def mean_acc(self) -> float:
        return float(np.mean(list(self.seed_accs.values())))

    @property
    def std_acc(self) -> float:
        vals = list(self.seed_accs.values())
        return float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0


@dataclass
class ComparisonTable:
    rows: list[CompareRow]
    seeds: list[int]

    def to_json(self) -> dict:
        return {"seeds": self.seeds, "rows": [
            {"method": r.method, "source_arch": r.source_arch, "target_arch": r.target_arch,
             "dataset": r.dataset, "sparsity": r.sparsity,
             "mean_acc": r.mean_acc, "std_acc": r.std_acc,
             "seed_accs": {str(k): v for k, v in r.seed_accs.items()}}
            for r in self.rows]}

    def write_csv(self, path) -> None:
        """One row per (method, seed) cell."""
        with atomic_open(path, newline="") as f:
            w = csv.writer(f)
            w.writerow(["method", "source_arch", "target_arch", "dataset", "sparsity",
                        "seed", "test_acc", "mean_acc", "std_acc"])
            for r in self.rows:
                for seed in self.seeds:
                    w.writerow([r.method, r.source_arch, r.target_arch, r.dataset,
                                f"{r.sparsity:.6f}", seed, f"{r.seed_accs[seed]:.6f}",
                                f"{r.mean_acc:.6f}", f"{r.std_acc:.6f}"])


def write_metrics_csv(record: nn.MetricsRecord, path) -> None:
    """Per-epoch curve rows; the final row carries the test accuracy."""
    with atomic_open(path, newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "train_loss", "train_acc", "test_acc"])
        n = len(record.epoch_train_loss)
        for e in range(n):
            test = ""
            if e == n - 1 and record.final_test_acc is not None:
                test = f"{record.final_test_acc:.6f}"
            w.writerow([e, f"{record.epoch_train_loss[e]:.6f}",
                        f"{record.epoch_train_acc[e]:.6f}", test])


def write_metrics_json(record: nn.MetricsRecord, path) -> None:
    write_json(record.to_json(), path)


def _check_input_shape(ticket: SparseTicket, dataset) -> None:
    expected = int(np.prod(ticket.arch.input_shape))
    got_shape = dataset.images.shape[1:]
    if ticket.arch.family == arch_mod.FAMILY_MLP:
        if int(np.prod(got_shape)) != expected:
            raise ShapeError(f"dataset shape {got_shape} does not flatten to {expected}")
    elif tuple(got_shape) != tuple(ticket.arch.input_shape):
        raise IncompatibilityError(
            f"dataset shape {got_shape} != architecture input {ticket.arch.input_shape}")


def train_ticket(ticket: SparseTicket, train_data, test_data, config: nn.TrainConfig,
                 augment_fn=None) -> tuple[dict, nn.MetricsRecord]:
    """Retrain a ticket from its rewind point; returns trained params + record."""
    _check_input_shape(ticket, train_data)
    params, record = nn.train(ticket.arch, ticket.rewind_weights, ticket.mask,
                              train_data, test_data, config, augment_fn=augment_fn,
                              step_offset=ticket.rewind_step)
    report = sparsity(ticket)
    record.sparsity = report.overall
    record.flops_normalized = arch_mod.estimate_flops(ticket.arch, report.overall, 1.0)
    record.extra["method"] = ticket.provenance.get("method", "")
    record.extra["source_arch"] = ticket.provenance.get("source_arch", ticket.arch.name())
    record.extra["rewind_step"] = ticket.rewind_step
    return params, record


def evaluate_ticket(ticket: SparseTicket, train_data, test_data, config: nn.TrainConfig,
                    augment_fn=None) -> nn.MetricsRecord:
    _, record = train_ticket(ticket, train_data, test_data, config, augment_fn)
    return record


def transfer_dataset(ticket: SparseTicket, new_train, new_test, config: nn.TrainConfig,
                     augment_fn=None) -> nn.MetricsRecord:
    """Retrain the ticket unchanged on a shape-compatible second dataset."""
    record = evaluate_ticket(ticket, new_train, new_test, config, augment_fn)
    record.extra["transfer_source_dataset"] = ticket.provenance.get("dataset", "")
    record.extra["transfer_target_dataset"] = getattr(new_train, "name", "")
    return record


def _interpolate(params_a: dict, params_b: dict, alpha: float) -> dict:
    if alpha == 0.0:
        return {k: v.copy() for k, v in params_a.items()}
    if alpha == 1.0:
        return {k: v.copy() for k, v in params_b.items()}
    return {k: ((1.0 - alpha) * params_a[k] + alpha * params_b[k]).astype(params_a[k].dtype)
            for k in params_a}


def _has_bn(arch) -> bool:
    return any(s.kind == "bn_gamma" for s in arch_mod.param_specs(arch))


def connectivity_probe(ticket: SparseTicket, train_data, test_data, config: nn.TrainConfig,
                       seeds: tuple[int, int], grid_size: int = 11,
                       recalibrate_bn: bool = True, augment_fn=None) -> InterpolationReport:
    """Train the same ticket under two SGD noise samples and walk the line
    between the two solutions.

    The two runs share rewind weights and mask; only data order/augmentation
    draws differ. Interior points re-estimate batch-norm statistics with one
    pass over the training set (stored stats are meaningless for mixed
    weights); endpoints are evaluated exactly as standalone runs.
    """
    a, b = seeds
    if a == b:
        raise UsageError("connectivity probe needs two distinct seeds")
    if grid_size < 2:
        raise UsageError("grid must include both endpoints")
    params_a, _ = train_ticket(ticket, train_data, test_data, replace(config, seed=a), augment_fn)
    params_b, _ = train_ticket(ticket, train_data, test_data, replace(config, seed=b), augment_fn)
    alphas = [i / (grid_size - 1) for i in range(grid_size)]
    accs = []
    with_bn = _has_bn(ticket.arch)
    for alpha in alphas:
        params = _interpolate(params_a, params_b, alpha)
        if recalibrate_bn and with_bn and 0.0 < alpha < 1.0:
            params.update(nn.estimate_bn_stats(ticket.arch, params, train_data.images,
                                               config.batch_size))
        accs.append(nn.accuracy(ticket.arch, params, test_data.images, test_data.labels))

    def line(al):
        if al == 0.0 or al == 1.0:
            return accs[0] if al == 0.0 else accs[-1]
        return accs[0] + al * (accs[-1] - accs[0])

    drop = max(line(al) - acc for al, acc in zip(alphas, accs))
    return InterpolationReport(alphas=alphas, accuracies=accs, max_drop=float(drop),
                               seeds=(a, b), sparsity=sparsity(ticket).overall)


def _cell_acc(tickets, train, test, config, augment_fn, method, seed) -> float:
    """Test accuracy of one (method, seed) cell."""
    return evaluate_ticket(tickets[method], train, test, replace(config, seed=seed),
                           augment_fn).final_test_acc


_POOL_STATE: dict = {}  # a pool worker's shared _cell_acc arguments


def _pool_init(*shared):
    _POOL_STATE["shared"] = shared


def _pool_cell(cell):
    return _cell_acc(*_POOL_STATE["shared"], *cell)


def compare(tickets_by_method: dict[str, SparseTicket], reference_method: str,
            train_data, test_data, config: nn.TrainConfig, seeds,
            augment_fn=None, jobs: int = 1) -> ComparisonTable:
    """Train every (method, seed) cell and aggregate.

    Every pruning method's overall zero count must match the reference method's
    within one weight (checked, not assumed). Transformed (ett-*) tickets carry
    whatever sparsity replication/dropping produced; it is reported in their
    row rather than forced to match.
    """
    if reference_method not in tickets_by_method:
        raise UsageError(f"reference method {reference_method!r} not among tickets")
    ref_report = sparsity(tickets_by_method[reference_method])
    reports = {}
    for method, ticket in tickets_by_method.items():
        report = sparsity(ticket)
        reports[method] = report
        if ticket.provenance.get("method", "").startswith("ett"):
            continue
        if abs(report.zeros * ref_report.total - ref_report.zeros * report.total) > \
                max(ref_report.total, report.total):
            # cross-multiplied "within one weight" so differing totals compare fairly
            raise IncompatibilityError(
                f"method {method!r} has {report.zeros}/{report.total} pruned weights, "
                f"reference has {ref_report.zeros}/{ref_report.total}; matching violated")

    cells = [(m, s) for m in tickets_by_method for s in seeds]
    shared = (tickets_by_method, train_data, test_data, config, augment_fn)
    if jobs > 1:
        import multiprocessing as mp
        ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
        with ctx.Pool(jobs, initializer=_pool_init, initargs=shared) as pool:
            results = pool.map(_pool_cell, cells)
    else:
        results = [_cell_acc(*shared, *cell) for cell in cells]
    accs = dict(zip(cells, results))
    rows = []
    for method, ticket in tickets_by_method.items():
        rows.append(CompareRow(
            method=method,
            source_arch=ticket.provenance.get("source_arch", ticket.arch.name()),
            target_arch=ticket.arch.name(),
            dataset=getattr(train_data, "name", ""),
            sparsity=reports[method].overall,
            seed_accs={s: accs[(method, s)] for s in seeds},
        ))
    return ComparisonTable(rows=rows, seeds=list(seeds))
