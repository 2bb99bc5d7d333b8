"""Command-line experiment runner.

Usage: ``elastic-tickets <command> --config <path-or-preset> [--ticket ...]
[--out DIR] [--seed N] [--jobs K]``. Configs are strict JSON documents
(unknown keys are rejected before any compute); the ``presets/`` directory
ships ready-made ones. Exit codes: 0 success, 2 configuration error,
3 architecture incompatibility, 4 runtime failure, 5 unloadable ticket.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import zlib
from importlib import resources
from pathlib import Path

import numpy as np

from . import arch as arch_mod
from . import data as data_mod
from . import ett, evaluation, nn, prune
from .errors import (ConfigError, DataParseError, DomainError,
                     IncompatibilityError, TicketLoadError, UsageError)
from .tensor import Rng, _splitmix64_next
from .ticket import (SparseTicket, all_ones_mask, load_ticket, make_ticket,
                     reinit_ticket, save_ticket, sparsity, write_json)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCOMPATIBLE = 3
EXIT_RUNTIME = 4
EXIT_BAD_TICKET = 5

DATA_ENV = "ELASTIC_TICKETS_DATA"

KNOWN_METHODS = ("imp", "ett", *prune.BASELINES, "random_random", "ett_snip_extra")

_ARCH_SCHEMA = {"family": str, "depth": int, "multiplier": int, "widths": list,
                "head_layers": int, "num_classes": int}
_SCHEMA = {
    "name": str,
    "notes": str,
    "arch": _ARCH_SCHEMA,
    "data": {"name": str, "dir": str, "augment": bool,
             "subset_train": int, "subset_test": int,
             "synth": {"generator": str, "n_per_class": int, "num_classes": int,
                       "input_shape": list, "noise": float, "seed": int,
                       "test_fraction": float}},
    "train": {"epochs": int, "batch_size": int, "lr": float, "momentum": float,
              "weight_decay": float, "milestones": list, "warmup_steps": int},
    "imp": {"rate": float, "rounds": int, "rewind_step": int},
    "transform": [{"target": _ARCH_SCHEMA, "ordering": str, "mask_mode": str}],
    "methods": list,
    "seeds": list,
    "connectivity": {"grid_size": int, "recalibrate_bn": bool},
    "flops": {"sparsity": float, "train_steps_multiplier": float,
              "reference": _ARCH_SCHEMA},
    "output": {"dir": str},
}


def _check_schema(doc, schema, path="config"):
    if isinstance(schema, dict):
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: expected an object")
        for key, value in doc.items():
            if key not in schema:
                raise ConfigError(f"{path}.{key}: unknown key (strict schema)")
            _check_schema(value, schema[key], f"{path}.{key}")
    elif isinstance(schema, list):
        inner = schema[0]
        items = doc if isinstance(doc, list) else [doc]
        for i, item in enumerate(items):
            _check_schema(item, inner, f"{path}[{i}]")
    elif schema is float:
        if not isinstance(doc, (int, float)) or isinstance(doc, bool):
            raise ConfigError(f"{path}: expected a number, got {type(doc).__name__}")
    else:
        if not isinstance(doc, schema) or (schema is int and isinstance(doc, bool)):
            raise ConfigError(f"{path}: expected {schema.__name__}, got {type(doc).__name__}")


def _require(config: dict, *keys):
    for key in keys:
        if key not in config:
            raise ConfigError(f"config.{key}: required section missing")


def preset_path(name: str) -> Path | None:
    base = resources.files("elastic_tickets").joinpath("presets", f"{name}.json")
    return Path(str(base)) if base.is_file() else None


def load_config(spec: str) -> dict:
    p = Path(spec)
    if not p.is_file():
        packaged = preset_path(spec)
        if packaged is None:
            raise ConfigError(f"config {spec!r} is neither a file nor a known preset")
        p = packaged
    try:
        config = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON: {e}") from e
    _check_schema(config, _SCHEMA)
    _require(config, "name")
    return config


def resolve_arch(section: dict) -> arch_mod.ArchDescriptor:
    family = section.get("family")
    if family is None:
        raise ConfigError("arch.family is required")
    kwargs = {}
    if "num_classes" in section:
        kwargs["num_classes"] = section["num_classes"]
    if family == arch_mod.FAMILY_MLP:
        if "widths" in section:
            return arch_mod.mlp_arch(section["widths"])
        if "multiplier" not in section:
            raise ConfigError("arch: mlp needs 'multiplier' or 'widths'")
        return arch_mod.derive_arch(family, section["multiplier"], **kwargs)
    if "depth" not in section:
        raise ConfigError(f"arch: {family} needs 'depth'")
    if family == arch_mod.FAMILY_VGG and "head_layers" in section:
        kwargs["head_layers"] = section["head_layers"]
    return arch_mod.derive_arch(family, section["depth"], **kwargs)


def resolve_data(section: dict):
    """Returns (train, test, augment_fn)."""
    name = section.get("name")
    if name is None:
        raise ConfigError("data.name is required")
    if name == "synth":
        synth_doc = dict(section.get("synth", {}))
        if "input_shape" in synth_doc:
            synth_doc["input_shape"] = tuple(synth_doc["input_shape"])
        train, test = data_mod.synth(data_mod.SynthSpec(**synth_doc))
    elif name in ("mnist", "cifar10"):
        base = os.environ.get(DATA_ENV) or section.get("dir") or "data"
        directory = os.path.join(base, name)
        if not os.path.isdir(directory):
            directory = base  # allow pointing straight at the dataset files
        try:
            loader = data_mod.load_mnist if name == "mnist" else data_mod.load_cifar10
            train, test = loader(directory)
        except FileNotFoundError as e:
            raise ConfigError(data_mod.fetch_instructions(name, directory) +
                              f" (missing: {e})") from e
    else:
        raise ConfigError(f"data.name must be mnist, cifar10 or synth, got {name!r}")
    if "subset_train" in section:
        train = train.subset(section["subset_train"])
    if "subset_test" in section:
        test = test.subset(section["subset_test"])
    augment_fn = data_mod.augment_batch if section.get("augment", False) else None
    return train, test, augment_fn


def resolve_train(section: dict, seed: int) -> nn.TrainConfig:
    _check_schema(section, _SCHEMA["train"], "config.train")
    for key in ("epochs", "batch_size", "lr"):
        if key not in section:
            raise ConfigError(f"config.train.{key}: required")
    return nn.TrainConfig(
        epochs=section["epochs"], batch_size=section["batch_size"], lr=section["lr"],
        momentum=section.get("momentum", 0.9),
        weight_decay=section.get("weight_decay", 0.0),
        milestones=tuple(section.get("milestones", ())),
        warmup_steps=section.get("warmup_steps", 0),
        seed=seed,
    )


def method_seed(base_seed: int, label: str) -> int:
    """Stable per-method seed so parallel cells own isolated streams."""
    mixed = (base_seed ^ (zlib.crc32(label.encode()) << 16)) & ((1 << 64) - 1)
    _, out = _splitmix64_next(mixed)
    return out


def _out_dir(config: dict, override: str | None) -> Path:
    root = Path(override or config.get("output", {}).get("dir", "runs"))
    d = root / config["name"]
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_resolved(config: dict, out: Path, seeds) -> None:
    resolved = dict(config)
    resolved["resolved_seeds"] = list(seeds)
    resolved["data_env"] = os.environ.get(DATA_ENV, "")
    write_json(resolved, out / "config.resolved.json")


def _write_run(config: dict, out: Path, seed: int, record: nn.MetricsRecord) -> None:
    """One seed's metrics and resolved config under ``out/<seed>/``."""
    record.extra["config"] = config
    run_dir = out / str(seed)
    run_dir.mkdir(exist_ok=True)
    evaluation.write_metrics_csv(record, run_dir / "metrics.csv")
    evaluation.write_metrics_json(record, run_dir / "metrics.json")
    _write_resolved(config, run_dir, [seed])


def _seeds(config: dict, override: int | None) -> list[int]:
    if override is not None:
        return [override]
    seeds = config.get("seeds", [0])
    if not seeds:
        raise ConfigError("config.seeds must not be empty")
    return [int(s) for s in seeds]


# ---------------------------------------------------------------------------
# commands


def cmd_train(config: dict, out_root: str | None, seed: int | None) -> int:
    _require(config, "arch", "data", "train")
    arch = resolve_arch(config["arch"])
    train_ds, test_ds, augment_fn = resolve_data(config["data"])
    seeds = _seeds(config, seed)
    out = _out_dir(config, out_root)
    _write_resolved(config, out, seeds)
    for s in seeds:
        cfg = resolve_train(config["train"], s)
        params = arch_mod.init_params(arch, Rng(s))
        _, record = nn.train(arch, params, {}, train_ds, test_ds, cfg, augment_fn=augment_fn)
        _write_run(config, out, s, record)
        print(f"train {arch.name()} seed={s}: test_acc="
              f"{record.final_test_acc if record.final_test_acc is not None else 'n/a'}")
    return EXIT_OK


def _dense_ticket(arch, dense_rewind, rewind_step, dataset_name, seed) -> SparseTicket:
    prov = {"method": "dense", "imp_round": 0, "dataset": dataset_name,
            "seed": seed, "source_arch": arch.name(), "rewind_step": rewind_step}
    return make_ticket(arch, dense_rewind, all_ones_mask(arch), rewind_step, prov)


def _run_imp(arch, train_ds, test_ds, config, seed, augment_fn) -> prune.ImpResult:
    cfg = prune.ImpConfig(rate=config["imp"]["rate"], rounds=config["imp"]["rounds"],
                          rewind_step=config["imp"]["rewind_step"],
                          train=resolve_train(config["train"], seed))
    return prune.imp_run(arch, train_ds, test_ds, cfg, augment_fn=augment_fn)


def cmd_imp(config: dict, out_root: str | None, seed: int | None) -> int:
    _require(config, "arch", "data", "train", "imp")
    arch = resolve_arch(config["arch"])
    train_ds, test_ds, augment_fn = resolve_data(config["data"])
    s = _seeds(config, seed)[0]
    out = _out_dir(config, out_root)
    run_dir = out / str(s)
    tickets_dir = run_dir / "tickets"
    tickets_dir.mkdir(parents=True, exist_ok=True)
    _write_resolved(config, run_dir, [s])
    result = _run_imp(arch, train_ds, test_ds, config, s, augment_fn)
    save_ticket(_dense_ticket(arch, result.dense_rewind, result.rewind_step,
                              train_ds.name, s), tickets_dir / "round-00-dense.eltk")
    for k, (ticket, record) in enumerate(zip(result.tickets, result.metrics), start=1):
        save_ticket(ticket, tickets_dir / f"round-{k:02d}.eltk")
        evaluation.write_metrics_json(record, run_dir / f"metrics-round-{k:02d}.json")
    final = sparsity(result.tickets[-1]).overall
    print(f"imp {arch.name()} seed={s}: {len(result.tickets)} rounds, "
          f"final sparsity {final:.4f}")
    return EXIT_OK


def _build_transform(source_arch, leg: dict):
    target = resolve_arch(leg["target"])
    ordering = leg.get("ordering", ett.APPENDING)
    mask_mode = leg.get("mask_mode", ett.MASK_COPY)
    if ordering not in (ett.APPENDING, ett.INTERPOLATION):
        raise ConfigError(f"transform.ordering must be appending or interpolation, got {ordering!r}")
    if mask_mode not in (ett.MASK_COPY, ett.MASK_PERMUTE):
        raise ConfigError(f"transform.mask_mode must be copy or permute, got {mask_mode!r}")
    return ett.default_spec(source_arch, target, ordering=ordering,
                            replicated_mask_mode=mask_mode)


def _apply_transform(ticket: SparseTicket, spec, rng=None) -> SparseTicket:
    if spec.direction == ett.STRETCH:
        return ett.stretch(ticket, spec, rng)
    return ett.squeeze(ticket, spec)


def cmd_transform(config: dict | None, ticket_path: str, out_path: str,
                  seed: int | None) -> int:
    if not ticket_path or not out_path:
        raise ConfigError("transform needs --ticket and --out")
    ticket = load_ticket(ticket_path)
    if config is None or "transform" not in config:
        raise ConfigError("transform needs a config with a 'transform' section")
    legs = config["transform"]
    legs = legs if isinstance(legs, list) else [legs]
    if len(legs) != 1:
        raise ConfigError("cmd_transform applies exactly one transform leg")
    spec = _build_transform(ticket.arch, legs[0])
    rng = Rng(method_seed(_seeds(config, seed)[0], "transform"))
    result = _apply_transform(ticket, spec, rng)
    save_ticket(result, out_path)
    print(f"transform {ticket.arch.name()} -> {result.arch.name()} "
          f"({spec.direction}): sparsity {sparsity(result).overall:.4f} -> {out_path}")
    return EXIT_OK


def cmd_prune(config: dict, method: str, ticket_path: str, dense_path: str | None,
              out_path: str, seed: int | None) -> int:
    if method not in prune.BASELINES:
        raise ConfigError(f"--method must be a one-shot baseline, got {method!r}")
    _require(config, "data", "train")
    if not ticket_path or not out_path:
        raise ConfigError("prune needs --ticket (reference) and --out")
    reference = load_ticket(ticket_path)
    dense = load_ticket(dense_path).rewind_weights if dense_path else reference.rewind_weights
    train_ds, _, _ = resolve_data(config["data"])
    s = _seeds(config, seed)[0]
    cfg = resolve_train(config["train"], s)
    batch = _saliency_batch(train_ds, cfg, s)
    result = prune.match_sparsity(method, reference, dense, batch, Rng(method_seed(s, method)))
    save_ticket(result, out_path)
    print(f"prune {method} on {reference.arch.name()}: sparsity "
          f"{sparsity(result).overall:.4f} -> {out_path}")
    return EXIT_OK


def _saliency_batch(train_ds, cfg, seed):
    rng = Rng(seed)
    order = rng.permutation("saliency-batch", len(train_ds.labels))
    idx = order[: cfg.batch_size]
    return train_ds.images[idx], train_ds.labels[idx]


def cmd_eval(config: dict, ticket_path: str, out_root: str | None, seed: int | None) -> int:
    _require(config, "data", "train")
    if not ticket_path:
        raise ConfigError("eval needs --ticket")
    ticket = load_ticket(ticket_path)
    train_ds, test_ds, augment_fn = resolve_data(config["data"])
    out = _out_dir(config, out_root)
    for s in _seeds(config, seed):
        cfg = resolve_train(config["train"], s)
        record = evaluation.evaluate_ticket(ticket, train_ds, test_ds, cfg, augment_fn)
        _write_run(config, out, s, record)
        print(f"eval {ticket.arch.name()} seed={s}: sparsity {record.sparsity:.4f} "
              f"test_acc {record.final_test_acc:.4f}")
    return EXIT_OK


def cmd_connectivity(config: dict, ticket_path: str, out_root: str | None,
                     seed: int | None) -> int:
    _require(config, "data", "train")
    if not ticket_path:
        raise ConfigError("connectivity needs --ticket")
    ticket = load_ticket(ticket_path)
    train_ds, test_ds, augment_fn = resolve_data(config["data"])
    seeds = _seeds(config, seed)
    if len(seeds) < 2:
        raise ConfigError("connectivity needs two seeds in config.seeds")
    probe_cfg = config.get("connectivity", {})
    cfg = resolve_train(config["train"], seeds[0])
    report = evaluation.connectivity_probe(
        ticket, train_ds, test_ds, cfg, (seeds[0], seeds[1]),
        grid_size=probe_cfg.get("grid_size", 11),
        recalibrate_bn=probe_cfg.get("recalibrate_bn", True),
        augment_fn=augment_fn)
    out = _out_dir(config, out_root)
    report.write_csv(out / "interpolation.csv")
    write_json(report.to_json(), out / "interpolation.json")
    _write_resolved(config, out, seeds[:2])
    print(f"connectivity {ticket.arch.name()}: max_drop {report.max_drop:.4f}")
    return EXIT_OK


def _build_method_tickets(config, spec, src_result, train_ds, test_ds, augment_fn, base_seed):
    """Tickets for one comparison leg, all matched to the reference sparsity."""
    methods = config["methods"]
    src_ticket = src_result.tickets[-1]
    dense_src = _dense_ticket(src_ticket.arch, src_result.dense_rewind,
                              src_result.rewind_step, train_ds.name, base_seed)
    ett_ticket = _apply_transform(src_ticket, spec, Rng(method_seed(base_seed, "ett")))
    dense_target = _apply_transform(dense_src, spec, Rng(method_seed(base_seed, "ett-dense")))
    tickets: dict[str, SparseTicket] = {}
    reference = ett_ticket
    baseline_dense = dense_target.rewind_weights
    if "imp" in methods:
        target_result = _run_imp(spec.target_arch, train_ds, test_ds, config,
                                 base_seed, augment_fn)
        tickets["imp"] = reference = target_result.tickets[-1]
        baseline_dense = target_result.dense_rewind  # baselines use the target's own rewind
    batch = _saliency_batch(train_ds, resolve_train(config["train"], base_seed), base_seed)
    for method in methods:
        if method == "ett":
            tickets["ett"] = ett_ticket
        elif method in prune.BASELINES:
            # all baselines hang off the reference so zero counts match exactly
            tickets[method] = prune.match_sparsity(method, reference, baseline_dense, batch,
                                                   Rng(method_seed(base_seed, method)))
        elif method == "random_random":
            permuted = prune.random_prune(
                reference, Rng(method_seed(base_seed, "random_random-mask")), baseline_dense)
            tickets[method] = reinit_ticket(
                permuted, Rng(method_seed(base_seed, "random_random-init")))
        elif method == "ett_snip_extra":
            tickets[method] = _ett_snip_extra(ett_ticket, spec, dense_target, batch)
    return tickets, ("imp" if "imp" in methods else "ett")


def _ett_snip_extra(ett_ticket, spec, dense_target, batch):
    """The leg's ett ticket with each replica tensor's mask refilled from SNIP
    saliency on the target's dense rewind; per-tensor keep counts stay."""
    saliency = prune.snip_saliency(spec.target_arch, dense_target.rewind_weights, batch)
    new_mask = dict(ett_ticket.mask)
    for prefix in ett.replica_prefixes(spec):
        for path in new_mask:
            if not path.startswith(prefix + "/"):
                continue
            keep = int(np.count_nonzero(new_mask[path]))
            s = saliency[path].ravel()
            flat = prune._keep_first_mask(-s, np.ones(s.size, dtype=bool), keep)
            new_mask[path] = flat.reshape(new_mask[path].shape)
    prov = dict(ett_ticket.provenance)
    prov["method"] = "ett-snip-extra"
    return make_ticket(spec.target_arch, dense_target.rewind_weights, new_mask,
                       ett_ticket.rewind_step, prov)


def cmd_compare(config: dict, out_root: str | None, seed: int | None, jobs: int = 1) -> int:
    _require(config, "arch", "data", "train", "imp", "methods")
    methods = config["methods"]
    for m in methods:
        if m not in KNOWN_METHODS:
            raise ConfigError(f"config.methods: unknown method {m!r}; known: {KNOWN_METHODS}")
    if "imp" not in methods and "ett" not in methods:
        raise ConfigError("config.methods must include 'imp' or 'ett' as the sparsity reference")
    source_arch = resolve_arch(config["arch"])
    legs = config.get("transform", [{"target": config["arch"]}])
    legs = legs if isinstance(legs, list) else [legs]
    specs = [_build_transform(source_arch, leg) for leg in legs]
    targets = [spec.target_arch.name() for spec in specs]
    shared = sorted({name for name in targets if targets.count(name) > 1})
    if shared:
        raise ConfigError(f"config.transform: several legs target {', '.join(shared)}; "
                          f"their tickets and comparison files would overwrite each other")
    if "ett_snip_extra" in methods and any(spec.direction != ett.STRETCH for spec in specs):
        raise ConfigError("ett_snip_extra applies to stretch legs only")
    train_ds, test_ds, augment_fn = resolve_data(config["data"])
    seeds = _seeds(config, seed)
    base_seed = seeds[0]
    out = _out_dir(config, out_root)
    _write_resolved(config, out, seeds)
    tickets_dir = out / "tickets"
    tickets_dir.mkdir(exist_ok=True)

    src_result = _run_imp(source_arch, train_ds, test_ds, config, base_seed, augment_fn)
    save_ticket(_dense_ticket(source_arch, src_result.dense_rewind, src_result.rewind_step,
                              train_ds.name, base_seed),
                tickets_dir / f"{source_arch.name()}-dense.eltk")
    for k, t in enumerate(src_result.tickets, start=1):
        save_ticket(t, tickets_dir / f"{source_arch.name()}-imp-round-{k:02d}.eltk")

    cfg = resolve_train(config["train"], base_seed)
    for spec, target_name in zip(specs, targets):
        tickets, reference = _build_method_tickets(config, spec, src_result, train_ds,
                                                   test_ds, augment_fn, base_seed)
        for m, t in tickets.items():
            save_ticket(t, tickets_dir / f"{target_name}-{m}.eltk")
        table = evaluation.compare(tickets, reference, train_ds, test_ds, cfg,
                                   seeds, augment_fn, jobs=jobs)
        table.write_csv(out / f"comparison-{target_name}.csv")
        doc = table.to_json()
        doc["config"] = config
        write_json(doc, out / f"comparison-{target_name}.json")
        for row in sorted(table.rows, key=lambda r: -r.mean_acc):
            print(f"compare {source_arch.name()} -> {target_name} [{row.method}] "
                  f"sparsity {row.sparsity:.4f}: {row.mean_acc:.4f} +/- {row.std_acc:.4f}")
    return EXIT_OK


def cmd_flops(config: dict, out_root: str | None) -> int:
    _require(config, "arch", "flops")
    arch = resolve_arch(config["arch"])
    section = config["flops"]
    reference = resolve_arch(section["reference"]) if "reference" in section else None
    value = arch_mod.estimate_flops(arch, section.get("sparsity", 0.0),
                                    section.get("train_steps_multiplier", 1.0),
                                    reference)
    print(f"flops {arch.name()} sparsity={section.get('sparsity', 0.0)} "
          f"x{section.get('train_steps_multiplier', 1.0)}: {value:.4f}x normalized")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastic-tickets",
        description="Find, transform, and evaluate lottery-ticket subnetworks.")
    parser.add_argument("command",
                        choices=["train", "imp", "transform", "prune", "eval",
                                 "connectivity", "compare", "flops"])
    parser.add_argument("--config", help="config JSON path or preset name")
    parser.add_argument("--ticket", help="input ticket (.eltk)")
    parser.add_argument("--dense-ticket", help="dense rewind ticket for baselines")
    parser.add_argument("--method", help="baseline method for the prune command")
    parser.add_argument("--out", help="output directory (or file for transform/prune)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
        config = load_config(args.config) if args.config else None
        if args.command in ("train", "imp", "compare", "eval", "connectivity", "flops") \
                and config is None:
            raise ConfigError(f"{args.command} requires --config")
        if args.command == "train":
            return cmd_train(config, args.out, args.seed)
        if args.command == "imp":
            return cmd_imp(config, args.out, args.seed)
        if args.command == "transform":
            return cmd_transform(config, args.ticket, args.out, args.seed)
        if args.command == "prune":
            return cmd_prune(config, args.method, args.ticket, args.dense_ticket,
                             args.out, args.seed)
        if args.command == "eval":
            return cmd_eval(config, args.ticket, args.out, args.seed)
        if args.command == "connectivity":
            return cmd_connectivity(config, args.ticket, args.out, args.seed)
        if args.command == "compare":
            return cmd_compare(config, args.out, args.seed, args.jobs)
        return cmd_flops(config, args.out)
    except (ConfigError, DomainError, UsageError, DataParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except IncompatibilityError as e:
        print(f"incompatible: {e}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except TicketLoadError as e:
        print(f"bad ticket: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_BAD_TICKET
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"failed: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
