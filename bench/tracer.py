"""Outside-in tracer: wraps the package's public functions from outside.

Nothing in the program changes. ``Tracer.install`` replaces every public
function of the traced modules (and the public methods of ``tensor.Rng``)
with a wrapper that records a span, then rebinds every name that still
points at an original, including names imported with ``from ... import``
such as ``cli.save_ticket`` or ``prune.make_ticket``. Spans are
``[name, start, end, parent, info]`` lists kept in memory and written out
when the run ends.

Some wrappers also read a count from the call's arguments, bound by name,
or from its result (the ``post`` hooks). That work runs after the span
closes and is recorded as a ``trace.post`` span, so it is charged to the
tracer, not to the caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time

import numpy as np

TRACED_MODULES = ("cli", "data", "tensor", "arch", "nn", "prune", "ett", "ticket", "evaluation")
POST_SPAN = "trace.post"

# Span names whose arguments or results carry a count or a label.
_DATA_LOADERS = ("data.load_mnist", "data.load_cifar10")
_SALIENCY = ("prune.snip_saliency", "prune.snip_prune", "prune.grasp_prune")
_TRANSFORMS = ("ett.stretch", "ett.squeeze")
_VALIDATE = ("ticket.check_ticket", "ticket.validate_ticket")
STEP_MODELS = ("resnet8", "resnet14", "resnet20", "mlp2", "mlp3", "vgg16")


def model_key(arch) -> str:
    """Short model name: resnet14, vgg16, mlp2 (hidden blocks of the MLP preset)."""
    name = arch.name()
    if arch.family == "mlp":
        return f"mlp{len(arch.widths) - 3}"
    return name.split("-")[0]


def _arrays_nbytes(obj, seen: set) -> int:
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_arrays_nbytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_arrays_nbytes(v, seen) for v in obj)
    return 0


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.isfile(path) else 0


class Tracer:
    def __init__(self, package):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._package = package
        self._forward_macs = package.arch.forward_macs  # the original, read before install
        self._macs: dict[str, int] = {}
        self._posts = {
            "data.load_mnist": self._post_data_bytes,
            "data.load_cifar10": self._post_data_bytes,
            "tensor.Rng.uniform64": lambda a, r: {"words": int(a["n"])},
            "arch.init_params": lambda a, r: {"params": sum(int(v.size) for v in r.values())},
            "nn.forward": self._post_forward,
            "nn.loss_and_grad": lambda a, r: {"mode": a["mode"], "model": model_key(a["arch"])},
            "prune.magnitude_prune": lambda a, r: {
                "ranked": sum(int(np.count_nonzero(m)) for m in a["mask"].values())},
            "ticket.save_ticket": lambda a, r: {"bytes": _file_bytes(a["path"])},
            "ticket.load_ticket": lambda a, r: {"bytes": _file_bytes(a["path"])},
        }

    # -- installation ---------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, function) for everything wrapped."""
        for short in TRACED_MODULES:
            mod = getattr(self._package, short)
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    yield mod, attr, f"{short}.{attr}", fn
        rng_cls = self._package.tensor.Rng
        for attr, fn in vars(rng_cls).items():
            if inspect.isfunction(fn) and not attr.startswith("_"):
                yield rng_cls, attr, f"tensor.Rng.{attr}", fn

    def install(self) -> None:
        wrappers = {}
        for owner, attr, name, fn in list(self._targets()):
            wrapper = self._wrap(name, fn)
            wrappers[id(fn)] = (fn, wrapper)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        # rebind names bound by ``from module import name``
        for short in TRACED_MODULES:
            mod = getattr(self._package, short)
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        post = self._posts.get(name)
        signature = inspect.signature(fn) if post else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post is not None:
                t0 = clock()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = post(bound.arguments, result)
                spans.append([POST_SPAN, t0, clock(), parent, None])
            return result
        return wrapper

    # -- post hooks -------------------------------------------------------

    def _post_data_bytes(self, args, result):
        train, test = result
        return {"bytes": int(train.images.size + test.images.size
                             + train.labels.size + test.labels.size)}

    def _post_forward(self, args, result):
        arch = args["arch"]
        key = arch.name()
        if key not in self._macs:
            self._macs[key] = int(self._forward_macs(arch))
        _, cache = result
        return {"mode": args["mode"], "samples": int(np.shape(args["x"])[0]),
                "macs": self._macs[key], "tape_bytes": _arrays_nbytes(cache, set())}

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, info in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "info": info}) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic (pure functions of the span list)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def module_of(name: str) -> str:
    return name.split(".")[0]


def module_self_times(spans, wall: float) -> tuple[dict[str, float], float]:
    """Self time per module, and the part of ``wall`` no root span covers.

    The module self times plus the unattributed remainder sum to ``wall``.
    """
    per_module: dict[str, float] = {}
    for (name, *_), s in zip(spans, self_times(spans)):
        key = module_of(name)
        per_module[key] = per_module.get(key, 0.0) + s
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    return per_module, wall - roots


def covered(spans, names) -> float:
    """Time inside spans named in ``names``, counting nested ones once."""
    names = set(names)
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        outer = parent >= 0 and inside[parent]
        inside[i] = outer or name in names
        if name in names and not outer:
            total += end - start
    return total


def under(spans, name) -> list[bool]:
    """For each span: does it have an ancestor called ``name``?"""
    out = [False] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        out[i] = parent >= 0 and (out[parent] or spans[parent][0] == name)
    return out


def nesting_problems(spans, start: float, end: float) -> list[str]:
    """Spans that end before they start, leave their parent's interval (for
    roots: the timed window ``[start, end]``) or overlap an earlier sibling.
    Without these, self times can go negative and the unattributed remainder
    below zero."""
    problems = []
    sibling_end: dict[int, float] = {}
    for i, (name, s, e, parent, _) in enumerate(spans):
        lo, hi = (spans[parent][1], spans[parent][2]) if parent >= 0 else (start, end)
        if not lo <= s <= e <= hi:
            problems.append(f"span {i} {name} [{s}, {e}] outside its parent [{lo}, {hi}]")
        if s < sibling_end.get(parent, s):
            problems.append(f"span {i} {name} starts at {s}, before its previous sibling "
                            f"ends at {sibling_end[parent]}")
        sibling_end[parent] = max(e, sibling_end.get(parent, e))
    return problems


def _infos(spans, name):
    return [info for n, _, _, _, info in spans if n == name and info is not None]


def step_times(spans) -> dict[str, list[float]]:
    """Per model: start of a train-mode ``nn.loss_and_grad`` to the end of
    the next ``nn.sgd_step`` under the same parent."""
    pending: dict[int, tuple[str, float]] = {}
    out: dict[str, list[float]] = {}
    for name, start, end, parent, info in spans:
        if name == "nn.loss_and_grad" and info and info["mode"] == "train":
            pending[parent] = (info["model"], start)
        elif name == "nn.sgd_step" and parent in pending:
            model, t0 = pending.pop(parent)
            out.setdefault(model, []).append(end - t0)
    return out


def layer_metrics(spans, wall: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass of a workload."""
    per_module, unattributed = module_self_times(spans, wall)
    m = {f"{mod}.self_s": per_module.get(mod, 0.0) for mod in TRACED_MODULES}
    m["trace.post_s"] = per_module.get(module_of(POST_SPAN), 0.0)
    m["trace.unattributed_s"] = unattributed
    m["trace.wall_s"] = wall

    m["data.load_s"] = covered(spans, _DATA_LOADERS)
    m["data.bytes_parsed"] = sum(i["bytes"] for n in _DATA_LOADERS for i in _infos(spans, n))
    m["data.augment_s"] = covered(spans, ["data.augment_batch"])

    m["tensor.words"] = sum(i["words"] for i in _infos(spans, "tensor.Rng.uniform64"))
    m["tensor.permutation_s"] = covered(spans, ["tensor.Rng.permutation"])

    m["arch.init_s"] = covered(spans, ["arch.init_params"])
    m["arch.params_init"] = sum(i["params"] for i in _infos(spans, "arch.init_params"))

    in_train = under(spans, "nn.train")
    forwards = [(end - start, info, in_train[i]) for i, (name, start, end, _, info)
                in enumerate(spans) if name == "nn.forward" and info]
    train_fwd = [(d, info) for d, info, _ in forwards if info["mode"] == "train"]
    eval_fwd = [(d, info) for d, info, _ in forwards if info["mode"] == "eval"]
    fwd_s = sum(d for d, _ in train_fwd)
    bwd_s = covered(spans, ["nn.backward"])
    m["nn.forward_train_s"] = fwd_s
    m["nn.backward_s"] = bwd_s
    m["nn.forward_eval_s"] = sum(d for d, _ in eval_fwd)
    m["nn.eval_samples"] = sum(info["samples"] for _, info in eval_fwd)
    m["nn.sgd_step_s"] = covered(spans, ["nn.sgd_step"])
    m["nn.loss_s"] = covered(spans, ["nn.softmax_cross_entropy"])
    m["nn.train_self_s"] = sum(own for (name, *_), own in zip(spans, self_times(spans))
                               if name == "nn.train")
    m["nn.steps"] = sum(1 for name, *_ in spans if name == "nn.sgd_step")
    m["nn.train_samples"] = sum(info["samples"] for _, info, inside in forwards
                                if inside and info["mode"] == "train")
    steps = step_times(spans)
    for model in STEP_MODELS:
        m[f"nn.step_ms.{model}"] = 1e3 * statistics.median(steps[model]) if model in steps else 0.0
    train_macs = 3 * sum(info["macs"] * info["samples"] for _, info in train_fwd)
    m["nn.train_gmacs_per_s"] = train_macs / (fwd_s + bwd_s) / 1e9 if fwd_s + bwd_s else 0.0
    tapes = {"train": [0], "eval": [0]}
    for info in _infos(spans, "nn.forward"):
        tapes.setdefault(info["mode"], [0]).append(info["tape_bytes"])
    m["nn.tape_mb.train_max"] = max(tapes["train"]) / 2 ** 20
    m["nn.tape_mb.eval_max"] = max(tapes["eval"]) / 2 ** 20

    m["prune.magnitude_s"] = covered(spans, ["prune.magnitude_prune"])
    m["prune.weights_ranked"] = sum(i["ranked"] for i in _infos(spans, "prune.magnitude_prune"))
    m["prune.saliency_s"] = covered(spans, _SALIENCY)
    m["prune.random_s"] = covered(spans, ["prune.random_prune"])

    m["ett.transform_s"] = covered(spans, _TRANSFORMS)

    m["ticket.save_s"] = covered(spans, ["ticket.save_ticket"])
    m["ticket.load_s"] = covered(spans, ["ticket.load_ticket"])
    m["ticket.validate_s"] = covered(spans, _VALIDATE)
    m["ticket.bytes_written"] = sum(i["bytes"] for i in _infos(spans, "ticket.save_ticket"))
    m["ticket.bytes_read"] = sum(i["bytes"] for i in _infos(spans, "ticket.load_ticket"))

    cells = [end - start for name, start, end, _, _ in spans
             if name == "evaluation.evaluate_ticket"]
    m["evaluation.cells"] = len(cells)
    m["evaluation.cell_s.p50"] = statistics.median(cells) if cells else 0.0
    m["evaluation.cell_s.max"] = max(cells, default=0.0)
    return m
