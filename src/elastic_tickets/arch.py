"""Architecture families parameterized by depth.

Three families are supported, each a chain of repeatable units sharing shapes:

* ``resnet_cifar`` -- depth 6n+2 basic-block residual nets, stage widths
  (16, 32, 64), one downsampling unit leading each stage.
* ``vgg_cifar``    -- VGG-13/16/19 with batch norm, pooling-delimited stages of
  conv units, plus a fully-connected head whose hidden layers are units too.
* ``mlp``          -- input layer, a block of equal-width hidden layers, a neck
  layer, and the classifier output.

Canonical parameter paths:
  resnet: ``input/conv/weight``, ``input/bn/{gamma,beta,rmean,rvar}``,
          ``stage{i}/unit{j}/{conv1,conv2,shortcut}/weight``,
          ``stage{i}/unit{j}/{bn1,bn2,bnshortcut}/{gamma,beta,rmean,rvar}``,
          ``output/fc/{weight,bias}``
  vgg:    ``stage{i}/unit{j}/conv/weight``, ``stage{i}/unit{j}/bn/...``,
          ``output/fc{k}/{weight,bias}``
  mlp:    ``layer{k}/{weight,bias}``

Dense weights are stored (in, out); conv weights (out, in, kh, kw).

Each arch has one cached layer program (``program``), the single source of
its graph: ``param_specs``, ``forward_macs`` and ``nn.forward``/``backward``
all read it. ``units`` keeps the per-family rules for which units a
transform may replicate or drop; those are transform policy, not the graph.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .tensor import Rng

FAMILY_RESNET = "resnet_cifar"
FAMILY_VGG = "vgg_cifar"
FAMILY_MLP = "mlp"

ROLE_INPUT = "input"
ROLE_DOWNSAMPLING = "downsampling"
ROLE_NORMAL = "normal"
ROLE_OUTPUT = "output"

_RESNET_WIDTHS = (16, 32, 64)
_VGG_WIDTHS = (64, 128, 256, 512, 512)
_VGG_CONV_COUNTS = {13: (2, 2, 2, 2, 2), 16: (2, 2, 3, 3, 3), 19: (2, 2, 4, 4, 4)}

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
BN_PARAMS = ("gamma", "beta", "rmean", "rvar")


@dataclass(frozen=True)
class StageSpec:
    width: int
    units: int


@dataclass(frozen=True)
class ArchDescriptor:
    family: str
    num_classes: int
    input_shape: tuple[int, ...]
    stages: tuple[StageSpec, ...] = ()      # conv families
    widths: tuple[int, ...] = ()            # mlp: input..hidden..num_classes
    head_widths: tuple[int, ...] = ()       # vgg fc head, ends with num_classes

    def name(self) -> str:
        if self.family == FAMILY_RESNET:
            units = [s.units for s in self.stages]
            if len(set(units)) == 1:
                return f"resnet{6 * units[0] + 2}"
            return "resnet[" + ",".join(str(u) for u in units) + "]"
        if self.family == FAMILY_VGG:
            counts = tuple(s.units for s in self.stages)
            for depth, c in _VGG_CONV_COUNTS.items():
                if counts == c:
                    return f"vgg{depth}-{len(self.head_widths)}"
            return "vgg[" + ",".join(str(c) for c in counts) + f"]-{len(self.head_widths)}"
        return "mlp[" + ",".join(str(w) for w in self.widths) + "]"


@dataclass(frozen=True)
class UnitRef:
    prefix: str
    stage: int | None
    index: int | None
    role: str


@dataclass(frozen=True)
class ParamSpec:
    path: str
    shape: tuple[int, ...]
    kind: str  # conv_weight | dense_weight | bias | bn_gamma | bn_beta | bn_rmean | bn_rvar


def derive_arch(family: str, depth_or_config, *, num_classes: int = 10,
                head_layers: int | None = None,
                input_shape: tuple[int, ...] | None = None) -> ArchDescriptor:
    """Build the canonical family member for a depth (or MLP block multiplier)."""
    if family == FAMILY_RESNET:
        d = int(depth_or_config)
        if d < 8 or (d - 2) % 6 != 0:
            raise ConfigError(f"resnet_cifar depth must satisfy depth = 6n+2 with n >= 1, got {d}")
        n = (d - 2) // 6
        return ArchDescriptor(
            family=family,
            num_classes=num_classes,
            input_shape=input_shape or (3, 32, 32),
            stages=tuple(StageSpec(w, n) for w in _RESNET_WIDTHS),
        )
    if family == FAMILY_VGG:
        if isinstance(depth_or_config, (list, tuple)):
            counts = tuple(int(c) for c in depth_or_config)
            if len(counts) != len(_VGG_WIDTHS) or any(c < 1 for c in counts):
                raise ConfigError(
                    f"vgg_cifar custom config needs {len(_VGG_WIDTHS)} per-stage conv counts >= 1, got {counts}"
                )
        else:
            d = int(depth_or_config)
            if d not in _VGG_CONV_COUNTS:
                raise ConfigError(f"vgg_cifar depth must be one of {sorted(_VGG_CONV_COUNTS)}, got {d}")
            counts = _VGG_CONV_COUNTS[d]
        h = 3 if head_layers is None else int(head_layers)
        if h < 1:
            raise ConfigError(f"vgg head needs at least the output layer, got head_layers={h}")
        head = (512,) * (h - 1) + (num_classes,)
        return ArchDescriptor(
            family=family,
            num_classes=num_classes,
            input_shape=input_shape or (3, 32, 32),
            stages=tuple(StageSpec(w, c) for w, c in zip(_VGG_WIDTHS, counts)),
            head_widths=head,
        )
    if family == FAMILY_MLP:
        n = int(depth_or_config)
        if n < 1:
            raise ConfigError(f"mlp block multiplier must be >= 1, got {n}")
        widths = (784,) + (300,) * n + (100, num_classes)
        return ArchDescriptor(
            family=family,
            num_classes=num_classes,
            input_shape=input_shape or (1, 28, 28),
            widths=widths,
        )
    raise ConfigError(f"unknown family {family!r}")


def mlp_arch(widths, input_shape: tuple[int, ...] | None = None) -> ArchDescriptor:
    """Custom fully-connected network; widths run input..output."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ConfigError(f"mlp widths need >= 2 positive entries, got {widths}")
    if input_shape is not None and int(np.prod(input_shape)) != widths[0]:
        raise ConfigError(f"input shape {input_shape} does not flatten to width {widths[0]}")
    return ArchDescriptor(
        family=FAMILY_MLP,
        num_classes=widths[-1],
        input_shape=input_shape or (widths[0],),
        widths=widths,
    )


def units(arch: ArchDescriptor) -> list[UnitRef]:
    """All units in forward order, with roles. Exactly one input and one output."""
    out: list[UnitRef] = []
    if arch.family == FAMILY_RESNET:
        out.append(UnitRef("input", None, None, ROLE_INPUT))
        for i, st in enumerate(arch.stages):
            for j in range(st.units):
                role = ROLE_DOWNSAMPLING if j == 0 else ROLE_NORMAL
                out.append(UnitRef(f"stage{i}/unit{j}", i, j, role))
        out.append(UnitRef("output/fc", None, None, ROLE_OUTPUT))
    elif arch.family == FAMILY_VGG:
        for i, st in enumerate(arch.stages):
            for j in range(st.units):
                if i == 0 and j == 0:
                    role = ROLE_INPUT
                elif j == 0:
                    role = ROLE_DOWNSAMPLING
                else:
                    role = ROLE_NORMAL
                out.append(UnitRef(f"stage{i}/unit{j}", i, j, role))
        h = len(arch.head_widths)
        for k in range(h):
            role = ROLE_OUTPUT if k == h - 1 else ROLE_NORMAL
            out.append(UnitRef(f"output/fc{k}", len(arch.stages), k, role))
    elif arch.family == FAMILY_MLP:
        w = arch.widths
        last = len(w) - 2
        for k in range(last + 1):
            if k == 0:
                role = ROLE_INPUT
            elif k == last:
                role = ROLE_OUTPUT
            elif w[k] == w[k + 1]:
                role = ROLE_NORMAL
            else:
                role = ROLE_DOWNSAMPLING
            out.append(UnitRef(f"layer{k}", 0, k, role))
    else:
        raise ConfigError(f"unknown family {arch.family!r}")
    return out


def transform_groups(arch: ArchDescriptor) -> list[list[UnitRef]]:
    """Unit groups that per-stage transform selections index into.

    resnet: one group per stage (downsampling unit at index 0);
    vgg: one group per conv stage plus one for the fc head;
    mlp: a single group of all layers (indices are layer numbers).
    """
    all_units = units(arch)
    if arch.family == FAMILY_RESNET:
        return [[u for u in all_units if u.stage == i] for i in range(len(arch.stages))]
    if arch.family == FAMILY_VGG:
        n = len(arch.stages)
        return [[u for u in all_units if u.stage == i] for i in range(n + 1)]
    return [all_units]


@dataclass(frozen=True)
class Layer:
    """One op of a layer program.

    ``path`` prefixes the op's parameters. ``shape`` is the conv or dense
    weight's shape, or ``(channels,)`` for batch norm. ``side`` is a conv's
    output side length. A ``block`` adds the output of ``body`` to that of
    ``shortcut``, or to its own input when ``shortcut`` is empty.
    """
    op: str  # nhwc | conv | bn | relu | dense | maxpool | gap | flatten | block
    path: str = ""
    shape: tuple[int, ...] = ()
    stride: int = 1
    side: int = 0
    body: tuple[Layer, ...] = ()
    shortcut: tuple[Layer, ...] = ()


def _conv_bn(conv: str, bn: str, f: int, c: int, k: int, stride: int, side: int) -> tuple:
    return Layer("conv", conv, (f, c, k, k), stride, side), Layer("bn", bn, (f,))


def _dense_chain(paths: list[str], widths) -> list[Layer]:
    """Dense layers from widths[0] to widths[-1], with a ReLU between each two."""
    out: list[Layer] = []
    for k, path in enumerate(paths):
        if k:
            out.append(Layer("relu"))
        out.append(Layer("dense", path, (widths[k], widths[k + 1])))
    return out


@functools.lru_cache(maxsize=None)
def program(arch: ArchDescriptor) -> tuple[Layer, ...]:
    """The arch's layers in forward order (module docstring). A conv's side
    follows the conv output formula, so a stride-2 unit takes an odd side s
    to (s + 1) // 2; a pooled stage halves the (even) side."""
    if arch.family == FAMILY_MLP:
        w = arch.widths
        return (Layer("flatten"), *_dense_chain([f"layer{k}" for k in range(len(w) - 1)], w))
    if arch.family not in (FAMILY_RESNET, FAMILY_VGG):
        raise ConfigError(f"unknown family {arch.family!r}")
    prev, side = arch.input_shape[0], arch.input_shape[1]
    prog = [Layer("nhwc")]  # kernels run channels-last
    if arch.family == FAMILY_RESNET:
        stem = arch.stages[0].width
        prog += [*_conv_bn("input/conv", "input/bn", stem, prev, 3, 1, side), Layer("relu")]
        prev = stem
    for i, st in enumerate(arch.stages):
        w = st.width
        for j in range(st.units):
            p = f"stage{i}/unit{j}"
            in_c = prev if j == 0 else w
            if arch.family == FAMILY_VGG:
                prog += [*_conv_bn(f"{p}/conv", f"{p}/bn", w, in_c, 3, 1, side), Layer("relu")]
                continue
            stride = 1 if in_c == w else 2  # a width change downsamples, through a 1x1 shortcut
            side = (side + 2 * 1 - 3) // stride + 1  # nn._conv_f's side: 3x3 kernel, padding 1
            body = (*_conv_bn(f"{p}/conv1", f"{p}/bn1", w, in_c, 3, stride, side), Layer("relu"),
                    *_conv_bn(f"{p}/conv2", f"{p}/bn2", w, w, 3, 1, side))
            shortcut = (_conv_bn(f"{p}/shortcut", f"{p}/bnshortcut", w, in_c, 1, stride, side)
                        if stride == 2 else ())
            prog += [Layer("block", p, body=body, shortcut=shortcut), Layer("relu")]
        if arch.family == FAMILY_VGG:
            prog.append(Layer("maxpool"))
            side //= 2
        prev = w
    if arch.family == FAMILY_RESNET:
        return (*prog, Layer("gap"), Layer("dense", "output/fc", (prev, arch.num_classes)))
    # the five pooled stages collapse 32x32 inputs to 1x1
    heads = [f"output/fc{k}" for k in range(len(arch.head_widths))]
    return (*prog, Layer("flatten"), *_dense_chain(heads, (prev, *arch.head_widths)))


def _walk(prog):
    """Every layer depth-first: a block, then its body, then its shortcut."""
    for layer in prog:
        yield layer
        yield from _walk(layer.body)
        yield from _walk(layer.shortcut)


def param_specs(arch: ArchDescriptor) -> list[ParamSpec]:
    """Every parameter path with shape and kind, in canonical (forward) order."""
    specs: list[ParamSpec] = []
    for layer in _walk(program(arch)):
        if layer.op == "conv":
            specs.append(ParamSpec(f"{layer.path}/weight", layer.shape, "conv_weight"))
        elif layer.op == "bn":
            specs.extend(ParamSpec(f"{layer.path}/{name}", layer.shape, f"bn_{name}")
                         for name in BN_PARAMS)
        elif layer.op == "dense":
            specs.append(ParamSpec(f"{layer.path}/weight", layer.shape, "dense_weight"))
            specs.append(ParamSpec(f"{layer.path}/bias", layer.shape[1:], "bias"))
    return specs


def unit_param_paths(arch: ArchDescriptor, unit: UnitRef) -> list[str]:
    """Paths owned by one unit (prefix match on the canonical grammar)."""
    pre = unit.prefix + "/"
    return [s.path for s in param_specs(arch) if s.path.startswith(pre)]


def init_params(arch: ArchDescriptor, rng: Rng) -> dict[str, np.ndarray]:
    """Kaiming-normal weights, zero biases, identity batch-norm.

    Draws come from the ``init`` substream in canonical parameter order, so a
    seed fully determines the parameter set.
    """
    params: dict[str, np.ndarray] = {}
    for spec in param_specs(arch):
        n = int(np.prod(spec.shape))
        if spec.kind == "conv_weight":
            fan_in = spec.shape[1] * spec.shape[2] * spec.shape[3]
            std = float(np.sqrt(2.0 / fan_in))
            params[spec.path] = (rng.normal64("init", n) * std).astype(np.float32).reshape(spec.shape)
        elif spec.kind == "dense_weight":
            std = float(np.sqrt(2.0 / spec.shape[0]))
            params[spec.path] = (rng.normal64("init", n) * std).astype(np.float32).reshape(spec.shape)
        elif spec.kind in ("bias", "bn_beta", "bn_rmean"):
            params[spec.path] = np.zeros(spec.shape, dtype=np.float32)
        elif spec.kind in ("bn_gamma", "bn_rvar"):
            params[spec.path] = np.ones(spec.shape, dtype=np.float32)
        else:
            raise ConfigError(f"unhandled param kind {spec.kind!r}")
    return params


def prunable_paths(arch: ArchDescriptor) -> list[str]:
    """All conv and dense weight paths; biases and batch-norm are never pruned."""
    return [s.path for s in param_specs(arch) if s.kind in ("conv_weight", "dense_weight")]


def trainable_paths(arch: ArchDescriptor) -> list[str]:
    return [s.path for s in param_specs(arch) if s.kind not in ("bn_rmean", "bn_rvar")]


def forward_macs(arch: ArchDescriptor) -> int:
    """Dense multiply-accumulates of one forward pass on a single example."""
    return sum(layer.side * layer.side * math.prod(layer.shape) if layer.op == "conv"
               else math.prod(layer.shape)
               for layer in _walk(program(arch)) if layer.op in ("conv", "dense"))


def estimate_flops(arch: ArchDescriptor, sparsity: float, train_steps_multiplier: float,
                   reference=None) -> float:
    """Normalized training cost.

    Training FLOPs are taken as 3x the forward multiply-accumulates (forward
    plus twice for backward) times the step multiplier, scaled by the surviving
    weight fraction, and divided by the dense-training FLOPs of ``reference``
    (an ArchDescriptor, a raw dense-FLOPs float, or None for this arch).
    """
    if not 0.0 <= sparsity < 1.0:
        raise DomainError(f"sparsity must lie in [0, 1), got {sparsity}")
    if train_steps_multiplier <= 0:
        raise DomainError(f"train_steps_multiplier must be positive, got {train_steps_multiplier}")
    dense_train = 3.0 * forward_macs(arch)
    if reference is None:
        ref = dense_train
    elif isinstance(reference, ArchDescriptor):
        ref = 3.0 * forward_macs(reference)
    else:
        ref = float(reference)
    return dense_train * (1.0 - sparsity) * train_steps_multiplier / ref


def arch_to_json(arch: ArchDescriptor) -> dict:
    return {
        "family": arch.family,
        "num_classes": arch.num_classes,
        "input_shape": list(arch.input_shape),
        "stages": [[s.width, s.units] for s in arch.stages],
        "widths": list(arch.widths),
        "head_widths": list(arch.head_widths),
    }


def arch_from_json(doc: dict) -> ArchDescriptor:
    return ArchDescriptor(
        family=doc["family"],
        num_classes=int(doc["num_classes"]),
        input_shape=tuple(int(v) for v in doc["input_shape"]),
        stages=tuple(StageSpec(int(w), int(u)) for w, u in doc["stages"]),
        widths=tuple(int(v) for v in doc["widths"]),
        head_widths=tuple(int(v) for v in doc["head_widths"]),
    )
