"""The three benchmark workloads, each shaped after a shipped preset.

Every workload is a fixed sequence of CLI commands (``cli.main`` argv lists)
run in one process with ``--jobs 1``. Recipes keep the presets' architecture,
batch size, lr, momentum, weight decay, augmentation, transform legs and
method lists; only epochs, rounds, subset sizes and seed count are cut so one
pass of a workload fits a benchmark run. Why each one exists:

* ``resnet-desk`` -- conv/BN training and eval-mode accuracy passes dominate;
  RNG and pruning are a few percent. Conv-kernel work shows here, RNG and
  prune work should not.
* ``mlp-paper`` -- tiny dense steps, so per-step Python overhead, the
  pure-Python RNG and the saliency baselines show. No conv at all.
* ``vgg-imp`` -- 15 M parameters with one training step: initialisation,
  global ranking and ticket files dominate, and its convs are GEMM-bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    """One CLI command and what its output checks need to know.

    ``argv`` and the paths may hold ``{config}`` and ``{seed}`` placeholders;
    paths are relative to the pass directory the command runs in.
    ``imp_rounds`` maps a ticket path to its IMP round, whose zero count must
    follow the floor sequence exactly. ``matched`` pairs a baseline ticket
    with the reference whose zero count it must equal. ``train_work`` is the
    (optimizer steps, training samples) the command's recipe gives, summed
    over its ``nn.train`` calls.
    """
    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    train_work: tuple[int, int] = (0, 0)
    imp_rounds: dict[str, int] = field(default_factory=dict)
    matched: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str            # "mnist" or "cifar10"
    n_train: int            # stand-in file sizes
    n_test: int
    config: dict            # strict-schema config minus "seeds"
    ops: tuple[Op, ...]

    def config_for(self, seed: int) -> dict:
        return dict(self.config, seeds=[seed])


_CIFAR_RECIPE = {"batch_size": 100, "lr": 0.1, "momentum": 0.9, "weight_decay": 0.0001,
                 "warmup_steps": 0}

_RESNET_TARGETS = ("resnet8", "resnet20")
_RESNET_BASELINES = ("random", "reinit")

RESNET_DESK = Workload(
    name="resnet-desk",
    dataset="cifar10",
    n_train=2500,
    n_test=500,
    config={
        "name": "resnet-desk",
        "notes": "cifar-resnet-desk shape: ResNet-14 b100 with augmentation, squeeze to "
                 "ResNet-8 and append-stretch to ResNet-20, methods ett/random/reinit.",
        "arch": {"family": "resnet_cifar", "depth": 14},
        "data": {"name": "cifar10", "augment": True, "subset_train": 100, "subset_test": 500},
        "train": dict(_CIFAR_RECIPE, epochs=1, milestones=[]),
        "imp": {"rate": 0.2, "rounds": 1, "rewind_step": 0},
        "transform": [
            {"target": {"family": "resnet_cifar", "depth": 8}},
            {"target": {"family": "resnet_cifar", "depth": 20}, "ordering": "appending"},
        ],
        "methods": ["ett", "random", "reinit"],
    },
    ops=(
        Op(name="compare",
           argv=("compare", "--config", "{config}", "--out", "out", "--jobs", "1"),
           outputs=("out",),
           # one step of 100 per training: IMP round 1 (rewind 0 needs no
           # capture run), then ett/random/reinit on each of the two legs
           train_work=(7, 700),
           imp_rounds={"out/resnet-desk/tickets/resnet14-imp-round-01.eltk": 1},
           matched=tuple((f"out/resnet-desk/tickets/{t}-{m}.eltk",
                          f"out/resnet-desk/tickets/{t}-ett.eltk")
                         for t in _RESNET_TARGETS for m in _RESNET_BASELINES)),
    ),
)

_MLP2 = "mlp[784,300,300,100,10]"
_MLP3 = "mlp[784,300,300,300,100,10]"
_MLP_BASELINES = ("random", "reinit", "magnitude", "snip", "grasp")
_MLP_ROUNDS = 3

MLP_PAPER = Workload(
    name="mlp-paper",
    dataset="mnist",
    n_train=2560,
    n_test=1000,
    config={
        "name": "mlp-paper",
        "notes": "mnist-mlp-paper shape: MLP-2 b128 append-stretched to MLP-3, all seven "
                 "methods of the paper preset.",
        "arch": {"family": "mlp", "multiplier": 2},
        "data": {"name": "mnist", "augment": False},
        "train": {"epochs": 2, "batch_size": 128, "lr": 0.1, "momentum": 0.9,
                  "weight_decay": 0.0, "milestones": [1, 2], "warmup_steps": 0},
        "imp": {"rate": 0.2, "rounds": _MLP_ROUNDS, "rewind_step": 10},
        "transform": [{"target": {"family": "mlp", "multiplier": 3}, "ordering": "appending"}],
        "methods": ["imp", "ett", "random", "reinit", "magnitude", "snip", "grasp"],
    },
    ops=(
        Op(name="compare",
           argv=("compare", "--config", "{config}", "--out", "out", "--jobs", "1"),
           outputs=("out",),
           # 20 steps of 128 per epoch, 40 per full training. IMP on MLP-2 and
           # again on MLP-3 (the imp method): a 10-step rewind capture and 3
           # rounds, 130 steps each; then one training per method, 7 x 40.
           train_work=(540, 540 * 128),
           imp_rounds=dict(
               {f"out/mlp-paper/tickets/{_MLP2}-imp-round-{k:02d}.eltk": k
                for k in range(1, _MLP_ROUNDS + 1)},
               **{f"out/mlp-paper/tickets/{_MLP3}-imp.eltk": _MLP_ROUNDS}),
           matched=tuple((f"out/mlp-paper/tickets/{_MLP3}-{m}.eltk",
                          f"out/mlp-paper/tickets/{_MLP3}-imp.eltk")
                         for m in _MLP_BASELINES)),
    ),
)

_VGG_TICKETS = "imp/vgg-imp/{seed}/tickets"

VGG_IMP = Workload(
    name="vgg-imp",
    dataset="cifar10",
    n_train=2500,
    n_test=500,
    config={
        "name": "vgg-imp",
        "notes": "Step-by-step CLI use on a large model: VGG-16 b128 IMP, interpolating "
                 "stretch to VGG-19, magnitude baseline matched with a dense ticket.",
        "arch": {"family": "vgg_cifar", "depth": 16},
        "data": {"name": "cifar10", "augment": True, "subset_train": 128, "subset_test": 32},
        "train": dict(_CIFAR_RECIPE, batch_size=128, epochs=1, milestones=[]),
        "imp": {"rate": 0.2, "rounds": 1, "rewind_step": 0},
        "transform": [{"target": {"family": "vgg_cifar", "depth": 19},
                       "ordering": "interpolation"}],
    },
    ops=(
        Op(name="imp",
           argv=("imp", "--config", "{config}", "--out", "imp"),
           outputs=("imp",),
           train_work=(1, 128),   # one round of one step; rewind 0 needs no capture run
           imp_rounds={f"{_VGG_TICKETS}/round-01.eltk": 1}),
        Op(name="transform-ticket",
           argv=("transform", "--config", "{config}",
                 "--ticket", f"{_VGG_TICKETS}/round-01.eltk", "--out", "vgg19-round-01.eltk"),
           outputs=("vgg19-round-01.eltk",)),
        Op(name="transform-dense",
           argv=("transform", "--config", "{config}",
                 "--ticket", f"{_VGG_TICKETS}/round-00-dense.eltk", "--out", "vgg19-dense.eltk"),
           outputs=("vgg19-dense.eltk",)),
        Op(name="prune-magnitude",
           argv=("prune", "--config", "{config}", "--method", "magnitude",
                 "--ticket", "vgg19-round-01.eltk", "--dense-ticket", "vgg19-dense.eltk",
                 "--out", "vgg19-magnitude.eltk"),
           outputs=("vgg19-magnitude.eltk",),
           matched=(("vgg19-magnitude.eltk", "vgg19-round-01.eltk"),)),
    ),
)

WORKLOADS = {w.name: w for w in (RESNET_DESK, MLP_PAPER, VGG_IMP)}
