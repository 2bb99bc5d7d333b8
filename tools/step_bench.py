"""Training steps per second of the preset models, for one or more source trees.

    python3 tools/step_bench.py OLD/src NEW/src
    python3 tools/step_bench.py --out BENCH_step.json OLD/src NEW/src

A step is ``nn.loss_and_grad`` plus ``nn.sgd_step`` on one fixed seeded
batch, with every weight kept (an all-ones mask): MLP-2 at batch 128 on
MNIST-shaped input, and ResNet-14 and ResNet-20 at batch 100 and VGG-16 at
batch 128 on CIFAR-shaped input, each with its preset's optimizer settings
(VGG-16 has no preset and takes the CIFAR ones). A VGG-16 step takes seconds
and about 1.2 GB, so it times few steps. Each source tree is a directory
holding the ``elastic_tickets`` package, and is named in the output as it was
given. Each of ``ROUNDS`` rounds measures every model on every tree in a
fresh interpreter, with the tree order reversed from one
round to the next, so that drift in the machine's speed falls on both sides
alike. A measurement runs two warm-up steps, then times the model's fixed
step count (``MODELS``).
Prints one line per measurement and writes the rounds, medians and
quartiles, with the CPU model and the BLAS numpy was built against, to
``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

# name: (family, depth, batch, input shape, weight decay, timed steps)
MODELS = {
    "mlp2": ("mlp", 2, 128, (1, 28, 28), 0.0, 200),
    "resnet14": ("resnet_cifar", 14, 100, (3, 32, 32), 1e-4, 10),
    "resnet20": ("resnet_cifar", 20, 100, (3, 32, 32), 1e-4, 6),
    "vgg16": ("vgg_cifar", 16, 128, (3, 32, 32), 1e-4, 3),
}
WARMUP_STEPS = 2
# Ten rounds, so that a difference is seen on ten interleaved pairs.
ROUNDS = 10


def measure(model: str) -> float:
    """Steps per second of one model, on the elastic_tickets importable here."""
    from elastic_tickets import arch, nn
    from elastic_tickets.tensor import Rng

    family, depth, batch, shape, wd, steps = MODELS[model]
    a = arch.derive_arch(family, depth)
    rng = Rng(7)
    params = arch.init_params(a, rng)
    mask = {p: np.ones_like(params[p]) for p in arch.prunable_paths(a)}
    x = rng.normal64("synth-data", batch * int(np.prod(shape)))
    x = x.astype(np.float32).reshape(batch, *shape)
    y = np.minimum((rng.uniform64("synth-data", batch) * 10).astype(np.int64), 9)
    config = nn.TrainConfig(epochs=1, batch_size=batch, lr=0.1, momentum=0.9,
                            weight_decay=wd, seed=7)
    velocity: dict = {}
    t0 = 0.0
    for step in range(WARMUP_STEPS + steps):
        if step == WARMUP_STEPS:
            t0 = time.perf_counter()
        _, _, grads, bn_updates = nn.loss_and_grad(a, params, x, y, "train")
        params.update(bn_updates)
        nn.sgd_step(params, grads, mask, velocity, config, step)
    return steps / (time.perf_counter() - t0)


def run_child(src: str, model: str) -> float:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--measure", model],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.exit(f"measuring {model} on {src} failed with exit {proc.returncode}:\n"
                 f"{proc.stdout[-3000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"
    except Exception:
        return "unknown"


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3),
            "runs": [round(r, 3) for r in runs]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_step.json")
    parser.add_argument("--measure", choices=sorted(MODELS), help=argparse.SUPPRESS)
    parser.add_argument("src", nargs="*", help="source directories holding elastic_tickets")
    args = parser.parse_args(argv)
    if args.measure:
        print(measure(args.measure))
        return 0
    if not args.src:
        parser.error("give at least one source directory")
    runs = {model: {src: [] for src in args.src} for model in MODELS}
    for r in range(ROUNDS):
        order = args.src if r % 2 == 0 else args.src[::-1]
        for model in MODELS:
            for src in order:
                rate = run_child(src, model)
                runs[model][src].append(rate)
                print(f"round {r} {model} {src}: {rate:.2f} steps/s", flush=True)
    doc = {
        "metric": "training steps per second (loss_and_grad + sgd_step), higher is better",
        "environment": {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
                        "machine": platform.machine(), "python": platform.python_version(),
                        "numpy": np.__version__, "blas": blas()},
        "method": (f"{ROUNDS} rounds; each round runs every model on every tree in a "
                   f"fresh interpreter, tree order reversed on odd rounds; {WARMUP_STEPS} "
                   "warm-up steps, then the timed steps"),
        "models": {model: {"family": spec[0], "depth": spec[1], "batch": spec[2],
                           "timed_steps": spec[5],
                           "trees": {src: summary(runs[model][src]) for src in args.src}}
                   for model, spec in MODELS.items()},
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for model in MODELS:
        medians = ", ".join(f"{src} {doc['models'][model]['trees'][src]['median']:.2f}"
                            for src in args.src)
        print(f"{model} median steps/s: {medians}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
