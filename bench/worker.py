"""One fresh process per pass of a workload, launched by ``run.py``.

``worker.py setup CONFIG`` does what every command does before its real work:
interpreter start, package import, config validation and parsing the
stand-in dataset with the program's own loaders.

``worker.py pass SPEC`` runs the workload's commands in order through
``cli.main`` in this one process, times them, optionally traces them, then
runs the output checks and writes a result JSON. Peak RSS is read before the
checks, which load tickets of their own.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import sys
import time


def setup(config_path: str) -> None:
    from elastic_tickets import cli
    config = cli.load_config(config_path)
    cli.resolve_arch(config["arch"])
    cli.resolve_train(config["train"], config["seeds"][0])
    cli.resolve_data(config["data"])


class TrainProbe:
    """Keeps a ``TrainRecord`` of every ``nn.train`` call for the output checks:
    its epoch losses, and the optimizer steps and training samples counted
    from the ``nn.sgd_step`` and train-mode ``nn.loss_and_grad`` calls made
    inside it."""

    NAMES = ("train", "sgd_step", "loss_and_grad")

    def __init__(self, nn_mod):
        self.records = []
        self._nn = nn_mod
        self._originals = {n: getattr(nn_mod, n) for n in self.NAMES}
        self._counts = None   # [steps, samples] while inside nn.train

    def install(self) -> None:
        from checks import TrainRecord
        train_fn, sgd_step_fn, loss_and_grad_fn = (self._originals[n] for n in self.NAMES)

        @functools.wraps(train_fn)
        def train(*args, **kwargs):
            counts = self._counts = [0, 0]
            try:
                params, record = train_fn(*args, **kwargs)
            finally:
                self._counts = None
            self.records.append(TrainRecord(record.arch_name, list(record.epoch_train_loss),
                                            *counts))
            return params, record

        @functools.wraps(sgd_step_fn)
        def sgd_step(*args, **kwargs):
            if self._counts is not None:
                self._counts[0] += 1
            return sgd_step_fn(*args, **kwargs)

        @functools.wraps(loss_and_grad_fn)
        def loss_and_grad(arch, params, x, labels, mode="train"):
            if self._counts is not None and mode == "train":
                self._counts[1] += len(x)
            return loss_and_grad_fn(arch, params, x, labels, mode)

        for name, fn in zip(self.NAMES, (train, sgd_step, loss_and_grad)):
            setattr(self._nn, name, fn)

    def uninstall(self) -> None:
        for name, fn in self._originals.items():
            setattr(self._nn, name, fn)


def gemm_gmacs_per_s(n: int = 1024, repeats: int = 7) -> float:
    """float32 n x n GEMM rate with the same BLAS and thread count."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    a @ b
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return n ** 3 / statistics.median(times) / 1e9


def _call_cli(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as e:  # argparse rejects bad arguments this way
        return e.code if isinstance(e.code, int) else 2


def run_pass(spec: dict) -> dict:
    import elastic_tickets
    from elastic_tickets import cli, nn
    from checks import TicketChecker, tree_digest
    from tracer import Tracer, layer_metrics, nesting_problems
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    fmt = {"config": spec["config"], "seed": spec["seed"]}
    probe = TrainProbe(nn)
    probe.install()
    tracer = None
    calib = None
    if spec["trace"]:
        calib = gemm_gmacs_per_s()
        tracer = Tracer(elastic_tickets)
        tracer.install()
    os.chdir(spec["dir"])
    done = []
    for op in workload.ops:
        argv = [a.format(**fmt) for a in op.argv]
        first_record = len(probe.records)
        t0 = time.perf_counter()
        rc = _call_cli(cli, argv)
        t1 = time.perf_counter()
        done.append((op, rc, t0, t1, probe.records[first_record:]))
    wall = done[-1][3] - done[0][2]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        tracer.uninstall()
        problems = nesting_problems(tracer.spans, done[0][2], done[-1][3])
        if problems:
            raise RuntimeError("malformed trace:\n" + "\n".join(problems[:20]))
        layers = layer_metrics(tracer.spans, wall)
        layers["calib.gemm_gmacs_per_s"] = calib
        tracer.write_jsonl(spec["spans"])
    probe.uninstall()

    checker = TicketChecker()
    rate = workload.config["imp"]["rate"]
    ops = []
    for op, rc, t0, t1, records in done:
        outputs = [p.format(**fmt) for p in op.outputs]
        imp_rounds = {p.format(**fmt): k for p, k in op.imp_rounds.items()}
        matched = [(b.format(**fmt), r.format(**fmt)) for b, r in op.matched]
        ops.append({"name": op.name, "returncode": rc, "seconds": t1 - t0,
                    "problems": checker.check_op(outputs, imp_rounds, matched, rate, rc, records,
                                                 op.train_work),
                    "digest": tree_digest(outputs)})
    return {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "ops": ops, "layers": layers}


def main(argv) -> int:
    mode, path = argv
    if mode == "setup":
        setup(path)
        return 0
    with open(path) as f:
        spec = json.load(f)
    result = run_pass(spec)
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
