"""Check that source trees give byte-identical benchmark artifacts.

    python3 tools/digest_compare.py --workload vgg-imp --seed 1 OLD/src NEW/src
    python3 tools/digest_compare.py --workload all --seed 1 --seed 2 OLD/src NEW/src
    python3 tools/digest_compare.py --workload synth-methods --seed 1 OLD/src NEW/src

For each bench workload (``all`` is every one) and each ``--seed``, writes the
stand-in data and config once, runs one untraced ``bench/worker.py pass`` of
it on each source tree (a directory holding the ``elastic_tickets`` package),
and prints every op's return code, artifact digest and output-check
problems. Exits 1 when any op's digest differs between the trees on any
workload and seed; problems alone (say, a seed whose training diverges on
both) do not change the exit code.

``synth-methods`` covers what no bench workload runs: the ``random_random``
and ``ett_snip_extra`` methods, interpolation and permute legs, and the ett
ticket as the sparsity reference. It runs the README quick-start ``compare``
config, with ``seeds`` set to ``[seed, seed + 1]``, once per leg set in
``SYNTH_RUNS``, as an ``elastic-tickets compare`` subprocess on each source
tree, and compares the digests of the output trees.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from run import child_env  # noqa: E402
from standin import write_cifar10, write_mnist  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_tree(tag: str, src: str, workload, seed: int, work: str, data_dir: str,
             config: str) -> list:
    spec = {"workload": workload.name, "seed": seed, "config": config, "trace": False,
            "dir": os.path.join(work, tag), "result": os.path.join(work, f"{tag}.json"),
            "spans": os.path.join(work, f"{tag}.spans.jsonl")}
    os.makedirs(spec["dir"])
    spec_path = os.path.join(work, f"{tag}.spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), "pass", spec_path],
                          env=child_env(os.path.abspath(src), data_dir),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.exit(f"worker failed on {src} with exit {proc.returncode}:\n{proc.stdout[-3000:]}")
    shutil.rmtree(spec["dir"])  # VGG passes leave ~0.4 GB of tickets
    with open(spec["result"]) as f:
        return json.load(f)["ops"]


def compare(workload, seed: int, srcs) -> bool:
    """Run one pass per source tree; True when every op digest agrees."""
    digests = []
    with tempfile.TemporaryDirectory(prefix="digest-compare-") as tmp:
        data_dir, work = os.path.join(tmp, "data"), os.path.join(tmp, "runs")
        os.makedirs(work)
        write = write_mnist if workload.dataset == "mnist" else write_cifar10
        write(data_dir, seed, workload.n_train, workload.n_test)
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as f:
            json.dump(workload.config_for(seed), f, indent=2)
        for i, src in enumerate(srcs):
            print(f"{src}:")
            ops = run_tree(f"tree{i}", src, workload, seed, work, data_dir, config)
            for op in ops:
                print(f"  {op['name']}: rc {op['returncode']} digest {op['digest']}")
                for problem in op["problems"]:
                    print(f"    problem: {problem}")
            digests.append([op["digest"] for op in ops])
    same = all(d == digests[0] for d in digests)
    print(f"{workload.name} seed {seed}: digests {'identical' if same else 'DIFFER'}", flush=True)
    return same


SYNTH = "synth-methods"
SYNTH_README = {
    "name": "demo",
    "arch": {"family": "mlp", "widths": [16, 10, 10, 6, 4]},
    "data": {"name": "synth",
             "synth": {"n_per_class": 40, "num_classes": 4, "input_shape": [16],
                       "noise": 0.4, "seed": 5}},
    "train": {"epochs": 2, "batch_size": 20, "lr": 0.1, "momentum": 0.9},
    "imp": {"rate": 0.3, "rounds": 3, "rewind_step": 2},
    "output": {"dir": "runs"},
}
_STRETCH1 = {"family": "mlp", "widths": [16, 10, 10, 10, 6, 4]}
_STRETCH2 = {"family": "mlp", "widths": [16, 10, 10, 10, 10, 6, 4]}
_SQUEEZE = {"family": "mlp", "widths": [16, 10, 6, 4]}
# (name, transform legs, methods). The permute run leaves out ett_snip_extra,
# which older trees reject on permute legs, and imp, so the ett ticket is the
# reference there.
SYNTH_RUNS = (
    ("stretch-nine-methods",
     [{"target": _STRETCH1, "ordering": "appending"},
      {"target": _STRETCH2, "ordering": "interpolation"}],
     ["imp", "ett", "random", "reinit", "magnitude", "snip", "grasp", "random_random",
      "ett_snip_extra"]),
    ("permute-squeeze",
     [{"target": _STRETCH2, "ordering": "interpolation", "mask_mode": "permute"},
      {"target": _SQUEEZE}],
     ["ett", "random", "reinit", "magnitude", "snip", "grasp", "random_random"]),
)


def dir_digest(root: str) -> str:
    """SHA-256 over the relative path and bytes of every file under ``root``."""
    h = hashlib.sha256()
    files = sorted(os.path.relpath(os.path.join(d, name), root)
                   for d, _, names in os.walk(root) for name in names)
    for rel in files:
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def compare_synth(seed: int, srcs) -> bool:
    """Run every ``SYNTH_RUNS`` compare per source tree; True when all digests agree."""
    digests = []
    with tempfile.TemporaryDirectory(prefix="digest-compare-") as tmp:
        configs = []
        for name, legs, methods in SYNTH_RUNS:
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w") as f:
                json.dump(dict(SYNTH_README, transform=legs, methods=methods,
                               seeds=[seed, seed + 1]), f, indent=2)
            configs.append((name, path))
        for i, src in enumerate(srcs):
            print(f"{src}:")
            row = []
            for name, config in configs:
                out = os.path.join(tmp, f"tree{i}", name)
                proc = subprocess.run(
                    [sys.executable, "-m", "elastic_tickets.cli", "compare",
                     "--config", config, "--out", out],
                    env=child_env(os.path.abspath(src), ""),  # synth data reads no files
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
                if proc.returncode != 0:
                    sys.exit(f"compare {name} failed on {src} with exit {proc.returncode}:\n"
                             f"{proc.stdout[-3000:]}")
                row.append(dir_digest(out))
                print(f"  {name}: rc 0 digest {row[-1]}")
            digests.append(row)
    same = all(d == digests[0] for d in digests)
    print(f"{SYNTH} seed {seed}: digests {'identical' if same else 'DIFFER'}", flush=True)
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all", SYNTH])
    parser.add_argument("--seed", type=int, required=True, action="append",
                        help="repeat to check several seeds")
    parser.add_argument("src", nargs="+", help="source directories holding elastic_tickets")
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    differ = [f"{name} seed {seed}" for name in names for seed in args.seed
              if not (compare_synth(seed, args.src) if name == SYNTH
                      else compare(WORKLOADS[name], seed, args.src))]
    print(f"differing digests: {', '.join(differ)}" if differ
          else f"all {len(names) * len(args.seed)} runs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
