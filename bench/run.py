"""Benchmark entry point; run it from the repository root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes seeded stand-in dataset files, measures set-up time in fresh
interpreters, then runs whole passes of the workload, each in a fresh worker
process, while another pass of median length still fits in ``--seconds`` (at
least one pass; with ``--trace 1`` at least one untraced and one traced pass,
alternating). Each pass runs the
output checks. The last line of stdout is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Metric
names and units come from ``BENCHMARK.json``.

Everything is written under ``.bench_work/`` in the current directory; a run's
working files are removed when it ends, the span file of the last traced
pass of each workload and seed is kept in ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from standin import write_cifar10, write_mnist  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0   # a run must end well inside 180 s


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": nproc(), "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": nproc(),  # child_env sets this count
            "python": platform.python_version(),
            "numpy": np.__version__, "pinning": "none", "cache_dropping": "none"}


def child_env(src: str, data_dir: str) -> dict:
    env = dict(os.environ)
    threads = str(nproc())
    env.update(PYTHONPATH=src, ELASTIC_TICKETS_DATA=data_dir, PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


def _run_child(argv, env, log_path, deadline) -> float:
    """Run a worker to completion; returns its wall time."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before a worker could start")
    t0 = time.perf_counter()
    with open(log_path, "ab") as log:
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                                  env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"worker {argv[0]} exceeded the time limit") from e
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        with open(log_path, "rb") as log:
            tail = log.read()[-3000:].decode(errors="replace")
        raise BenchError(f"worker {argv[0]} exited with {proc.returncode}:\n{tail}")
    return elapsed


def measure_setup(config_path, env, log_path, deadline) -> float:
    """Median fresh-interpreter set-up time; the first, compiling, run is dropped."""
    argv = ["setup", config_path]
    _run_child(argv, env, log_path, deadline)
    return statistics.median(_run_child(argv, env, log_path, deadline)
                             for _ in range(SETUP_REPEATS))


def run_passes(workload, seed, seconds, trace, work, config_path, env, log_path, deadline):
    passes = []
    durations = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_dir = os.path.join(work, f"pass-{len(passes):02d}")
        os.makedirs(pass_dir)
        spec = {"workload": workload.name, "seed": seed, "config": config_path,
                "trace": traced, "dir": pass_dir,
                "result": os.path.join(work, f"pass-{len(passes):02d}.json"),
                "spans": os.path.join(work, f"pass-{len(passes):02d}.spans.jsonl")}
        spec_path = os.path.join(work, f"pass-{len(passes):02d}.spec.json")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        durations.append(_run_child(["pass", spec_path], env, log_path, deadline))
        with open(spec["result"]) as f:
            result = json.load(f)
        result["traced"] = traced
        result["spans"] = spec["spans"] if traced else None
        passes.append(result)
        shutil.rmtree(pass_dir)  # VGG passes leave ~0.4 GB of tickets
        need_more = trace and not any(p["traced"] for p in passes)
        fits = time.perf_counter() - start + statistics.median(durations) <= seconds
        if not (need_more or fits):
            return passes


def count_failures(passes):
    """(attempted, failed, problem lines); a digest differing from the first
    pass's fails that operation."""
    attempted = failed = 0
    lines = []
    first = passes[0]["ops"]
    for i, p in enumerate(passes):
        for j, op in enumerate(p["ops"]):
            problems = list(op["problems"])
            if op["digest"] != first[j]["digest"]:
                problems.append(f"artifact digest differs from pass 0 ({op['digest'][:12]} "
                                f"vs {first[j]['digest'][:12]})")
            attempted += 1
            if problems:
                failed += 1
                lines += [f"pass {i} {op['name']}: {msg}" for msg in problems]
    return attempted, failed, lines


def metric_doc(names_units, values) -> dict:
    missing = [n for n, _ in names_units if n not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {n: {"value": values[n], "unit": u} for n, u in names_units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    # exit through the exception path, so a running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "elastic_tickets", "cli.py")):
        print(f"error: no program source at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    names_units = [(m["name"], m["unit"]) for m in bench[section]]

    workload = WORKLOADS[args.workload]
    work = os.path.join(root, ".bench_work", f"{workload.name}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        data_dir = os.path.join(work, "data")
        write = write_mnist if workload.dataset == "mnist" else write_cifar10
        write(data_dir, args.seed, workload.n_train, workload.n_test)
        config_path = os.path.join(work, "config.json")
        with open(config_path, "w") as f:
            json.dump(workload.config_for(args.seed), f, indent=2)
        env = child_env(src, data_dir)
        log_path = os.path.join(work, "worker.log")

        setup_s = measure_setup(config_path, env, log_path, deadline)
        passes = run_passes(workload, args.seed, args.seconds, bool(args.trace), work,
                            config_path, env, log_path, deadline)
        attempted, failed, problems = count_failures(passes)

        plain = [p for p in passes if not p["traced"]]
        values = {"setup_s": setup_s,
                  "wall_s": statistics.median(p["wall_s"] for p in plain),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}
        if args.trace:
            traced = [p for p in passes if p["traced"]]
            values = {k: statistics.median(p["layers"][k] for p in traced)
                      for k in traced[0]["layers"]}
            values["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                              / statistics.median(p["wall_s"] for p in plain))
            trace_dir = os.path.join(root, ".bench_work", "traces")
            os.makedirs(trace_dir, exist_ok=True)
            shutil.copy(traced[-1]["spans"],
                        os.path.join(trace_dir, f"{workload.name}-seed{args.seed}.jsonl"))
        doc = metric_doc(names_units, values)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {workload.name} seed {args.seed}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced)")
    for i, p in enumerate(passes):
        ops = ", ".join(f"{o['name']} {o['seconds']:.3f}s" for o in p["ops"])
        print(f"  pass {i}{' traced' if p['traced'] else ''}: wall {p['wall_s']:.3f}s "
              f"peak {p['peak_rss_mb']:.1f}MB [{ops}]")
    for line in problems:
        print(f"  FAILED {line}")
    print(f"failed_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    for name, m in doc.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": doc}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
