"""Output checks. Each CLI command plus its checks is one operation; an
operation fails if any of these reports a problem:

* a nonzero exit code;
* a ticket that does not load or fails ``ticket.check_ticket``;
* an IMP round-k ticket whose zero count is off the exact floor sequence;
* a matched baseline whose zero count differs from its reference's;
* a non-finite training loss (a diverged run still reports an accuracy);
* a total of optimizer steps or training samples other than the workload's
  recipe gives, so a change cannot look faster by training less;
* an artifact digest that differs between passes of one run (compared by
  the runner, since a digest needs two passes).
"""

from __future__ import annotations

import hashlib
import math
import os
from typing import NamedTuple

import numpy as np
from elastic_tickets import ticket as ticket_mod


class TrainRecord(NamedTuple):
    """What one ``nn.train`` call did."""
    arch: str
    losses: list[float]
    steps: int
    samples: int


def zero_count(ticket) -> int:
    return sum(int(m.size - np.count_nonzero(m)) for m in ticket.mask.values())


def floor_zeros(total: int, rate: float, rounds: int) -> int:
    """Zeros after ``rounds`` IMP rounds, each pruning floor(rate * survivors)."""
    survivors = total
    for _ in range(rounds):
        survivors -= math.floor(rate * survivors)
    return total - survivors


def loss_failures(records) -> list[str]:
    """``records`` are the ``TrainRecord``s of one command."""
    return [f"non-finite epoch_train_loss on {r.arch}: {r.losses}"
            for r in records if not all(math.isfinite(v) for v in r.losses)]


def work_failures(records, expected) -> list[str]:
    """Optimizer steps and training samples of one command, against ``expected``."""
    got = (sum(r.steps for r in records), sum(r.samples for r in records))
    if got == tuple(expected):
        return []
    return [f"trained {got[0]} steps on {got[1]} samples, the recipe gives "
            f"{expected[0]} steps on {expected[1]}"]


def _files(paths) -> list[str]:
    """Every file under ``paths`` (files or directories), sorted."""
    files = []
    for p in paths:
        if os.path.isdir(p):
            for base, _, names in os.walk(p):
                files += [os.path.join(base, n) for n in names]
        elif os.path.exists(p):
            files.append(p)
    return sorted(files)


class TicketChecker:
    """Loads each ticket once and caches it, since VGG tickets are large."""

    def __init__(self):
        self._cache: dict[str, object] = {}

    def load(self, path):
        if path not in self._cache:
            self._cache[path] = ticket_mod.load_ticket(path)
        return self._cache[path]

    def check_op(self, op_outputs, imp_rounds, matched, rate, returncode, records,
                 train_work) -> list[str]:
        problems = []
        if returncode != 0:
            problems.append(f"exit code {returncode}")
        tickets = {f for f in _files(op_outputs) if f.endswith(".eltk")}
        tickets |= set(imp_rounds) | {p for pair in matched for p in pair}
        for path in sorted(tickets):
            try:
                ticket = self.load(path)
            except Exception as e:  # noqa: BLE001 - any load error fails the check
                problems.append(f"{path}: load failed: {type(e).__name__}: {e}")
                continue
            problems += [f"{path}: {p}" for p in ticket_mod.check_ticket(ticket)]
        for path, k in imp_rounds.items():
            if path in self._cache:
                ticket = self._cache[path]
                total = sum(int(m.size) for m in ticket.mask.values())
                want, got = floor_zeros(total, rate, k), zero_count(ticket)
                if got != want:
                    problems.append(f"{path}: IMP round {k} has {got} zeros, floor sequence "
                                    f"gives {want} of {total}")
        for baseline, reference in matched:
            if baseline in self._cache and reference in self._cache:
                got = zero_count(self._cache[baseline])
                want = zero_count(self._cache[reference])
                if got != want:
                    problems.append(f"{baseline}: {got} zeros, reference {reference} has {want}")
        return problems + loss_failures(records) + work_failures(records, train_work)


def tree_digest(paths) -> str:
    """SHA-256 over the relative path and bytes of every file under ``paths``."""
    h = hashlib.sha256()
    for f in _files(paths):
        h.update(f.encode() + b"\0")
        with open(f, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 22), b""):
                h.update(chunk)
    return h.hexdigest()
