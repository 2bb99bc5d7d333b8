"""The benchmark's tracer and worker bind package arguments by name.

``bench/tracer.py`` reads ``arch``, ``x``, ``mode``, ``mask`` and ``path``
from the calls it wraps, and ``bench/worker.py`` wraps ``nn.train``,
``nn.sgd_step`` and ``nn.loss_and_grad``. A rename here would break the
benchmark only at run time, so this checks the names it relies on.
"""

import inspect

import pytest

from elastic_tickets import arch, nn, prune, ticket
from elastic_tickets.tensor import Rng

CONTRACT = [
    (nn.forward, ("arch", "x", "mode")),
    (nn.loss_and_grad, ("arch", "params", "x", "labels", "mode")),
    (nn.train, ()),
    (nn.sgd_step, ()),
    (nn.backward, ()),
    (arch.forward_macs, ()),
    (arch.init_params, ()),
    (prune.magnitude_prune, ("mask",)),
    (ticket.save_ticket, ("path",)),
    (ticket.load_ticket, ("path",)),
    (Rng.uniform64, ("n",)),
]


@pytest.mark.parametrize("fn, names", CONTRACT, ids=lambda v: getattr(v, "__qualname__", ""))
def test_wrapped_function_keeps_its_parameter_names(fn, names):
    assert inspect.isfunction(fn)
    params = inspect.signature(fn).parameters
    assert set(names) <= set(params)
