"""The benchmark's tracer and worker bind package functions and arguments by name.

``bench/tracer.py`` reads ``arch``, ``x``, ``mode``, ``mask`` and ``path``
from the calls it wraps, and sums the spans of the functions it names into
per-layer metrics (``ett.stretch`` and ``ett.squeeze`` into
``ett.transform_s``, for one). ``bench/worker.py`` wraps ``nn.train``,
``nn.sgd_step`` and ``nn.loss_and_grad``. A renamed function would break the
benchmark, or silently zero one of its metrics, only at run time, so this
checks every name it relies on.
"""

import inspect

import pytest

from elastic_tickets import arch, data, ett, evaluation, nn, prune, ticket
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
    (Rng.permutation, ()),
    (ett.stretch, ()),
    (ett.squeeze, ()),
    (evaluation.evaluate_ticket, ()),
    (prune.snip_saliency, ()),
    (prune.snip_prune, ()),
    (prune.grasp_prune, ()),
    (prune.random_prune, ()),
    (data.load_mnist, ()),
    (data.load_cifar10, ()),
    (data.augment_batch, ()),
    (ticket.check_ticket, ()),
    (ticket.validate_ticket, ()),
    (nn.softmax_cross_entropy, ()),
]


@pytest.mark.parametrize("fn, names", CONTRACT, ids=lambda v: getattr(v, "__qualname__", ""))
def test_wrapped_function_keeps_its_parameter_names(fn, names):
    assert inspect.isfunction(fn)
    params = inspect.signature(fn).parameters
    assert set(names) <= set(params)
