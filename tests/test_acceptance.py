"""Acceptance gate: one test per criterion, each at its stated tolerance.

Criteria 1, 2 and 7 train on MNIST / CIFAR-10 and skip (with download
instructions) when the files are absent; everything else is self-contained.
A per-criterion PASS/FAIL summary prints at the end of the pytest run.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, HealthCheck
from hypothesis import strategies as st

from conftest import assert_tickets_equal, require_dataset
import oracles
from elastic_tickets import arch, cli, data, ett, evaluation, nn, prune, ticket
from elastic_tickets.tensor import Rng
from support import inverse, randint_below


def _run_preset(preset, tmp_path, data_dir, monkeypatch):
    monkeypatch.setenv(cli.DATA_ENV, str(data_dir))
    config = cli.load_config(preset)
    out = tmp_path / "runs"
    assert cli.cmd_compare(config, str(out), None) == 0
    base = out / config["name"]
    tables = {}
    for f in base.glob("comparison-*.json"):
        doc = json.loads(f.read_text())
        rows = {r["method"]: r for r in doc["rows"]}
        tables[f.stem.replace("comparison-", "")] = rows
    return base, tables


def test_criterion_1_mnist_mlp_reproduction(tmp_path, monkeypatch):
    """IMP on MLP-3 at 89.26% +-1 weight; ticket accuracy >= 97.3%;
    stretch transfer from MLP-2 within 0.6% of the target's own IMP ticket."""
    data_dir = require_dataset("mnist")
    base, tables = _run_preset("mnist-mlp-paper", tmp_path, data_dir, monkeypatch)
    rows = tables["mlp[784,300,300,300,100,10]"]
    imp_ticket = ticket.load_ticket(
        base / "tickets" / "mlp[784,300,300,300,100,10]-imp.eltk")
    rep = ticket.sparsity(imp_ticket)
    assert abs(rep.overall - (1 - 0.8 ** 10)) <= 10 / rep.total
    imp_acc = rows["imp"]["mean_acc"]
    ett_acc = rows["ett"]["mean_acc"]
    assert len(rows["imp"]["seed_accs"]) == 3
    assert imp_acc >= 0.973
    assert abs(ett_acc - imp_acc) <= 0.006


def test_criterion_2_method_ordering_cifar_desk(tmp_path, monkeypatch):
    """Squeeze and stretch legs from one ResNet-14 IMP chain: transformed
    tickets beat random permutation by 1% and beat reinitialization."""
    data_dir = require_dataset("cifar10")
    base, tables = _run_preset("cifar-resnet-desk", tmp_path, data_dir, monkeypatch)
    assert set(tables) == {"resnet8", "resnet20"}
    for target, rows in tables.items():
        ett_acc = rows["ett"]["mean_acc"]
        assert len(rows["ett"]["seed_accs"]) == 3
        assert ett_acc >= rows["random"]["mean_acc"] + 0.01, target
        assert ett_acc >= rows["reinit"]["mean_acc"], target


def test_criterion_3_sparsity_algebra():
    """Round-k sparsity tracks 1-(1-p)^k within +-k weights on a
    {0.1, 0.2, 0.5} x {1..13} grid, including the 13-round 94.5% anchor."""
    train_ds, test_ds = data.synth(data.SynthSpec(n_per_class=10, num_classes=5,
                                                  input_shape=(60,), seed=1))
    a = arch.mlp_arch([60, 70, 70, 35, 10])
    for p in (0.1, 0.2, 0.5):
        cfg = prune.ImpConfig(rate=p, rounds=13, rewind_step=0,
                              train=nn.TrainConfig(epochs=0, batch_size=16, lr=0.1, seed=2))
        result = prune.imp_run(a, train_ds, test_ds, cfg)
        for k, t in enumerate(result.tickets, start=1):
            rep = ticket.sparsity(t)
            assert abs(rep.overall - (1 - (1 - p) ** k)) <= k / rep.total, (p, k)
    anchor = 1 - 0.8 ** 13
    assert round(anchor, 4) == 0.9450


def _uniform_scale_ticket(widths, sparsity_target, seed):
    """Unit-variance weights so global pruning spreads evenly across layers."""
    a = arch.mlp_arch(list(widths))
    rng = Rng(seed)
    weights = {}
    for spec in arch.param_specs(a):
        n = int(np.prod(spec.shape))
        if spec.kind == "dense_weight":
            weights[spec.path] = rng.normal64("init", n).astype(np.float32).reshape(spec.shape)
        else:
            weights[spec.path] = np.zeros(spec.shape, np.float32)
    mask = prune.magnitude_prune(weights, ticket.all_ones_mask(a), sparsity_target, a)
    return ticket.make_ticket(a, weights, mask, 0, {"method": "imp"})


def _uniform_rate_ticket(a, rate, seed):
    """Random mask at the same pruned fraction in every tensor: the regime the
    proportional-sparsity claim is about (real tickets prune layers evenly)."""
    rng = Rng(seed)
    weights = arch.init_params(a, rng)
    mask = {}
    for p in arch.prunable_paths(a):
        size = weights[p].size
        zeros = int(round(rate * size))
        flat = np.ones(size, np.float32)
        flat[rng.permutation("mask-permutation", size)[:zeros]] = 0.0
        mask[p] = flat.reshape(weights[p].shape)
    return ticket.make_ticket(a, weights, mask, 0, {"method": "imp"})


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 3), st.integers(1, 3), st.floats(0.1, 0.9),
       st.integers(0, 2 ** 31), st.sampled_from([ett.APPENDING, ett.INTERPOLATION]))
def test_criterion_4_transform_invariants(normals, copies, sparsity_target, seed, ordering):
    """(a) replicate-all-equally drifts overall sparsity <= 1% absolute;
    (b) squeeze(stretch(t)) is a bit-exact identity; (c) orderings agree as
    payload multisets; (d) invariant components stay bit-identical."""
    hidden = 24
    widths = [16] + [hidden] * (normals + 1) + [12, 6]
    t = _uniform_rate_ticket(arch.mlp_arch(widths), sparsity_target, seed)
    target = arch.mlp_arch([16] + [hidden] * (normals * (1 + copies) + 1) + [12, 6])
    spec = ett.default_spec(t.arch, target, ordering)
    out = ett.stretch(t, spec)
    # (a) bounded sparsity drift
    assert abs(ticket.sparsity(out).overall - ticket.sparsity(t).overall) <= 0.01
    # (b) exact round trip
    assert_tickets_equal(ett.squeeze(out, inverse(spec)), t)
    # (c) ordering changes positions only
    other = ett.APPENDING if ordering == ett.INTERPOLATION else ett.INTERPOLATION
    out2 = ett.stretch(t, ett.default_spec(t.arch, target, other))
    n_layers = len(target.widths) - 1
    fp = lambda tk, k: (tk.rewind_weights[f"layer{k}/weight"].tobytes(),
                        tk.mask[f"layer{k}/weight"].tobytes())
    assert sorted(fp(out, k) for k in range(n_layers)) == \
        sorted(fp(out2, k) for k in range(n_layers))
    # (d) invariant units copied verbatim
    last = len(t.arch.widths) - 2
    for src_k, dst_k in ((0, 0), (last - 1, n_layers - 2), (last, n_layers - 1)):
        assert np.array_equal(out.rewind_weights[f"layer{dst_k}/weight"],
                              t.rewind_weights[f"layer{src_k}/weight"])
        assert np.array_equal(out.mask[f"layer{dst_k}/weight"],
                              t.mask[f"layer{src_k}/weight"])


def test_criterion_4_transform_invariants_resnet():
    """Same four properties on a residual-network ticket."""
    src_arch = arch.derive_arch("resnet_cifar", 14, input_shape=(3, 8, 8))
    t = _uniform_rate_ticket(src_arch, 0.6, seed=1)
    target = arch.derive_arch("resnet_cifar", 26, input_shape=(3, 8, 8))
    for ordering in (ett.APPENDING, ett.INTERPOLATION):
        spec = ett.default_spec(t.arch, target, ordering)
        out = ett.stretch(t, spec)
        assert abs(ticket.sparsity(out).overall - ticket.sparsity(t).overall) <= 0.01
        assert_tickets_equal(ett.squeeze(out, inverse(spec)), t)
        for path in ("input/conv/weight", "output/fc/weight", "output/fc/bias"):
            assert np.array_equal(out.rewind_weights[path], t.rewind_weights[path])
        for i in range(3):
            pre = f"stage{i}/unit0/"
            for p in t.rewind_weights:
                if p.startswith(pre):
                    assert np.array_equal(out.rewind_weights[p], t.rewind_weights[p])
    a_t = ett.stretch(t, ett.default_spec(t.arch, target, ett.APPENDING))
    i_t = ett.stretch(t, ett.default_spec(t.arch, target, ett.INTERPOLATION))

    def stage_fps(tk, i, units):
        fps = []
        for j in range(units):
            pre = f"stage{i}/unit{j}/"
            fps.append(tuple(sorted((p[len(pre):], tk.rewind_weights[p].tobytes())
                                    for p in tk.rewind_weights if p.startswith(pre))))
        return sorted(fps)

    for i in range(3):
        assert stage_fps(a_t, i, 4) == stage_fps(i_t, i, 4)


_LAYER_KINDS = ("dense", "conv", "batchnorm", "relu", "avgpool_global",
                "maxpool2x2", "residual_add", "softmax_xent")


def _fd_instances():
    return [(kind, i) for kind in _LAYER_KINDS for i in range(20)]


@pytest.mark.parametrize("kind,i", _fd_instances())
def test_criterion_5_gradient_correctness(kind, i):
    """Every layer kind vs 64-bit central differences at rel err <= 1e-6."""
    rng = Rng(hash((kind, i)) & 0xFFFFFFFF)
    h = 1e-4

    def rel(a, b):
        a, b = np.asarray(a).ravel(), np.asarray(b).ravel()
        return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-30)

    def fd_check(loss_fn, theta, analytic):
        fd = oracles.oracle_fd_grad(loss_fn, np.asarray(theta, np.float64).copy(), h)
        assert rel(analytic, fd) <= 1e-6

    if kind == "dense":
        n, din, dout = 2 + i % 3, 2 + i % 4, 2 + i % 3
        x = rng.normal64("init", n * din).reshape(n, din)
        w = rng.normal64("init", din * dout).reshape(din, dout)
        b = rng.normal64("init", dout)
        r = rng.normal64("init", n * dout).reshape(n, dout)
        _, cache = nn._dense_f(x, w, b)
        dx, dw, db = nn._dense_b(cache, r)
        fd_check(lambda t: float((nn._dense_f(x, t.reshape(w.shape), b)[0] * r).sum()), w.ravel(), dw)
        fd_check(lambda t: float((nn._dense_f(t.reshape(x.shape), w, b)[0] * r).sum()), x.ravel(), dx)
    elif kind == "conv":
        stride = 1 + i % 2
        pad = i % 2
        c, f = 1 + i % 2, 1 + (i // 2) % 2
        x = rng.normal64("init", 2 * 5 * 5 * c).reshape(2, 5, 5, c)
        w = rng.normal64("init", f * c * 9).reshape(f, c, 3, 3)
        y, cache = nn._conv_f(x, w, stride, pad)
        r = rng.normal64("init", y.size).reshape(y.shape)
        dx, dw = nn._conv_b(cache, r)
        fd_check(lambda t: float((nn._conv_f(x, t.reshape(w.shape), stride, pad)[0] * r).sum()),
                 w.ravel(), dw)
        fd_check(lambda t: float((nn._conv_f(t.reshape(x.shape), w, stride, pad)[0] * r).sum()),
                 x.ravel(), dx)
    elif kind == "batchnorm":
        ch = 2 + i % 3
        shape = (3, 4, 4, ch) if i % 2 else (8, ch)
        x = rng.normal64("init", int(np.prod(shape))).reshape(shape)
        gamma = 0.5 + rng.uniform64("init", ch)
        beta = rng.normal64("init", ch)
        r = rng.normal64("init", int(np.prod(shape))).reshape(shape)
        y, cache, _, _ = nn._bn_f(x, gamma, beta, np.zeros(ch), np.ones(ch), "train")
        dx, dg, db = nn._bn_b(cache, r)
        out = lambda xv, g, b: float((nn._bn_f(xv, g, b, np.zeros(ch), np.ones(ch), "train")[0] * r).sum())
        fd_check(lambda t: out(t.reshape(shape), gamma, beta), x.ravel(), dx)
        fd_check(lambda t: out(x, t, beta), gamma, dg)
        fd_check(lambda t: out(x, gamma, t), beta, db)
    elif kind == "relu":
        shape = (3, 4 + i % 4)
        x = rng.normal64("init", int(np.prod(shape))).reshape(shape)
        x += np.sign(x) * 0.05  # keep the kink out of FD reach
        r = rng.normal64("init", x.size).reshape(shape)
        _, cache = nn._relu_f(x)
        dx = nn._relu_b(cache, r)
        fd_check(lambda t: float((nn._relu_f(t.reshape(shape))[0] * r).sum()), x.ravel(), dx)
    elif kind == "avgpool_global":
        shape = (2, 3, 3, 2 + i % 3)
        x = rng.normal64("init", int(np.prod(shape))).reshape(shape)
        r = rng.normal64("init", shape[0] * shape[3]).reshape(shape[0], shape[3])
        _, cache = nn._gap_f(x)
        dx = nn._gap_b(cache, r)
        fd_check(lambda t: float((nn._gap_f(t.reshape(shape))[0] * r).sum()), x.ravel(), dx)
    elif kind == "maxpool2x2":
        shape = (2, 4, 4, 1 + i % 3)
        x = rng.permutation("init", int(np.prod(shape))).astype(np.float64).reshape(shape) * 0.01
        r = rng.normal64("init", x.size // 4).reshape(shape[0], 2, 2, shape[3])
        _, cache = nn._maxpool2x2_f(x)
        dx = nn._maxpool2x2_b(cache, r)
        fd_check(lambda t: float((nn._maxpool2x2_f(t.reshape(shape))[0] * r).sum()), x.ravel(), dx)
    elif kind == "residual_add":
        shape = (2, 3, 3, 2 + i % 2)
        a = rng.normal64("init", int(np.prod(shape))).reshape(shape)
        b = rng.normal64("init", int(np.prod(shape))).reshape(shape)
        r = rng.normal64("init", a.size).reshape(shape)
        fd_check(lambda t: float(((t.reshape(shape) + b) * r).sum()), a.ravel(), r)
        fd_check(lambda t: float(((a + t.reshape(shape)) * r).sum()), b.ravel(), r)
    elif kind == "softmax_xent":
        n, k = 3 + i % 3, 2 + i % 4
        logits = rng.normal64("init", n * k).reshape(n, k)
        labels = np.array([randint_below(rng, "init", k) for _ in range(n)])
        _, dlogits = nn.softmax_cross_entropy(logits, labels)
        fd_check(lambda t: nn.softmax_cross_entropy(t.reshape(n, k), labels)[0],
                 logits.ravel(), dlogits)


def test_criterion_5_grasp_hvp_vs_analytic_hessian():
    """Forward-difference Hg vs exact quadratic Hessian at rel err <= 1e-3."""
    for seed in range(10):
        rng = Rng(300 + seed)
        n = 8
        m = rng.normal64("init", n * n).reshape(n, n)
        a_mat = m @ m.T + np.eye(n)
        theta = rng.normal64("init", n)
        hg = prune.hvp_forward_diff(lambda t: a_mat @ t, theta)
        want = a_mat @ (a_mat @ theta)
        assert np.linalg.norm(hg - want) / np.linalg.norm(want) <= 1e-3


def test_criterion_6_pruning_method_oracles():
    """magnitude == full-sort oracle on 1,000 instances; random permutation
    preserves per-path counts exactly; saliency masks survive loss rescaling."""
    for i in range(1000):
        rng = Rng(50_000 + i)
        widths = [3 + i % 3, 4, 3]
        a = arch.mlp_arch(widths)
        paths = arch.prunable_paths(a)
        shapes = {s.path: s.shape for s in arch.param_specs(a)}
        weights = {s.path: np.zeros(s.shape, np.float32) for s in arch.param_specs(a)}
        for p in paths:
            weights[p] = rng.normal64("init", int(np.prod(shapes[p]))) \
                .astype(np.float32).reshape(shapes[p])
        total = sum(int(np.prod(shapes[p])) for p in paths)
        target = randint_below(rng, "init", total)
        got = prune.magnitude_prune(weights, ticket.all_ones_mask(a), int(target), a)
        ref = oracles.oracle_global_prune([(p, weights[p].ravel()) for p in paths], int(target))
        for p in paths:
            assert np.array_equal(got[p].ravel(), ref[p]), (i, p)

    t = _uniform_scale_ticket([16, 12, 12, 8, 4], 0.7, seed=9)
    permuted = prune.random_prune(t, Rng(17))
    for p in t.mask:
        assert int(np.count_nonzero(permuted.mask[p])) == int(np.count_nonzero(t.mask[p]))

    train_ds, _ = data.synth(data.SynthSpec(n_per_class=30, num_classes=4,
                                            input_shape=(10,), seed=3))
    a = arch.mlp_arch([10, 8, 4])
    weights = arch.init_params(a, Rng(4))
    batch = (train_ds.images[:16], train_ds.labels[:16])
    for fn in (prune.snip_prune, prune.grasp_prune):
        m1 = fn(a, weights, batch, 0.5, loss_scale=1.0)
        m2 = fn(a, weights, batch, 0.5, loss_scale=11.0)
        for p in m1:
            assert np.array_equal(m1[p], m2[p]), fn.__name__


def test_criterion_7_connectivity_contract():
    """Endpoint accuracies are exact and a degenerate (identical solutions)
    probe reports a max drop of exactly zero."""
    train_ds, test_ds = data.synth(data.SynthSpec(n_per_class=40, num_classes=4,
                                                  input_shape=(12,), seed=8))
    t = _uniform_scale_ticket([12, 10, 10, 6, 4], 0.5, seed=2)
    cfg0 = nn.TrainConfig(epochs=0, batch_size=16, lr=0.1, seed=0)
    degenerate = evaluation.connectivity_probe(t, train_ds, test_ds, cfg0, (1, 2), grid_size=5)
    assert degenerate.max_drop == 0.0

    from dataclasses import replace
    cfg = nn.TrainConfig(epochs=2, batch_size=16, lr=0.1, momentum=0.9, seed=0)
    report = evaluation.connectivity_probe(t, train_ds, test_ds, cfg, (3, 4), grid_size=5)
    params_a, _ = evaluation.train_ticket(t, train_ds, test_ds, replace(cfg, seed=3))
    assert report.accuracies[0] == nn.accuracy(t.arch, params_a,
                                               test_ds.images, test_ds.labels)


def test_criterion_7_connectivity_mnist_directional(tmp_path, monkeypatch):
    """On the MNIST preset, the IMP ticket interpolates with <= 2% drop while
    a permuted-mask ticket at the same sparsity exceeds 2%."""
    data_dir = require_dataset("mnist")
    monkeypatch.setenv(cli.DATA_ENV, str(data_dir))
    config = cli.load_config("mnist-mlp-paper")
    train_mnist, test_mnist, _ = cli.resolve_data(config["data"])
    a = arch.derive_arch("mlp", 3)
    imp_cfg = prune.ImpConfig(rate=config["imp"]["rate"], rounds=config["imp"]["rounds"],
                              rewind_step=config["imp"]["rewind_step"],
                              train=cli.resolve_train(config["train"], 1))
    result = prune.imp_run(a, train_mnist, test_mnist, imp_cfg)
    imp_ticket = result.tickets[-1]
    random_ticket = prune.random_prune(imp_ticket, Rng(7), result.dense_rewind)
    cfg = cli.resolve_train(config["train"], 1)
    probe_imp = evaluation.connectivity_probe(imp_ticket, train_mnist, test_mnist,
                                              cfg, (11, 22))
    assert probe_imp.accuracies[0] == nn.accuracy(
        a, evaluation.train_ticket(imp_ticket, train_mnist, test_mnist,
                                   nn.TrainConfig(**{**cfg.__dict__, "seed": 11}))[0],
        test_mnist.images, test_mnist.labels)
    probe_random = evaluation.connectivity_probe(random_ticket, train_mnist, test_mnist,
                                                 cfg, (11, 22))
    assert probe_imp.max_drop <= 0.02
    assert probe_random.max_drop > 0.02


def test_criterion_8_flops_accounting():
    """Sparsity 73.79% at 5x steps normalizes to exactly 1.3105x."""
    for depth in (20, 32, 56):
        a = arch.derive_arch("resnet_cifar", depth)
        assert round(arch.estimate_flops(a, 0.7379, 5.0), 4) == 1.3105
    a32 = arch.derive_arch("resnet_cifar", 32)
    a20 = arch.derive_arch("resnet_cifar", 20)
    ratio = arch.estimate_flops(a20, 0.0, 1.0, reference=a32)
    assert ratio == pytest.approx(arch.forward_macs(a20) / arch.forward_macs(a32))
    assert arch.estimate_flops(a32, 0.0, 1.0) == 1.0


def test_criterion_9_format_and_reproducibility(tmp_path):
    """Save/load is bit-exact, any payload byte flip is caught, and a re-run
    of the same config byte-reproduces every artifact."""
    import struct
    t = _uniform_scale_ticket([16, 12, 12, 8, 4], 0.7, seed=5)
    p = tmp_path / "t.eltk"
    ticket.save_ticket(t, p)
    assert_tickets_equal(ticket.load_ticket(p), t, check_provenance=True)

    blob = bytearray(p.read_bytes())
    header_len = struct.unpack("<Q", bytes(blob[8:16]))[0]
    payload_len = len(blob) - 16 - header_len - 4
    rng = Rng(6)
    for _ in range(20):
        pos = 16 + header_len + randint_below(rng, "init", payload_len)
        corrupt = bytearray(blob)
        corrupt[pos] ^= 1 << randint_below(rng, "init", 8)
        p.write_bytes(bytes(corrupt))
        with pytest.raises(Exception):
            ticket.load_ticket(p)

    config = {
        "name": "repro",
        "arch": {"family": "mlp", "widths": [16, 10, 10, 6, 4]},
        "data": {"name": "synth",
                 "synth": {"n_per_class": 30, "num_classes": 4, "input_shape": [16],
                           "noise": 0.4, "seed": 5}},
        "train": {"epochs": 2, "batch_size": 20, "lr": 0.1, "momentum": 0.9},
        "imp": {"rate": 0.3, "rounds": 2, "rewind_step": 2},
        "transform": [{"target": {"family": "mlp", "widths": [16, 10, 10, 10, 6, 4]}}],
        "methods": ["ett", "random", "reinit"],
        "seeds": [1, 2],
        "output": {"dir": "runs"},
    }
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.cmd_compare(config, str(out1), None) == 0
    assert cli.cmd_compare(config, str(out2), None) == 0
    base1, base2 = out1 / "repro", out2 / "repro"
    files = sorted(q.relative_to(base1) for q in base1.rglob("*") if q.is_file())
    assert files == sorted(q.relative_to(base2) for q in base2.rglob("*") if q.is_file())
    assert any(str(f).endswith(".eltk") for f in files)
    for rel in files:
        assert (base1 / rel).read_bytes() == (base2 / rel).read_bytes(), rel
