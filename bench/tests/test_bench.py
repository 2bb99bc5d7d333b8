"""Tests of the benchmark's own parts: stand-in data, output checks, tracer.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

import json
import math
import struct
import zlib

import numpy as np
import pytest

import checks
import run
import standin
import tracer
from elastic_tickets import arch as arch_mod
from elastic_tickets import data, ticket
from elastic_tickets.tensor import Rng


def test_standin_files_parse_with_expected_counts(tmp_path):
    standin.write_mnist(str(tmp_path / "mnist"), seed=3, n_train=120, n_test=40)
    standin.write_cifar10(str(tmp_path / "cifar"), seed=3, n_train=50, n_test=20)
    train, test = data.load_mnist(str(tmp_path / "mnist"))
    assert (len(train), len(test)) == (120, 40)
    assert np.bincount(train.labels, minlength=10).tolist() == [12] * 10
    raw = train.images * data.MNIST_STD + data.MNIST_MEAN
    assert (raw < 1e-6).mean() > 0.6          # mostly zero background
    train, test = data.load_cifar10(str(tmp_path / "cifar"))
    assert (len(train), len(test)) == (50, 20)
    mean = np.array(data.CIFAR10_MEAN).reshape(1, 3, 1, 1)
    std = np.array(data.CIFAR10_STD).reshape(1, 3, 1, 1)
    channel_means = (train.images * std + mean).mean(axis=(0, 2, 3))
    np.testing.assert_allclose(channel_means, data.CIFAR10_MEAN, atol=0.05)


def test_standin_files_depend_only_on_the_seed(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        standin.write_cifar10(str(tmp_path / name), seed=seed, n_train=10, n_test=5)
    read = lambda n: (tmp_path / n / "test_batch.bin").read_bytes()  # noqa: E731
    assert read("a") == read("b") != read("c")


ARCH = arch_mod.mlp_arch([16, 12, 4])


def _ticket_with_zeros(zeros):
    params = arch_mod.init_params(ARCH, Rng(2))
    mask, left = {}, zeros
    for path in arch_mod.prunable_paths(ARCH):
        m = np.ones(params[path].shape, dtype=np.float32)
        k = min(left, m.size - 1)
        m.reshape(-1)[:k] = 0.0
        left -= k
        mask[path] = m
    assert left == 0
    return ticket.make_ticket(ARCH, params, mask, 0, {"method": "test"})


def _check(paths, imp_rounds=None, matched=(), rate=0.2, returncode=0, records=(),
           train_work=(0, 0)):
    return checks.TicketChecker().check_op(paths, imp_rounds or {}, list(matched), rate,
                                           returncode, list(records), train_work)


def _record(losses, steps=0, samples=0):
    return checks.TrainRecord("mlp", losses, steps, samples)


def _rewrite_crc(path):
    blob = bytearray(path.read_bytes())
    (header_len,) = struct.unpack("<Q", bytes(blob[8:16]))
    payload = bytes(blob[16 + header_len:-4])
    blob[-4:] = struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))


def _first_kept_mask_byte(path):
    """File offset of a mask byte that is 1 over a nonzero weight."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + header_len])
    entry = next(e for e in header["tensors"] if e["kind"] == "mask-u8")
    start = 16 + header_len + entry["offset"]
    mask = np.frombuffer(blob[start:start + entry["length"]], dtype=np.uint8)
    return start + int(np.argmax(mask == 1))


def test_clean_ticket_passes_every_check(tmp_path):
    path = tmp_path / "t.eltk"
    ticket.save_ticket(_ticket_with_zeros(6), path)
    assert _check([str(path)], records=[_record([2.3, 1.9], 3, 30)], train_work=(3, 30)) == []


def test_flipped_mask_byte_fails_check_ticket(tmp_path):
    path = tmp_path / "t.eltk"
    ticket.save_ticket(_ticket_with_zeros(6), path)
    offset = _first_kept_mask_byte(path)
    blob = bytearray(path.read_bytes())
    blob[offset] = 0
    path.write_bytes(bytes(blob))
    assert any("load failed" in p for p in _check([str(path)]))      # CRC catches it
    _rewrite_crc(path)
    assert any("nonzero under a zero mask" in p for p in _check([str(path)]))


def test_floor_sequence_prunes_floor_of_survivors_each_round():
    assert checks.floor_zeros(7, 0.2, 2) == 2            # 7 -> 6 -> 5 survivors
    assert checks.floor_zeros(1000, 0.2, 3) == 488       # 1000 -> 800 -> 640 -> 512


def test_imp_round_off_the_floor_sequence_fails(tmp_path):
    total = sum(int(np.prod(s.shape)) for s in arch_mod.param_specs(ARCH)
                if s.path in arch_mod.prunable_paths(ARCH))
    want = checks.floor_zeros(total, 0.2, 1)
    exact, off = tmp_path / "exact.eltk", tmp_path / "off.eltk"
    ticket.save_ticket(_ticket_with_zeros(want), exact)
    ticket.save_ticket(_ticket_with_zeros(want + 1), off)
    assert _check([str(exact)], imp_rounds={str(exact): 1}) == []
    problems = _check([str(off)], imp_rounds={str(off): 1})
    assert any("floor sequence" in p for p in problems)


def test_matched_baseline_off_by_one_fails(tmp_path):
    ref, good, bad = (tmp_path / f"{n}.eltk" for n in ("ref", "good", "bad"))
    ticket.save_ticket(_ticket_with_zeros(40), ref)
    ticket.save_ticket(_ticket_with_zeros(40), good)
    ticket.save_ticket(_ticket_with_zeros(41), bad)
    assert _check([], matched=[(str(good), str(ref))]) == []
    problems = _check([], matched=[(str(bad), str(ref))])
    assert any("41 zeros" in p and "has 40" in p for p in problems)


def test_non_finite_loss_and_exit_code_fail():
    assert checks.loss_failures([_record([2.0, 1.5])]) == []
    assert checks.loss_failures([_record([2.0, math.nan])])
    assert checks.loss_failures([_record([math.inf])])
    assert any("non-finite" in p for p in _check([], records=[_record([math.nan])]))
    assert any("exit code 4" in p for p in _check([], returncode=4))


def test_training_work_off_the_recipe_fails():
    records = [_record([2.0], 7, 70), _record([1.0], 3, 30)]
    assert checks.work_failures(records, (10, 100)) == []
    assert any("9 steps" in p for p in _check([], records=records[:1] + [_record([1.0], 2, 30)],
                                              train_work=(10, 100)))
    assert any("90 samples" in p for p in _check([], records=records[:1] + [_record([1.0], 3, 20)],
                                                 train_work=(10, 100)))


def test_missing_expected_ticket_fails(tmp_path):
    missing = str(tmp_path / "absent.eltk")
    assert any("load failed" in p for p in _check([], imp_rounds={missing: 1}))


def test_digest_mismatch_between_passes_fails():
    def pass_(digest, problems=()):
        return {"ops": [{"name": "compare", "digest": digest, "problems": list(problems)}]}
    attempted, failed, _ = run.count_failures([pass_("a"), pass_("a")])
    assert (attempted, failed) == (2, 0)
    attempted, failed, lines = run.count_failures([pass_("a"), pass_("b")])
    assert (attempted, failed) == (2, 1) and "digest" in lines[0]


# ---------------------------------------------------------------------------
# tracer arithmetic on a synthetic span tree

TRAIN_MLP2 = {"mode": "train", "model": "mlp2"}


def _fwd(mode, samples):
    return {"mode": mode, "samples": samples, "macs": 10, "tape_bytes": 2 ** 20}


#          name                    start end  parent info
SPANS = [
    ["cli.main",                    1.0, 10.0, -1, None],               # 0
    ["nn.train",                    2.0,  8.0,  0, None],               # 1
    ["nn.loss_and_grad",            2.5,  4.0,  1, TRAIN_MLP2],         # 2
    ["nn.forward",                  2.6,  3.0,  2, _fwd("train", 4)],   # 3
    ["nn.softmax_cross_entropy",    3.0,  3.2,  2, None],               # 4
    ["nn.sgd_step",                 4.0,  4.5,  1, None],               # 5
    ["tensor.Rng.permutation",      5.0,  6.0,  1, None],               # 6
    ["tensor.Rng.uniform64",        5.1,  5.4,  6, {"words": 9}],       # 7
    ["nn.loss_and_grad",            6.0,  7.0,  1, TRAIN_MLP2],         # 8
    ["nn.sgd_step",                 7.0,  7.5,  1, None],               # 9
    ["nn.accuracy",                 7.6,  7.95, 1, None],               # 10
    ["nn.forward",                  7.6,  7.9, 10, _fwd("eval", 5)],    # 11
    ["ticket.save_ticket",          8.5,  9.5,  0, {"bytes": 100}],     # 12
    ["trace.post",                  9.5,  9.6,  0, None],               # 13
    ["nn.forward",                  9.6,  9.8,  0, _fwd("train", 7)],   # 14 saliency, not training
]


def test_self_times_subtract_direct_children():
    got = tracer.self_times(SPANS)
    want = [9.0 - 6.0 - 1.0 - 0.1 - 0.2, 6.0 - 1.5 - 0.5 - 1.0 - 1.0 - 0.5 - 0.35,
            1.5 - 0.4 - 0.2, 0.4, 0.2, 0.5, 1.0 - 0.3, 0.3, 1.0, 0.5, 0.35 - 0.3, 0.3,
            1.0, 0.1, 0.2]
    np.testing.assert_allclose(got, want)


def test_module_self_times_and_remainder_sum_to_wall():
    per_module, unattributed = tracer.module_self_times(SPANS, wall=12.0)
    assert unattributed == pytest.approx(3.0)          # 12 s wall, one 9 s root
    assert per_module["cli"] == pytest.approx(1.7)
    assert per_module["nn"] == pytest.approx(5.2)
    assert per_module["tensor"] == pytest.approx(1.0)
    assert per_module["trace"] == pytest.approx(0.1)
    assert sum(per_module.values()) + unattributed == pytest.approx(12.0)


def test_nesting_check_accepts_a_well_formed_tree():
    assert tracer.nesting_problems(SPANS, 1.0, 13.0) == []


@pytest.mark.parametrize("index, start, end, window, message", [
    (3, 2.6, 4.2, (1.0, 13.0), "outside its parent"),      # child outlives its parent
    (9, 6.5, 7.5, (1.0, 13.0), "before its previous sibling"),  # overlaps a sibling
    (0, 0.5, 10.0, (1.0, 13.0), "outside its parent"),     # root before the window
    (0, 1.0, 10.0, (1.0, 9.0), "outside its parent"),      # root after the window
    (6, 5.0, 4.9, (1.0, 13.0), "outside its parent"),      # ends before it starts
])
def test_nesting_check_fires_on_a_broken_tree(index, start, end, window, message):
    spans = [list(s) for s in SPANS]
    spans[index][1:3] = [start, end]
    assert any(message in p for p in tracer.nesting_problems(spans, *window))


def test_nesting_check_fires_on_overlapping_roots():
    spans = [["cli.main", 1.0, 3.0, -1, None], ["cli.main", 2.0, 4.0, -1, None]]
    assert any("before its previous sibling" in p for p in tracer.nesting_problems(spans, 1.0, 4.0))


def test_covered_counts_nested_spans_once():
    assert tracer.covered(SPANS, ["tensor.Rng.permutation", "tensor.Rng.uniform64"]) == 1.0
    assert tracer.covered(SPANS, ["tensor.Rng.uniform64"]) == pytest.approx(0.3)
    assert tracer.covered(SPANS, ["cli.main", "nn.train"]) == 9.0


def test_step_times_pair_loss_and_grad_with_next_sgd_step():
    steps = tracer.step_times(SPANS)
    np.testing.assert_allclose(steps["mlp2"], [2.0, 1.5])


def test_layer_metrics_on_the_synthetic_tree():
    m = tracer.layer_metrics(SPANS, wall=12.0)
    modules = sum(m[f"{mod}.self_s"] for mod in tracer.TRACED_MODULES)
    assert modules + m["trace.post_s"] + m["trace.unattributed_s"] == pytest.approx(12.0)
    assert m["nn.step_ms.mlp2"] == pytest.approx(1750.0)
    assert m["nn.step_ms.resnet14"] == 0.0
    assert m["nn.forward_train_s"] == pytest.approx(0.6)
    assert m["nn.forward_eval_s"] == pytest.approx(0.3)
    assert m["nn.eval_samples"] == 5
    assert m["nn.sgd_step_s"] == pytest.approx(1.0)
    assert m["nn.loss_s"] == pytest.approx(0.2)
    assert m["nn.train_self_s"] == pytest.approx(1.15)
    assert m["nn.steps"] == 2
    assert m["nn.train_samples"] == 4          # the saliency forward is not training
    assert m["nn.train_gmacs_per_s"] == pytest.approx(3 * 10 * 11 / (0.6 + 0.0) / 1e9)
    assert m["nn.tape_mb.train_max"] == m["nn.tape_mb.eval_max"] == 1.0
    assert m["tensor.words"] == 9
    assert m["ticket.bytes_written"] == 100


def test_install_rebinds_from_imports_and_uninstall_restores():
    import elastic_tickets
    from elastic_tickets import cli, prune
    originals = (cli.save_ticket, prune.make_ticket, ticket.save_ticket, Rng.permutation)
    t = tracer.Tracer(elastic_tickets)
    t.install()
    try:
        assert cli.save_ticket is ticket.save_ticket is not originals[0]
        assert prune.make_ticket is ticket.make_ticket is not originals[1]
        Rng(1).permutation("data-order", 5)
    finally:
        t.uninstall()
    assert (cli.save_ticket, prune.make_ticket, ticket.save_ticket, Rng.permutation) == originals
    names = [s[0] for s in t.spans]
    assert names == ["tensor.Rng.permutation", "tensor.Rng.uniform64", "trace.post"]
