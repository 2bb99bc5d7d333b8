import csv
import json
import os
import signal

import numpy as np
import pytest

from conftest import tiny_mlp_ticket, tiny_resnet_ticket
from elastic_tickets import arch, data, evaluation, nn, prune, ticket
from elastic_tickets.errors import IncompatibilityError, UsageError
from elastic_tickets.tensor import Rng
from support import randint_below


@pytest.fixture
def setup():
    train_ds, test_ds = data.synth(data.SynthSpec(n_per_class=40, num_classes=4,
                                                  input_shape=(12,), noise=0.4, seed=21))
    t = tiny_mlp_ticket(seed=3, sparsity_target=0.5)
    cfg = nn.TrainConfig(epochs=3, batch_size=16, lr=0.1, momentum=0.9, seed=9)
    return train_ds, test_ds, t, cfg


class TestEvaluateTicket:
    def test_dense_ticket_reduces_to_plain_training(self, setup):
        train_ds, test_ds, _, cfg = setup
        t = tiny_mlp_ticket(seed=3, sparsity_target=0.0)
        record = evaluation.evaluate_ticket(t, train_ds, test_ds, cfg)
        t.rewind_step = 0
        params, plain = nn.train(t.arch, t.rewind_weights, {}, train_ds, test_ds, cfg)
        assert record.final_test_acc == plain.final_test_acc
        assert record.epoch_train_loss == plain.epoch_train_loss
        assert record.sparsity == 0.0

    def test_deterministic(self, setup):
        train_ds, test_ds, t, cfg = setup
        r1 = evaluation.evaluate_ticket(t, train_ds, test_ds, cfg)
        r2 = evaluation.evaluate_ticket(t, train_ds, test_ds, cfg)
        assert r1.to_json() == r2.to_json()

    def test_records_sparsity_and_flops(self, setup):
        train_ds, test_ds, t, cfg = setup
        record = evaluation.evaluate_ticket(t, train_ds, test_ds, cfg)
        rep = ticket.sparsity(t)
        assert record.sparsity == rep.overall
        assert record.flops_normalized == pytest.approx(1.0 - rep.overall)

    def test_shape_mismatch(self, setup):
        train_ds, test_ds, _, cfg = setup
        bad = tiny_mlp_ticket(widths=(9, 6, 6, 4, 4))
        with pytest.raises(Exception):
            evaluation.evaluate_ticket(bad, train_ds, test_ds, cfg)


class TestTransfer:
    def test_same_dataset_identity(self, setup):
        train_ds, test_ds, t, cfg = setup
        a = evaluation.evaluate_ticket(t, train_ds, test_ds, cfg)
        b = evaluation.transfer_dataset(t, train_ds, test_ds, cfg)
        assert a.final_test_acc == b.final_test_acc
        assert a.epoch_train_loss == b.epoch_train_loss

    def test_cross_synth_transfer_above_chance(self, setup):
        train_ds, test_ds, t, cfg = setup
        other_train, other_test = data.synth(data.SynthSpec(n_per_class=40, num_classes=4,
                                                            input_shape=(12,), noise=0.4,
                                                            seed=99))
        record = evaluation.transfer_dataset(t, other_train, other_test, cfg)
        assert record.final_test_acc >= 1.0 / 4
        assert record.extra["transfer_target_dataset"] == other_train.name

    def test_shape_incompatible_rejected(self, setup):
        train_ds, test_ds, t, cfg = setup
        conv = arch.derive_arch("resnet_cifar", 8, input_shape=(3, 8, 8))
        weights = arch.init_params(conv, Rng(1))
        ct = ticket.make_ticket(conv, weights, ticket.all_ones_mask(conv), 0, {})
        with pytest.raises(IncompatibilityError):
            evaluation.transfer_dataset(ct, train_ds, test_ds, cfg)


class TestConnectivity:
    def test_equal_seeds_rejected(self, setup):
        train_ds, test_ds, t, cfg = setup
        with pytest.raises(UsageError):
            evaluation.connectivity_probe(t, train_ds, test_ds, cfg, (4, 4))

    def test_endpoints_exact(self, setup):
        train_ds, test_ds, t, cfg = setup
        report = evaluation.connectivity_probe(t, train_ds, test_ds, cfg, (4, 5), grid_size=5)
        from dataclasses import replace
        params_a, _ = evaluation.train_ticket(t, train_ds, test_ds, replace(cfg, seed=4))
        params_b, _ = evaluation.train_ticket(t, train_ds, test_ds, replace(cfg, seed=5))
        acc_a = nn.accuracy(t.arch, params_a, test_ds.images, test_ds.labels)
        acc_b = nn.accuracy(t.arch, params_b, test_ds.images, test_ds.labels)
        assert report.accuracies[0] == acc_a
        assert report.accuracies[-1] == acc_b
        assert report.alphas[0] == 0.0 and report.alphas[-1] == 1.0

    def test_degenerate_identical_solutions_zero_drop(self, setup):
        # epochs=0 leaves both runs at the rewind point: a flat landscape
        train_ds, test_ds, t, _ = setup
        cfg = nn.TrainConfig(epochs=0, batch_size=16, lr=0.1, seed=0)
        report = evaluation.connectivity_probe(t, train_ds, test_ds, cfg, (1, 2), grid_size=7)
        assert report.max_drop == 0.0
        assert len(set(report.accuracies)) == 1

    def test_swap_symmetry(self, setup):
        train_ds, test_ds, t, cfg = setup
        r1 = evaluation.connectivity_probe(t, train_ds, test_ds, cfg, (4, 5), grid_size=5)
        r2 = evaluation.connectivity_probe(t, train_ds, test_ds, cfg, (5, 4), grid_size=5)
        assert r1.accuracies == r2.accuracies[::-1]
        assert abs(r1.max_drop - r2.max_drop) <= 1e-9

    def test_grid_and_serialization(self, setup, tmp_path):
        train_ds, test_ds, t, cfg = setup
        report = evaluation.connectivity_probe(t, train_ds, test_ds, cfg, (4, 5), grid_size=11)
        assert report.alphas == [i / 10 for i in range(11)]
        report.write_csv(tmp_path / "interp.csv")
        rows = list(csv.DictReader(open(tmp_path / "interp.csv")))
        assert len(rows) == 11
        assert json.dumps(report.to_json())  # serializable

    def test_bn_recalibration_on_conv_ticket(self):
        # interpolation of batch-norm nets goes through a stats re-estimation pass
        conv = arch.derive_arch("resnet_cifar", 8, input_shape=(3, 8, 8))
        weights = arch.init_params(conv, Rng(1))
        t = ticket.make_ticket(conv, weights, ticket.all_ones_mask(conv), 0, {"method": "imp"})
        rng = Rng(2)
        images = rng.normal64("init", 60 * 3 * 8 * 8).reshape(60, 3, 8, 8).astype(np.float32)
        labels = np.array([randint_below(rng, "init", 10) for _ in range(60)], dtype=np.int64)
        ds = data.Dataset("synth-conv", "train", images, labels)
        cfg = nn.TrainConfig(epochs=1, batch_size=20, lr=0.01, momentum=0.9, seed=3)
        report = evaluation.connectivity_probe(t, ds, ds, cfg, (1, 2), grid_size=3)
        assert len(report.accuracies) == 3
        assert all(np.isfinite(a) for a in report.accuracies)


class TestCompare:
    def build_tickets(self, t):
        dense = arch.init_params(t.arch, Rng(3))
        random_t = prune.random_prune(t, Rng(11), dense)
        reinit_t = prune.match_sparsity("reinit", t, dense, None, Rng(12))
        return {"imp": t, "random": random_t, "reinit": reinit_t}

    def test_row_arity_and_aggregates(self, setup):
        train_ds, test_ds, t, cfg = setup
        tickets = self.build_tickets(t)
        table = evaluation.compare(tickets, "imp", train_ds, test_ds, cfg, seeds=[1, 2])
        assert len(table.rows) == 3
        for row in table.rows:
            assert set(row.seed_accs) == {1, 2}
            assert row.mean_acc == pytest.approx(np.mean(list(row.seed_accs.values())))

    def test_reinit_sparsity_matches_reference_exactly(self, setup):
        train_ds, test_ds, t, cfg = setup
        tickets = self.build_tickets(t)
        table = evaluation.compare(tickets, "imp", train_ds, test_ds, cfg, seeds=[1])
        by_method = {r.method: r for r in table.rows}
        assert by_method["reinit"].sparsity == by_method["imp"].sparsity
        assert by_method["random"].sparsity == by_method["imp"].sparsity

    def test_mismatched_sparsity_rejected(self, setup):
        train_ds, test_ds, t, cfg = setup
        wrong = tiny_mlp_ticket(seed=3, sparsity_target=0.8)
        with pytest.raises(IncompatibilityError, match="matching"):
            evaluation.compare({"imp": t, "magnitude": wrong}, "imp",
                               train_ds, test_ds, cfg, seeds=[1])

    def test_missing_reference_rejected(self, setup):
        train_ds, test_ds, t, cfg = setup
        with pytest.raises(UsageError):
            evaluation.compare({"imp": t}, "ett", train_ds, test_ds, cfg, seeds=[1])

    def test_csv_one_row_per_cell(self, setup, tmp_path):
        train_ds, test_ds, t, cfg = setup
        tickets = self.build_tickets(t)
        table = evaluation.compare(tickets, "imp", train_ds, test_ds, cfg, seeds=[1, 2, 3])
        table.write_csv(tmp_path / "cmp.csv")
        rows = list(csv.DictReader(open(tmp_path / "cmp.csv")))
        assert len(rows) == 3 * 3
        assert set(rows[0]) == {"method", "source_arch", "target_arch", "dataset",
                                "sparsity", "seed", "test_acc", "mean_acc", "std_acc"}

    def test_parallel_jobs_match_sequential(self, setup):
        train_ds, test_ds, t, cfg = setup
        tickets = self.build_tickets(t)
        seq = evaluation.compare(tickets, "imp", train_ds, test_ds, cfg, seeds=[1, 2])
        par = evaluation.compare(tickets, "imp", train_ds, test_ds, cfg, seeds=[1, 2], jobs=2)
        assert {r.method: r.seed_accs for r in seq.rows} == \
            {r.method: r.seed_accs for r in par.rows}

    def test_parallel_jobs_pass_augment_fn(self):
        train_ds, test_ds = data.synth(data.SynthSpec(n_per_class=20, num_classes=4,
                                                      input_shape=(1, 8, 8), noise=0.4, seed=4))
        t = tiny_mlp_ticket(seed=5, widths=(64, 16, 4))
        tickets = {"imp": t, "random": prune.random_prune(t, Rng(6))}
        cfg = nn.TrainConfig(epochs=2, batch_size=16, lr=0.1, momentum=0.9, seed=2)
        run = [evaluation.compare(tickets, "imp", train_ds, test_ds, cfg, seeds=[1, 2],
                                  augment_fn=aug, jobs=jobs).to_json()
               for aug, jobs in ((data.augment_batch, 1), (data.augment_batch, 2), (None, 1))]
        assert run[1] == run[0]
        assert run[2] != run[0]  # augmentation reached the cells

    def test_forked_workers_run_chunked_evals(self, monkeypatch, tmp_path):
        # a 64-image test set is two 32-image eval chunks of a 32x32 ResNet,
        # run on helper threads in the parent before the fork and in each worker
        t = tiny_resnet_ticket(seed=4, input_side=32)
        tickets = {"imp": t, "random": prune.random_prune(t, Rng(5))}
        rng = Rng(6)
        images = rng.normal64("init", 64 * 3 * 32 * 32).reshape(64, 3, 32, 32).astype(np.float32)
        labels = np.array([randint_below(rng, "init", 10) for _ in range(64)], dtype=np.int64)
        train_ds = data.Dataset("synth-conv", "train", images[:16], labels[:16])
        test_ds = data.Dataset("synth-conv", "test", images, labels)
        cfg = nn.TrainConfig(epochs=1, batch_size=16, lr=0.01, momentum=0.9, seed=7)
        log, eval_chunks = tmp_path / "chunked-evals", nn._eval_chunks

        def logged(*args):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return eval_chunks(*args)

        monkeypatch.setattr(nn, "_eval_workers", lambda: 2)
        monkeypatch.setattr(nn, "_eval_chunks", logged)

        def hung(signum, frame):
            raise TimeoutError("compare with jobs=2 hung")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(120)
        try:
            seq = evaluation.compare(tickets, "imp", train_ds, test_ds, cfg, seeds=[1, 2])
            par = evaluation.compare(tickets, "imp", train_ds, test_ds, cfg, seeds=[1, 2],
                                     jobs=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert par.to_json() == seq.to_json()
        # each of the four cells ends in a chunked eval: in the parent for
        # jobs=1, in a forked worker for jobs=2
        pids = log.read_text().split()
        assert pids[:4] == [str(os.getpid())] * 4
        assert len(pids) == 8 and str(os.getpid()) not in pids[4:]


def test_failed_csv_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "comparison.csv"
    path.write_text("previous\n")
    rows = [evaluation.CompareRow("imp", "a", "b", "synth", 0.5, {1: 0.5, 2: 0.6}),
            evaluation.CompareRow("ett", "a", "b", "synth", 0.5, {1: 0.5})]
    with pytest.raises(KeyError):  # the second row has no seed-2 cell
        evaluation.ComparisonTable(rows, [1, 2]).write_csv(path)
    assert path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["comparison.csv"]


def test_metrics_csv_schema(tmp_path, setup):
    train_ds, test_ds, t, cfg = setup
    record = evaluation.evaluate_ticket(t, train_ds, test_ds, cfg)
    evaluation.write_metrics_csv(record, tmp_path / "m.csv")
    rows = list(csv.DictReader(open(tmp_path / "m.csv")))
    assert len(rows) == cfg.epochs
    assert rows[-1]["test_acc"] != ""
    assert rows[0]["test_acc"] == ""
    evaluation.write_metrics_json(record, tmp_path / "m.json")
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["final_test_acc"] == record.final_test_acc
