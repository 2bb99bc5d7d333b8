import csv
import json

import numpy as np
import pytest

from elastic_tickets import cli, ett, prune, ticket
from elastic_tickets.tensor import Rng


def synth_compare_config(name="synth-compare", methods=None, seeds=None, legs=None):
    return {
        "name": name,
        "arch": {"family": "mlp", "widths": [16, 10, 10, 6, 4]},
        "data": {"name": "synth",
                 "synth": {"n_per_class": 40, "num_classes": 4, "input_shape": [16],
                           "noise": 0.4, "seed": 5}},
        "train": {"epochs": 2, "batch_size": 20, "lr": 0.1, "momentum": 0.9},
        "imp": {"rate": 0.3, "rounds": 3, "rewind_step": 2},
        "transform": legs or [{"target": {"family": "mlp", "widths": [16, 10, 10, 10, 6, 4]},
                               "ordering": "appending"}],
        "methods": methods or ["imp", "ett", "random", "reinit"],
        "seeds": seeds or [1, 2],
        "output": {"dir": "runs"},
    }


def write_config(tmp_path, config, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(config))
    return str(p)


class TestConfigValidation:
    def test_unknown_key_rejected_fast(self, tmp_path):
        config = synth_compare_config()
        config["trian"] = {}
        path = write_config(tmp_path, config)
        assert cli.main(["compare", "--config", path]) == cli.EXIT_CONFIG

    def test_nested_unknown_key(self, tmp_path):
        config = synth_compare_config()
        config["train"]["learning_rate"] = 0.1
        path = write_config(tmp_path, config)
        assert cli.main(["compare", "--config", path]) == cli.EXIT_CONFIG

    def test_type_errors(self, tmp_path):
        config = synth_compare_config()
        config["train"]["epochs"] = "eight"
        path = write_config(tmp_path, config)
        assert cli.main(["compare", "--config", path]) == cli.EXIT_CONFIG

    def test_unknown_preset(self):
        assert cli.main(["imp", "--config", "no-such-preset"]) == cli.EXIT_CONFIG

    def test_presets_load(self):
        for name in ("mnist-mlp-paper", "cifar-resnet-desk", "cifar-resnet-paper"):
            config = cli.load_config(name)
            assert config["name"] == name

    def test_missing_dataset_reports_instructions(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.DATA_ENV, str(tmp_path / "nowhere"))
        config = synth_compare_config()
        config["data"] = {"name": "mnist"}
        path = write_config(tmp_path, config)
        assert cli.main(["imp", "--config", path, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG

    def test_unknown_method(self, tmp_path):
        config = synth_compare_config(methods=["imp", "synflow"])
        path = write_config(tmp_path, config)
        assert cli.main(["compare", "--config", path]) == cli.EXIT_CONFIG


class TestImpCommand:
    def test_writes_round_tickets_with_expected_sparsity(self, tmp_path):
        config = synth_compare_config()
        config["imp"] = {"rate": 0.2, "rounds": 2, "rewind_step": 2}
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["imp", "--config", path, "--out", str(out), "--seed", "7"]) == 0
        tickets_dir = out / "synth-compare" / "7" / "tickets"
        t1 = ticket.load_ticket(tickets_dir / "round-01.eltk")
        t2 = ticket.load_ticket(tickets_dir / "round-02.eltk")
        rep1, rep2 = ticket.sparsity(t1), ticket.sparsity(t2)
        assert abs(rep1.overall - 0.20) <= 1 / rep1.total
        assert abs(rep2.overall - 0.36) <= 2 / rep2.total
        dense = ticket.load_ticket(tickets_dir / "round-00-dense.eltk")
        assert ticket.sparsity(dense).overall == 0.0
        assert (out / "synth-compare" / "7" / "config.resolved.json").exists()


class TestTransformCommand:
    def test_identity_transform_changes_only_provenance(self, tmp_path):
        config = synth_compare_config()
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["imp", "--config", path, "--out", str(out), "--seed", "1"]) == 0
        src = out / "synth-compare" / "1" / "tickets" / "round-02.eltk"
        ident = dict(config)
        ident["transform"] = [{"target": {"family": "mlp", "widths": [16, 10, 10, 6, 4]}}]
        ident_path = write_config(tmp_path, ident, "ident.json")
        dst = tmp_path / "ident.eltk"
        assert cli.main(["transform", "--config", ident_path, "--ticket", str(src),
                         "--out", str(dst)]) == 0
        a = ticket.load_ticket(src)
        b = ticket.load_ticket(dst)
        for p in a.rewind_weights:
            assert np.array_equal(a.rewind_weights[p], b.rewind_weights[p])
        for p in a.mask:
            assert np.array_equal(a.mask[p], b.mask[p])
        assert b.provenance != a.provenance
        assert len(b.provenance["transform_history"]) == 1

    def test_incompatible_transform_exit_code(self, tmp_path):
        config = synth_compare_config()
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        cli.main(["imp", "--config", path, "--out", str(out), "--seed", "1"])
        src = out / "synth-compare" / "1" / "tickets" / "round-01.eltk"
        bad = dict(config)
        bad["transform"] = [{"target": {"family": "mlp", "widths": [16, 12, 12, 6, 4]}}]
        bad_path = write_config(tmp_path, bad, "bad.json")
        code = cli.main(["transform", "--config", bad_path, "--ticket", str(src),
                         "--out", str(tmp_path / "x.eltk")])
        assert code == cli.EXIT_INCOMPATIBLE


class TestPruneEvalConnectivity:
    @pytest.fixture
    def imp_artifacts(self, tmp_path):
        config = synth_compare_config()
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["imp", "--config", path, "--out", str(out), "--seed", "1"]) == 0
        base = out / "synth-compare" / "1" / "tickets"
        return config, path, base / "round-03.eltk", base / "round-00-dense.eltk"

    def test_prune_matches_reference(self, tmp_path, imp_artifacts):
        config, path, ref, dense = imp_artifacts
        for method in ("magnitude", "snip", "grasp", "random", "reinit"):
            dst = tmp_path / f"{method}.eltk"
            code = cli.main(["prune", "--config", path, "--method", method,
                             "--ticket", str(ref), "--dense-ticket", str(dense),
                             "--out", str(dst)])
            assert code == 0, method
            got = ticket.load_ticket(dst)
            assert abs(ticket.sparsity(got).zeros - ticket.sparsity(ticket.load_ticket(ref)).zeros) <= 1

    def test_eval_command(self, tmp_path, imp_artifacts):
        config, path, ref, _ = imp_artifacts
        out = tmp_path / "eval-out"
        assert cli.main(["eval", "--config", path, "--ticket", str(ref),
                         "--out", str(out), "--seed", "3"]) == 0
        metrics = json.loads((out / "synth-compare" / "3" / "metrics.json").read_text())
        assert metrics["final_test_acc"] is not None

    def test_connectivity_command(self, tmp_path, imp_artifacts):
        config, path, ref, _ = imp_artifacts
        out = tmp_path / "conn-out"
        assert cli.main(["connectivity", "--config", path, "--ticket", str(ref),
                         "--out", str(out)]) == 0
        doc = json.loads((out / "synth-compare" / "interpolation.json").read_text())
        assert len(doc["alphas"]) == 11
        rows = list(csv.DictReader(open(out / "synth-compare" / "interpolation.csv")))
        assert len(rows) == 11


class TestCompareCommand:
    def test_full_pipeline_with_ablations(self, tmp_path):
        config = synth_compare_config(
            methods=["imp", "ett", "random", "reinit", "magnitude", "snip", "grasp",
                     "random_random", "ett_snip_extra"], seeds=[1, 2])
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", path, "--out", str(out)]) == 0
        target_name = "mlp[16,10,10,10,6,4]"
        rows = list(csv.DictReader(open(out / "synth-compare" / f"comparison-{target_name}.csv")))
        assert len(rows) == 9 * 2  # methods x seeds
        methods = {r["method"] for r in rows}
        assert methods == {"imp", "ett", "random", "reinit", "magnitude", "snip", "grasp",
                           "random_random", "ett_snip_extra"}
        doc = json.loads((out / "synth-compare" / f"comparison-{target_name}.json").read_text())
        assert doc["config"]["name"] == "synth-compare"
        tickets_dir = out / "synth-compare" / "tickets"
        assert (tickets_dir / f"{target_name}-ett.eltk").exists()
        ref_zeros = ticket.sparsity(ticket.load_ticket(tickets_dir / f"{target_name}-imp.eltk")).zeros
        for m in ("magnitude", "snip", "grasp"):
            z = ticket.sparsity(ticket.load_ticket(tickets_dir / f"{target_name}-{m}.eltk")).zeros
            assert abs(z - ref_zeros) <= 1

    def test_squeeze_leg(self, tmp_path):
        config = synth_compare_config(
            legs=[{"target": {"family": "mlp", "widths": [16, 10, 6, 4]}}],
            methods=["ett", "random", "reinit"])
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", path, "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "synth-compare" / "comparison-mlp[16,10,6,4].csv")))
        assert len(rows) == 3 * 2

    def test_two_legs_to_one_target_rejected_before_training(self, tmp_path, monkeypatch):
        target = {"family": "mlp", "widths": [16, 10, 10, 10, 6, 4]}
        config = synth_compare_config(legs=[{"target": target, "ordering": "appending"},
                                            {"target": target, "ordering": "interpolation"}])
        path = write_config(tmp_path, config)
        monkeypatch.setattr(cli.prune, "imp_run", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()

    def test_ett_snip_extra_on_squeeze_leg_rejected_before_training(self, tmp_path,
                                                                     monkeypatch):
        config = synth_compare_config(
            legs=[{"target": {"family": "mlp", "widths": [16, 10, 6, 4]}}],
            methods=["ett", "ett_snip_extra"])
        path = write_config(tmp_path, config)
        monkeypatch.setattr(cli.nn, "train", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("mask_mode", ["copy", "permute"])
    def test_ett_snip_extra_refills_replicas_by_saliency(self, tmp_path, mask_mode):
        leg = {"target": {"family": "mlp", "widths": [16, 10, 10, 10, 6, 4]},
               "ordering": "appending", "mask_mode": mask_mode}
        config = synth_compare_config(legs=[leg], methods=["ett", "ett_snip_extra"], seeds=[1])
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", path, "--out", str(out)]) == 0
        tickets_dir = out / "synth-compare" / "tickets"
        target_name = "mlp[16,10,10,10,6,4]"
        ett_t = ticket.load_ticket(tickets_dir / f"{target_name}-ett.eltk")
        extra = ticket.load_ticket(tickets_dir / f"{target_name}-ett_snip_extra.eltk")
        # the leg's dense target and saliency batch, rebuilt from the source dense ticket
        dense_src = ticket.load_ticket(tickets_dir / "mlp[16,10,10,6,4]-dense.eltk")
        spec = cli._build_transform(dense_src.arch, leg)
        dense_target = ett.stretch(dense_src, spec, Rng(0))  # permuting all-ones masks is a no-op
        train_ds, _, _ = cli.resolve_data(config["data"])
        batch = cli._saliency_batch(train_ds, cli.resolve_train(config["train"], 1), 1)
        saliency = prune.snip_saliency(spec.target_arch, dense_target.rewind_weights, batch)
        replicas = tuple(p + "/" for p in ett.replica_prefixes(spec))
        assert replicas
        for path, m in extra.mask.items():
            assert np.count_nonzero(m) == np.count_nonzero(ett_t.mask[path]), path
            if not path.startswith(replicas):
                assert np.array_equal(m, ett_t.mask[path]), path
                continue
            s = saliency[path].ravel()
            keep = int(np.count_nonzero(m))
            order = np.lexsort((np.arange(s.size), -s))  # largest first, ties by position
            assert set(np.flatnonzero(m.ravel())) == set(order[:keep]), path

    def test_methods_without_reference_rejected(self, tmp_path):
        config = synth_compare_config(methods=["random", "reinit"])
        path = write_config(tmp_path, config)
        assert cli.main(["compare", "--config", path, "--out", str(tmp_path / "o")]) \
            == cli.EXIT_CONFIG


class TestReproducibility:
    def test_same_config_byte_reproduces_artifacts(self, tmp_path):
        config = synth_compare_config(methods=["imp", "ett"], seeds=[1])
        path = write_config(tmp_path, config)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["compare", "--config", path, "--out", str(out1)]) == 0
        assert cli.main(["compare", "--config", path, "--out", str(out2)]) == 0
        base1, base2 = out1 / "synth-compare", out2 / "synth-compare"
        files1 = sorted(p.relative_to(base1) for p in base1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(base2) for p in base2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (base1 / rel).read_bytes() == (base2 / rel).read_bytes(), rel


class TestFlopsCommand:
    def test_paper_anchor(self, tmp_path, capsys):
        config = {"name": "flops-check",
                  "arch": {"family": "resnet_cifar", "depth": 32},
                  "flops": {"sparsity": 0.7379, "train_steps_multiplier": 5.0}}
        path = write_config(tmp_path, config)
        assert cli.main(["flops", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "1.3105x" in out
