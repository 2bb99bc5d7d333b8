import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

import oracles
from conftest import assert_tickets_equal, tiny_mlp_ticket
from elastic_tickets import arch, cli, prune, ticket
from elastic_tickets.errors import (ShapeError, TicketBadChecksum, TicketBadMagic,
                                    TicketBadVersion, TicketInvalid, TicketLoadError,
                                    TicketTruncated)
from elastic_tickets.tensor import Rng


class TestSparsity:
    def test_dense_is_zero(self):
        t = tiny_mlp_ticket(sparsity_target=0.0)
        assert ticket.sparsity(t).overall == 0.0

    def test_hand_counts(self):
        a = arch.mlp_arch([2, 5, 2])
        weights = arch.init_params(a, Rng(1))
        mask = {"layer0/weight": np.array([[1, 1, 0, 0, 0], [1, 1, 1, 0, 1]], np.float32),
                "layer1/weight": np.array([[1, 0], [1, 0], [1, 0], [1, 1], [1, 1]], np.float32)}
        t = ticket.make_ticket(a, weights, mask, 0, {})
        rep = ticket.sparsity(t)
        assert (rep.zeros, rep.total) == (4 + 3, 20)
        assert rep.overall == 7 / 20
        assert rep.per_path["layer0/weight"] == (4, 10, 0.4)
        assert rep.per_path["layer1/weight"] == (3, 10, 0.3)

    def test_exact_integer_ratio(self):
        t = tiny_mlp_ticket(sparsity_target=0.5)
        rep = ticket.sparsity(t)
        assert rep.overall == rep.zeros / rep.total


class TestValidation:
    def test_make_ticket_enforces_mask(self):
        t = tiny_mlp_ticket(sparsity_target=0.5)
        for p, m in t.mask.items():
            assert np.array_equal(t.rewind_weights[p] * m, t.rewind_weights[p])

    def test_check_flags_unmasked_weights(self):
        t = tiny_mlp_ticket(sparsity_target=0.5)
        t.rewind_weights["layer0/weight"] = np.ones_like(t.rewind_weights["layer0/weight"])
        assert any("zero mask" in p for p in ticket.check_ticket(t))

    def test_check_flags_missing_mask_key(self):
        t = tiny_mlp_ticket()
        del t.mask["layer0/weight"]
        assert any("mask keys" in p for p in ticket.check_ticket(t))

    def test_check_flags_non_binary(self):
        t = tiny_mlp_ticket()
        t.mask["layer1/weight"] = t.mask["layer1/weight"] * 0.5
        assert any("non-binary" in p for p in ticket.check_ticket(t))

    def test_validate_raises(self):
        t = tiny_mlp_ticket()
        del t.mask["layer0/weight"]
        with pytest.raises(ShapeError):
            ticket.validate_ticket(t)


class TestReinit:
    def test_mask_unchanged_weights_fresh(self):
        t = tiny_mlp_ticket(seed=1, sparsity_target=0.5)
        r = ticket.reinit_ticket(t, Rng(99))
        for p in t.mask:
            assert np.array_equal(r.mask[p], t.mask[p])
        assert any(not np.array_equal(r.rewind_weights[p], t.rewind_weights[p])
                   for p in t.mask)
        assert not ticket.check_ticket(r)
        assert r.provenance["method"] == "reinit"

    def test_seed_sensitivity(self):
        t = tiny_mlp_ticket(seed=1)
        r1 = ticket.reinit_ticket(t, Rng(5))
        r2 = ticket.reinit_ticket(t, Rng(6))
        assert any(not np.array_equal(r1.rewind_weights[p], r2.rewind_weights[p])
                   for p in r1.mask)
        for p in t.mask:
            assert np.array_equal(r1.mask[p], r2.mask[p])


class TestFileFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        t = tiny_mlp_ticket(seed=4, sparsity_target=0.37)
        t.provenance["transform_history"] = [{"direction": "stretch"}, {"direction": "squeeze"}]
        path = tmp_path / "t.eltk"
        ticket.save_ticket(t, path)
        loaded = ticket.load_ticket(path)
        assert_tickets_equal(t, loaded, check_provenance=True)
        assert loaded.provenance["transform_history"] == t.provenance["transform_history"]
        assert ticket.sparsity(loaded).overall == ticket.sparsity(t).overall

    def test_save_is_deterministic(self, tmp_path):
        t = tiny_mlp_ticket(seed=4)
        ticket.save_ticket(t, tmp_path / "a.eltk")
        ticket.save_ticket(t, tmp_path / "b.eltk")
        assert (tmp_path / "a.eltk").read_bytes() == (tmp_path / "b.eltk").read_bytes()

    def test_payload_corruption_detected(self, tmp_path):
        import struct
        t = tiny_mlp_ticket(seed=4)
        path = tmp_path / "t.eltk"
        ticket.save_ticket(t, path)
        blob = bytearray(path.read_bytes())
        header_len = struct.unpack("<Q", bytes(blob[8:16]))[0]
        blob[16 + header_len + 11] ^= 0x01  # single payload byte
        path.write_bytes(bytes(blob))
        with pytest.raises(TicketBadChecksum):
            ticket.load_ticket(path)

    def test_bad_magic(self, tmp_path):
        t = tiny_mlp_ticket()
        path = tmp_path / "t.eltk"
        ticket.save_ticket(t, path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord(b"X")
        path.write_bytes(bytes(blob))
        with pytest.raises(TicketBadMagic):
            ticket.load_ticket(path)

    def test_bad_version(self, tmp_path):
        t = tiny_mlp_ticket()
        path = tmp_path / "t.eltk"
        ticket.save_ticket(t, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(TicketBadVersion):
            ticket.load_ticket(path)

    def test_truncated(self, tmp_path):
        t = tiny_mlp_ticket()
        path = tmp_path / "t.eltk"
        ticket.save_ticket(t, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TicketTruncated):
            ticket.load_ticket(path)
        path.write_bytes(blob[:10])
        with pytest.raises(TicketTruncated):
            ticket.load_ticket(path)

    def test_mask_stored_one_byte_per_entry(self, tmp_path):
        import json
        import struct
        t = tiny_mlp_ticket()
        path = tmp_path / "t.eltk"
        ticket.save_ticket(t, path)
        blob = path.read_bytes()
        assert blob[:4] == b"ELTK"
        (version,) = struct.unpack("<I", blob[4:8])
        assert version == 1
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16 : 16 + hlen])
        masks = [e for e in header["tensors"] if e["kind"] == "mask-u8"]
        assert masks and all(e["length"] == int(np.prod(e["shape"])) for e in masks)
        f32 = [e for e in header["tensors"] if e["kind"] == "f32"]
        assert f32 and all(e["length"] == 4 * int(np.prod(e["shape"])) for e in f32)


# ---------------------------------------------------------------------------
# streamed writes, copy-free loads and load-time checks

MiB = 1 << 20
_MODELS = {"resnet8": ("resnet_cifar", 8), "vgg16": ("vgg_cifar", 16), "mlp2": ("mlp", 2)}


@pytest.fixture(scope="module")
def make():
    """make(model, variant) -> a ticket of a preset model: its init weights
    under an 80% magnitude mask ("masked"), under all-ones masks
    ("all-ones"), or masked and then widened to float64 ("float64")."""
    models = {}

    def build(name, variant):
        if name not in models:
            a = arch.derive_arch(*_MODELS[name])
            w = arch.init_params(a, Rng(11))
            models[name] = (a, w, prune.magnitude_prune(w, ticket.all_ones_mask(a), 0.8, a))
        a, w, m = models[name]
        if variant == "all-ones":
            m = ticket.all_ones_mask(a)
        t = ticket.make_ticket(a, w, m, 5, {"method": "imp", "variant": variant})
        if variant == "float64":
            t.rewind_weights = {k: v.astype(np.float64) for k, v in t.rewind_weights.items()}
        return t

    return build


def _oracle_bytes(t):
    meta = {"rewind_step": t.rewind_step, "provenance": t.provenance,
            "created_at": t.created_at}
    return oracles.oracle_encode_ticket(arch.arch_to_json(t.arch), meta, t.rewind_weights, t.mask)


def _rewrite(blob, edit_header=None, edit_payload=None):
    """The file with its header and payload edited and a valid CRC."""
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + hlen])
    payload = bytearray(blob[16 + hlen : -4])
    if edit_header:
        edit_header(header)
    if edit_payload:
        edit_payload(header, payload)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return (blob[:8] + struct.pack("<Q", len(head)) + head + bytes(payload)
            + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


class TestStreamedSave:
    @pytest.mark.parametrize("variant", ["masked", "all-ones", "float64"])
    @pytest.mark.parametrize("model", ["resnet8", "vgg16", "mlp2"])
    def test_bytes_equal_the_joined_payload_encoder(self, tmp_path, make, model, variant):
        t = make(model, variant)
        path = tmp_path / "t.eltk"
        ticket.save_ticket(t, path)
        blob = path.read_bytes()
        assert blob == _oracle_bytes(t)
        _, weights, masks = oracles.oracle_decode_ticket(blob)
        loaded = ticket.load_ticket(path)
        for k, v in weights.items():
            assert np.array_equal(loaded.rewind_weights[k], v)
        for k, v in masks.items():
            assert np.array_equal(loaded.mask[k], v)

    def test_failed_write_leaves_the_previous_file(self, tmp_path, monkeypatch):
        old, new = tiny_mlp_ticket(seed=1), tiny_mlp_ticket(seed=2)
        path = tmp_path / "t.eltk"
        ticket.save_ticket(old, path)
        before = path.read_bytes()
        calls = []
        real_crc32 = zlib.crc32

        def failing_crc32(data, value=0):
            calls.append(1)
            if len(calls) > 1:
                raise OSError("disk gone")
            return real_crc32(data, value)

        monkeypatch.setattr(zlib, "crc32", failing_crc32)
        with pytest.raises(OSError, match="disk gone"):
            ticket.save_ticket(new, path)
        monkeypatch.undo()
        assert len(calls) == 2  # failed after the first tensor was written
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.eltk"]

    def test_write_json_bytes_and_failure(self, tmp_path):
        path = tmp_path / "doc.json"
        doc = {"b": [1.5, None], "a": {"y": "z"}}
        ticket.write_json(doc, path)
        assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        with pytest.raises(RuntimeError):
            with ticket.atomic_open(path) as f:
                f.write("{")
                raise RuntimeError("killed mid-write")
        assert json.loads(path.read_text()) == doc
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

    def test_save_keeps_at_most_one_converted_tensor(self, tmp_path, make):
        t = make("vgg16", "masked")
        largest = max(v.nbytes for v in t.rewind_weights.values())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ticket.save_ticket(t, tmp_path / "t.eltk")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= largest + MiB, (peak, largest)


class TestCopyFreeLoad:
    def test_arrays_are_owned_aligned_writable_and_disjoint(self, tmp_path, make):
        t = make("resnet8", "masked")
        path = tmp_path / "t.eltk"
        for pad in range(4):  # find a header length that leaves the payload unaligned
            t.provenance["pad"] = "x" * pad
            ticket.save_ticket(t, path)
            (hlen,) = struct.unpack("<Q", path.read_bytes()[8:16])
            if (16 + hlen) % 4:
                break
        assert (16 + hlen) % 4
        loaded = ticket.load_ticket(path)
        arrays = list(loaded.rewind_weights.values()) + list(loaded.mask.values())
        for a in arrays:
            assert a.flags.owndata and a.flags.aligned and a.flags.writeable
        spans = sorted((a.ctypes.data, a.ctypes.data + a.nbytes) for a in arrays if a.nbytes)
        assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:]))

    def test_load_peak_is_file_plus_arrays(self, tmp_path, make):
        t = make("vgg16", "masked")
        path = tmp_path / "t.eltk"
        ticket.save_ticket(t, path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loaded = ticket.load_ticket(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        kept = sum(v.nbytes for d in (loaded.rewind_weights, loaded.mask) for v in d.values())
        assert peak <= path.stat().st_size + kept + 8 * MiB, (peak, kept)


class TestLoadTimeCheck:
    """Files that decode and pass the CRC, but hold a ticket that is not valid."""

    @staticmethod
    def corrupt(tmp_path, edit_header=None, edit_payload=None):
        path = tmp_path / "t.eltk"
        ticket.save_ticket(tiny_mlp_ticket(seed=3), path)
        path.write_bytes(_rewrite(path.read_bytes(), edit_header, edit_payload))
        return path

    @staticmethod
    def entry(header, name, kind):
        return next(e for e in header["tensors"] if e["name"] == name and e["kind"] == kind)

    def test_mask_byte_of_two(self, tmp_path):
        def poke(header, payload):
            payload[self.entry(header, "layer1/weight", "mask-u8")["offset"] + 1] = 2

        with pytest.raises(TicketInvalid, match="layer1/weight has non-binary"):
            ticket.load_ticket(self.corrupt(tmp_path, edit_payload=poke))

    def test_shape_disagrees_with_arch(self, tmp_path):
        def transpose(header):
            e = self.entry(header, "layer0/weight", "f32")
            e["shape"] = e["shape"][::-1]  # same byte count, wrong shape

        with pytest.raises(TicketInvalid, match="weight layer0/weight has shape"):
            ticket.load_ticket(self.corrupt(tmp_path, edit_header=transpose))

    def test_missing_tensor(self, tmp_path):
        def drop(header):
            header["tensors"].remove(self.entry(header, "layer2/bias", "f32"))

        with pytest.raises(TicketInvalid, match="missing weight tensor layer2/bias"):
            ticket.load_ticket(self.corrupt(tmp_path, edit_header=drop))

    def test_is_a_load_error_and_the_cli_exits_5(self, tmp_path):
        def drop(header):
            header["tensors"].remove(self.entry(header, "layer0/weight", "mask-u8"))

        path = self.corrupt(tmp_path, edit_header=drop)
        with pytest.raises(TicketLoadError, match="mask keys differ"):
            ticket.load_ticket(path)
        code = cli.main(["transform", "--ticket", str(path), "--out", str(tmp_path / "o.eltk")])
        assert code == cli.EXIT_BAD_TICKET == 5
        assert not (tmp_path / "o.eltk").exists()

    @pytest.mark.parametrize("damage", ["truncated", "non-binary mask"])
    def test_eval_exits_bad_ticket(self, tmp_path, damage):
        if damage == "truncated":
            path = tmp_path / "t.eltk"
            ticket.save_ticket(tiny_mlp_ticket(seed=3), path)
            path.write_bytes(path.read_bytes()[:-40])
        else:
            def poke(header, payload):
                payload[self.entry(header, "layer0/weight", "mask-u8")["offset"]] = 7

            path = self.corrupt(tmp_path, edit_payload=poke)
        config = tmp_path / "eval.json"
        config.write_text(json.dumps({
            "name": "bad-ticket",
            "data": {"name": "synth", "synth": {"n_per_class": 10, "num_classes": 4,
                                                "input_shape": [12], "seed": 1}},
            "train": {"epochs": 1, "batch_size": 8, "lr": 0.1}}))
        code = cli.main(["eval", "--config", str(config), "--ticket", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_BAD_TICKET
        assert not (tmp_path / "out").exists()


class TestCheckVerdicts:
    @pytest.mark.parametrize("value", [np.nan, -0.0, 0.5, 2.0, 1.0, 0.0])
    def test_same_verdict_as_unique_and_isin(self, value):
        t = tiny_mlp_ticket(seed=2)
        m = t.mask["layer1/weight"].copy()
        m.flat[[3, 7]] = value
        t.mask["layer1/weight"] = m
        t.rewind_weights["layer1/weight"] = t.rewind_weights["layer1/weight"] * (m == 1)
        old_rule_binary = bool(np.isin(np.unique(m), (0.0, 1.0)).all())
        problems = ticket.check_ticket(t)
        assert any("non-binary" in p for p in problems) == (not old_rule_binary)
        assert len(problems) == (0 if old_rule_binary else 1)
