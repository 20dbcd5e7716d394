"""Checkpoint round-trips must be bitwise; corrupt files must be named."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from nadex import checkpoint, data, objectives
from nadex.errors import CheckpointFormatError, CheckpointVersionError
from nadex.kernel import optim

from helpers import random_batch, tiny_model


def _trained_state(seed=0, steps=3):
    cfg, vocab, params, sched = tiny_model(seed=seed)
    opt = optim.Adam(params.tensors, lr=1e-3)
    rng = np.random.default_rng(17)
    loss_cfg = objectives.LossConfig(lam=0.5)
    for _ in range(steps):
        batch = random_batch(rng, 4, cfg.window, vocab.num_entities,
                             vocab.num_relations, cfg.dt_max)
        objectives.train_step(batch, params, sched, opt, loss_cfg, rng)
    return cfg, vocab, params, sched, opt, rng


def test_roundtrip_is_bitwise(tmp_path):
    cfg, vocab, params, sched, opt, rng = _trained_state()
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, params, opt, "window = 3\n", vocab,
                    epoch=7, best_valid_mrr=0.625, rng=rng)
    next_draw = rng.standard_normal(5)  # consumes state after saving

    loaded = checkpoint.load(path)
    assert loaded["config_text"] == "window = 3\n"
    assert loaded["epoch"] == 7
    assert loaded["best_valid_mrr"] == 0.625
    assert loaded["adam_steps"] == opt.step_count
    assert loaded["vocab"].num_entities == vocab.num_entities
    assert loaded["vocab"].num_relations_base == vocab.num_relations_base

    for name, t in params.tensors.items():
        assert np.array_equal(loaded["arrays"][name], t.data)
    for name, arr in opt.state_arrays().items():
        assert np.array_equal(loaded["arrays"][name], arr)

    # restored rng continues exactly where the saved one left off
    rng2 = checkpoint.restore_rng(loaded)
    assert np.array_equal(rng2.standard_normal(5), next_draw)


def test_restore_into_fresh_model_matches(tmp_path):
    cfg, vocab, params, sched, opt, rng = _trained_state(seed=1)
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, params, opt, "", vocab, 1, 0.0, rng)

    _, _, fresh, _ = tiny_model(seed=99)  # different init
    fresh_opt = optim.Adam(fresh.tensors, lr=1e-3)
    loaded = checkpoint.load(path)
    checkpoint.restore_params(loaded, fresh)
    checkpoint.restore_optimizer(loaded, fresh_opt)

    for name, t in params.tensors.items():
        assert np.array_equal(fresh.tensors[name].data, t.data)
    assert fresh_opt.step_count == opt.step_count
    for name, arr in opt.state_arrays().items():
        assert np.array_equal(fresh_opt.state_arrays()[name], arr)


def test_resumed_training_equals_uninterrupted(tmp_path):
    # 3 steps, save, restore elsewhere, 3 more == 6 straight steps
    cfg, vocab, params, sched, opt, rng = _trained_state(seed=2, steps=3)
    path = tmp_path / "mid.ckpt"
    checkpoint.save(path, params, opt, "", vocab, 3, 0.0, rng)
    loss_cfg = objectives.LossConfig(lam=0.5)
    for _ in range(3):
        batch = random_batch(rng, 4, cfg.window, vocab.num_entities,
                             vocab.num_relations, cfg.dt_max)
        objectives.train_step(batch, params, sched, opt, loss_cfg, rng)

    _, _, fresh, _ = tiny_model(seed=55)
    fresh_opt = optim.Adam(fresh.tensors, lr=1e-3)
    loaded = checkpoint.load(path)
    checkpoint.restore_params(loaded, fresh)
    checkpoint.restore_optimizer(loaded, fresh_opt)
    rng3 = checkpoint.restore_rng(loaded)
    for _ in range(3):
        batch = random_batch(rng3, 4, cfg.window, vocab.num_entities,
                             vocab.num_relations, cfg.dt_max)
        objectives.train_step(batch, fresh, sched, fresh_opt, loss_cfg, rng3)

    for name, t in params.tensors.items():
        assert np.array_equal(fresh.tensors[name].data, t.data), name


def test_saved_bytes_follow_documented_layout(tmp_path):
    """The file equals a reference packed field by field from the layout in
    the module docstring, with each tensor's data as raw little-endian f64."""
    cfg, vocab, params, sched, opt, rng = _trained_state()
    path = tmp_path / "model.ckpt"
    text = "window = 3\n# é\n"
    rng_blob = json.dumps(rng.bit_generator.state).encode("utf-8")
    checkpoint.save(path, params, opt, text, vocab, 7, 0.625, rng)

    arrays = {name: t.data for name, t in params.tensors.items()}
    arrays.update(opt.state_arrays())
    config_blob = text.encode("utf-8")
    ref = [b"NADX", struct.pack("<II", checkpoint.VERSION, len(config_blob)),
           config_blob,
           struct.pack("<IIII", vocab.num_entities, vocab.num_relations_base,
                       7, opt.step_count),
           struct.pack("<dI", 0.625, len(rng_blob)), rng_blob,
           struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        ref += [struct.pack("<H", len(encoded)), encoded,
                struct.pack("<I", arr.ndim)]
        ref += [struct.pack("<I", extent) for extent in arr.shape]
        ref += [struct.pack("<d", value) for value in arr.ravel()]
    assert path.read_bytes() == b"".join(ref)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"ELF\x00" + b"\x00" * 64)
    with pytest.raises(CheckpointFormatError) as exc:
        checkpoint.load(path)
    assert "magic" in str(exc.value)


def test_future_version_rejected(tmp_path):
    cfg, vocab, params, sched, opt, rng = _trained_state()
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, params, opt, "", vocab, 1, 0.0, rng)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", checkpoint.VERSION + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError) as exc:
        checkpoint.load(path)
    assert str(checkpoint.VERSION + 1) in str(exc.value)


def test_truncated_file_rejected(tmp_path):
    cfg, vocab, params, sched, opt, rng = _trained_state()
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, params, opt, "", vocab, 1, 0.0, rng)
    blob = path.read_bytes()
    short = tmp_path / "short.ckpt"
    short.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointFormatError) as exc:
        checkpoint.load(short)
    assert "truncated" in str(exc.value)


def test_trailing_bytes_rejected(tmp_path):
    cfg, vocab, params, sched, opt, rng = _trained_state()
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, params, opt, "", vocab, 1, 0.0, rng)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CheckpointFormatError) as exc:
        checkpoint.load(path)
    assert "trailing" in str(exc.value)


def _corrupt(blob, kind):
    """Damage one field of a checkpoint image in place, finding it through
    the layout in the checkpoint module docstring."""
    (config_len,) = struct.unpack_from("<I", blob, 8)
    rng_at = 12 + config_len + 2 * 4 + 4 + 4 + 8 + 4
    (rng_len,) = struct.unpack_from("<I", blob, rng_at - 4)
    name_len_at = rng_at + rng_len + 4
    (name_len,) = struct.unpack_from("<H", blob, name_len_at)
    ndim_at = name_len_at + 2 + name_len  # of the first tensor
    (ndim,) = struct.unpack_from("<I", blob, ndim_at)
    if kind == "rank":
        struct.pack_into("<I", blob, ndim_at, 2**31 + ndim)
    elif kind == "extents":
        blob[ndim_at + 4 : ndim_at + 4 + 4 * ndim] = b"\xff" * (4 * ndim)
    elif kind == "config_not_utf8":
        blob[12] = 0xFF
    elif kind == "rng_not_utf8":
        blob[rng_at] = 0xFF
    elif kind == "rng_not_json":
        blob[rng_at] = ord("}")
    elif kind == "rng_too_deep":
        blob[rng_at - 4 : rng_at + rng_len] = struct.pack("<I", 5000) + b"[" * 5000
    elif kind == "rng_not_pcg64":
        at = blob.index(b"PCG64", rng_at)
        blob[at : at + 5] = b"PCG65"


@pytest.mark.parametrize("kind", ["rank", "extents", "config_not_utf8",
                                  "rng_not_utf8", "rng_not_json",
                                  "rng_too_deep", "rng_not_pcg64"])
def test_corrupt_field_raises_format_error_within_file_size(tmp_path, kind):
    cfg, vocab, params, sched, opt, rng = _trained_state()
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, params, opt, "window = 3\n", vocab, 1, 0.0, rng)
    blob = bytearray(path.read_bytes())
    _corrupt(blob, kind)
    path.write_bytes(bytes(blob))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointFormatError):
            checkpoint.restore_rng(checkpoint.load(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # at most the file's bytes plus the arrays decoded from them
    assert peak < 3 * len(blob)


def test_restore_shape_mismatch_names_tensor(tmp_path):
    cfg, vocab, params, sched, opt, rng = _trained_state()
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, params, opt, "", vocab, 1, 0.0, rng)
    _, _, other, _ = tiny_model(hidden=32)  # wider model, same tensor names
    loaded = checkpoint.load(path)
    with pytest.raises(CheckpointFormatError) as exc:
        checkpoint.restore_params(loaded, other)
    assert "shape" in str(exc.value)


def test_restore_missing_tensor(tmp_path):
    cfg, vocab, params, sched, opt, rng = _trained_state()
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, params, opt, "", vocab, 1, 0.0, rng)
    loaded = checkpoint.load(path)
    del loaded["arrays"]["entity_table"]
    _, _, fresh, _ = tiny_model()
    with pytest.raises(CheckpointFormatError) as exc:
        checkpoint.restore_params(loaded, fresh)
    assert "entity_table" in str(exc.value)


def test_restore_optimizer_missing_moment(tmp_path):
    cfg, vocab, params, sched, opt, rng = _trained_state()
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, params, opt, "", vocab, 1, 0.0, rng)
    loaded = checkpoint.load(path)
    del loaded["arrays"]["adam.v.entity_table"]
    _, _, fresh, _ = tiny_model()
    with pytest.raises(CheckpointFormatError) as exc:
        checkpoint.restore_optimizer(loaded, optim.Adam(fresh.tensors))
    assert "adam.v.entity_table" in str(exc.value)


def test_restore_optimizer_moment_shape_mismatch(tmp_path):
    cfg, vocab, params, sched, opt, rng = _trained_state()
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, params, opt, "", vocab, 1, 0.0, rng)
    loaded = checkpoint.load(path)
    assert loaded["arrays"]["adam.m.entity_table"].shape == (5, 16)
    loaded["arrays"]["adam.m.entity_table"] = np.zeros((1, 16))
    _, _, fresh, _ = tiny_model()
    with pytest.raises(CheckpointFormatError) as exc:
        checkpoint.restore_optimizer(loaded, optim.Adam(fresh.tensors))
    assert "adam.m.entity_table" in str(exc.value)
    assert "shape" in str(exc.value)


def test_config_text_preserves_unicode(tmp_path):
    cfg, vocab, params, sched, opt, rng = _trained_state()
    path = tmp_path / "model.ckpt"
    text = "# run notes: étude\nwindow = 3\n"
    checkpoint.save(path, params, opt, text, vocab, 1, 0.0, rng)
    assert checkpoint.load(path)["config_text"] == text
