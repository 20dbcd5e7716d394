"""End-to-end command-line behaviour: output contracts and exit codes."""

import io
import struct
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

from nadex import checkpoint, cli, errors, synthetic
from nadex.config import parse_config_text
from nadex.denoiser import init_params
from nadex.kernel import Adam


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


CONFIG_TEMPLATE = """\
data_dir = {data_dir}
granularity = 1
window = 4
dt_max = 16
hidden = 48
layers = 1
heads = 2
dropout = 0.0
m_steps = 10
lr = 0.003
epochs = 3
seed = 0
eval_k = 2
checkpoint = {ckpt}
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Train once on the cyclic stream; every CLI test reuses the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    synthetic.write_splits(data_dir, synthetic.cyclic_tkg(5, 2, 60))
    names = ["alpha", "beta", "gamma", "delta", "epsilon"]
    (data_dir / "entity2id.txt").write_text(
        "".join(f"{n}\t{i}\n" for i, n in enumerate(names)))
    ckpt_path = root / "model.ckpt"
    cfg_path = root / "run.cfg"
    cfg_path.write_text(CONFIG_TEMPLATE.format(data_dir=data_dir,
                                               ckpt=ckpt_path))
    code, out, err = run_cli(["train", "--config", str(cfg_path)])
    assert code == 0, err
    return SimpleNamespace(root=root, data_dir=data_dir, cfg=cfg_path,
                           ckpt=ckpt_path, names=names, train_out=out)


# ---------------------------------------------------------------------------
# train


def test_train_stdout_contract(workspace):
    lines = workspace.train_out.strip().splitlines()
    assert lines[0].startswith("# entities=5 relations=4 ")
    assert "parameters=" in lines[0]
    assert lines[1] == "# epoch\tL_r\tL_neg\tL_total\tseconds"
    epoch_rows = [l for l in lines if l[0].isdigit()]
    assert len(epoch_rows) == 3
    for i, row in enumerate(epoch_rows, start=1):
        fields = row.split("\t")
        assert fields[0] == str(i) and len(fields) == 5
    valid_rows = [l for l in lines if l.startswith("valid\t")]
    assert len(valid_rows) == 3
    assert lines[-1].startswith("best\t")


def test_train_writes_best_checkpoint(workspace):
    assert workspace.ckpt.is_file()
    loaded = checkpoint.load(workspace.ckpt)
    best = workspace.train_out.strip().splitlines()[-1].split("\t")
    assert loaded["epoch"] == int(best[1])
    assert f"{loaded['best_valid_mrr']:.6f}" == best[2]
    assert best[3] == str(workspace.ckpt)
    # config text stored verbatim for later runs
    assert f"hidden = 48" in loaded["config_text"]


def test_train_best_matches_max_valid_row(workspace):
    lines = workspace.train_out.strip().splitlines()
    valid = [(int(l.split("\t")[1]), float(l.split("\t")[2]))
             for l in lines if l.startswith("valid\t")]
    best_epoch, best_mrr = max(valid, key=lambda p: (p[1], -p[0]))
    final = lines[-1].split("\t")
    assert int(final[1]) == best_epoch
    assert float(final[2]) == best_mrr


def test_train_missing_split_is_exit_2(workspace, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"data_dir = {tmp_path}\n")
    code, out, err = run_cli(["train", "--config", str(cfg)])
    assert code == 2
    assert err.startswith("error: ConfigurationError:")
    assert "train split not found" in err


def test_train_invalid_set_override(workspace):
    code, out, err = run_cli(["train", "--config", str(workspace.cfg),
                              "--set", "lambda=1.5"])
    assert code == 2
    assert "lambda" in err


def test_missing_config_file_is_exit_2():
    code, out, err = run_cli(["train", "--config", "/nonexistent/run.cfg"])
    assert code == 2
    assert "error: FileNotFoundError" in err


@pytest.mark.parametrize("checkpoint_path", ["", "{root}", "{root}/missing/m.ckpt"],
                         ids=["empty", "directory", "missing-parent"])
def test_train_rejects_unwritable_checkpoint_before_reading_data(
        workspace, monkeypatch, checkpoint_path):
    parsed = []
    real = cli.parse_quadruples
    monkeypatch.setattr(cli, "parse_quadruples",
                        lambda *a: parsed.append(a) or real(*a))
    code, out, err = run_cli([
        "train", "--config", str(workspace.cfg), "--set", "epochs=1",
        "--set", f"checkpoint={checkpoint_path.format(root=workspace.root)}"])
    assert code == 2
    assert err.startswith("error: ConfigurationError:")
    assert "checkpoint" in err
    assert out == ""
    assert parsed == []


def test_train_rejects_empty_valid_split_before_first_epoch(workspace, tmp_path):
    for name in ("train", "test"):
        (tmp_path / f"{name}.txt").write_text(
            (workspace.data_dir / f"{name}.txt").read_text())
    (tmp_path / "valid.txt").write_text("")
    code, out, err = run_cli([
        "train", "--config", str(workspace.cfg), "--set", "epochs=1",
        "--set", f"data_dir={tmp_path}",
        "--set", f"checkpoint={tmp_path / 'model.ckpt'}"])
    assert code == 2
    assert err.startswith("error: ValidationError:")
    assert str(tmp_path / "valid.txt") in err
    assert not [l for l in out.splitlines() if l[:1].isdigit()]
    assert not (tmp_path / "model.ckpt").exists()


def test_train_validates_after_every_epoch(workspace):
    lines = workspace.train_out.strip().splitlines()
    epochs = [l.split("\t")[0] for l in lines if l[:1].isdigit()]
    valid = [l.split("\t")[1] for l in lines if l.startswith("valid\t")]
    assert valid == epochs == ["1", "2", "3"]
    assert "eval_every" not in checkpoint.load(workspace.ckpt)["config_text"]


def test_timestamps_past_u32_train_and_eval(workspace, tmp_path):
    # checkpoints store no timestamp, so ordinals need not fit in a u32
    quads = [q._replace(t=q.t + 2**32) for q in synthetic.cyclic_tkg(5, 2, 60)]
    synthetic.write_splits(tmp_path, quads)
    ckpt_path = tmp_path / "model.ckpt"
    code, out, err = run_cli([
        "train", "--config", str(workspace.cfg), "--set", "epochs=1",
        "--set", f"data_dir={tmp_path}", "--set", f"checkpoint={ckpt_path}"])
    assert code == 0, err
    out_path = tmp_path / "report.tsv"
    code, out, err = run_cli(["eval", "--checkpoint", str(ckpt_path),
                              "--split", "valid", "--out", str(out_path)])
    assert code == 0, err
    mrr = out_path.read_text().splitlines()[0].split("\t")[1]
    assert float(mrr) == checkpoint.load(ckpt_path)["best_valid_mrr"]


# ---------------------------------------------------------------------------
# eval


def test_eval_reproduces_stored_best_mrr_exactly(workspace, tmp_path):
    out_path = tmp_path / "report.tsv"
    code, out, err = run_cli([
        "eval", "--checkpoint", str(workspace.ckpt), "--split", "valid",
        "--out", str(out_path)])
    assert code == 0, err
    assert "queries=" in out and "mrr" in out
    rows = [line.split("\t") for line in out_path.read_text().splitlines()]
    mrr = [float(value) for name, value, _ in rows if name == "mrr"]
    stored = checkpoint.load(workspace.ckpt)["best_valid_mrr"]
    # same seed, same draw count -> bit-identical metric
    assert mrr == [stored]


def test_eval_different_seed_changes_scores(workspace):
    code_a, out_a, _ = run_cli(["eval", "--checkpoint", str(workspace.ckpt),
                                "--split", "valid", "--set", "seed=101"])
    code_b, out_b, _ = run_cli(["eval", "--checkpoint", str(workspace.ckpt),
                                "--split", "valid", "--set", "seed=101"])
    code_c, out_c, _ = run_cli(["eval", "--checkpoint", str(workspace.ckpt),
                                "--split", "valid", "--set", "seed=202"])
    assert code_a == code_b == code_c == 0
    assert out_a == out_b
    assert out_a != out_c


def test_eval_reports_unseen_subset_rows(workspace):
    # cyclic stream: object depends only on (s, r), so nothing is unseen
    code, out, err = run_cli(["eval", "--checkpoint", str(workspace.ckpt),
                              "--split", "test"])
    assert code == 0
    assert "unseen_mrr" not in out


def test_eval_reports_unseen_rows_on_mixed_split(workspace, tmp_path):
    # the test split (t >= 54) moves odd subjects' objects off the cycle, so
    # their triples are unseen in training while even subjects' stay seen
    quads = [q if q.t < 54 or q.s % 2 == 0 else q._replace(o=(q.o + 1) % 5)
             for q in synthetic.cyclic_tkg(5, 2, 60)]
    train, _, test = synthetic.write_splits(tmp_path, quads)

    def both_directions(split):  # inverse relation r + 2: 2 base relations
        return ([(q.s, q.r, q.o) for q in split]
                + [(q.o, q.r + 2, q.s) for q in split])

    seen = set(both_directions(train))
    test_triples = both_directions(test)
    unseen = sum(triple not in seen for triple in test_triples)
    assert 0 < unseen < len(test_triples)

    out_path = tmp_path / "report.tsv"
    code, out, err = run_cli(["eval", "--checkpoint", str(workspace.ckpt),
                              "--set", f"data_dir={tmp_path}", "--split", "test",
                              "--out", str(out_path)])
    assert code == 0, err
    assert f"queries={len(test_triples)}" in out
    metrics = ("mrr", "hits1", "hits3", "hits10")
    for name in metrics:
        assert f"\nunseen_{name} " in out
    rows = [line.split("\t") for line in out_path.read_text().splitlines()]
    assert [name for name, _, _ in rows] == [
        *metrics, *(f"unseen_{name}" for name in metrics)]
    assert [int(count) for _, _, count in rows] == (
        [len(test_triples)] * 4 + [unseen] * 4)


def test_eval_missing_checkpoint_is_exit_2(workspace):
    code, out, err = run_cli(["eval", "--checkpoint", "/nonexistent.ckpt",
                              "--split", "valid"])
    assert code == 2
    assert "FileNotFoundError" in err


def test_eval_version_mismatch_is_exit_3(workspace, tmp_path):
    blob = bytearray(workspace.ckpt.read_bytes())
    blob[4:8] = struct.pack("<I", checkpoint.VERSION + 7)
    patched = tmp_path / "future.ckpt"
    patched.write_bytes(bytes(blob))
    code, out, err = run_cli(["eval", "--checkpoint", str(patched),
                              "--split", "valid"])
    assert code == 3
    assert "error: CheckpointVersionError:" in err


def test_eval_format_1_checkpoint_is_exit_3(workspace, tmp_path):
    # format 1 held a u32 max_time after the relation count
    blob = workspace.ckpt.read_bytes()
    (config_len,) = struct.unpack_from("<I", blob, 8)
    at = 12 + config_len + 8
    old = tmp_path / "v1.ckpt"
    old.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:at]
                    + struct.pack("<I", 59) + blob[at:])
    code, out, err = run_cli(["eval", "--checkpoint", str(old),
                              "--split", "valid"])
    assert code == 3
    assert err.startswith("error: CheckpointVersionError:")
    assert "version 1" in err


@pytest.fixture(scope="module")
def nan_checkpoint(workspace, tmp_path_factory):
    """The workspace checkpoint with one entity_table row set to NaN."""
    loaded = checkpoint.load(workspace.ckpt)
    cfg = parse_config_text(loaded["config_text"])
    params = init_params(cfg.denoiser_config(), loaded["vocab"], seed=0)
    checkpoint.restore_params(loaded, params)
    params["entity_table"].data[2] = np.nan
    path = tmp_path_factory.mktemp("nan") / "nan.ckpt"
    checkpoint.save(path, params, Adam(params.tensors), loaded["config_text"],
                    loaded["vocab"], 1, 0.0, checkpoint.restore_rng(loaded))
    return path


@pytest.mark.parametrize("argv", [["eval", "--split", "valid"],
                                  ["predict", "--subject", "0",
                                   "--relation", "0", "--time", "60"]],
                         ids=["eval", "predict"])
def test_non_finite_scores_are_exit_1(nan_checkpoint, argv):
    code, out, err = run_cli([*argv, "--checkpoint", str(nan_checkpoint)])
    assert code == 1
    assert err.startswith("error: NumericsError: non-finite scores for query")
    assert out == ""


def test_eval_corrupt_checkpoint_is_exit_2(workspace, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    code, out, err = run_cli(["eval", "--checkpoint", str(bad),
                              "--split", "valid"])
    assert code == 2
    assert "CheckpointFormatError" in err


def test_eval_checkpoint_with_non_utf8_config_is_exit_2(workspace, tmp_path):
    blob = bytearray(workspace.ckpt.read_bytes())
    blob[12] = 0xFF  # first byte of the config text
    bad = tmp_path / "config.ckpt"
    bad.write_bytes(bytes(blob))
    code, out, err = run_cli(["eval", "--checkpoint", str(bad),
                              "--split", "valid"])
    assert code == 2
    assert "error: CheckpointFormatError:" in err


# ---------------------------------------------------------------------------
# predict


def test_predict_output_contract(workspace):
    code, out, err = run_cli([
        "predict", "--checkpoint", str(workspace.ckpt),
        "--subject", "0", "--relation", "0", "--time", "55", "--top-k", "5"])
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "# rank\tentity\tprobability\tlabel"
    rows = [l.split("\t") for l in lines[1:]]
    assert len(rows) == 5
    assert [r[0] for r in rows] == ["1", "2", "3", "4", "5"]
    probs = [float(r[2]) for r in rows]
    assert probs == sorted(probs, reverse=True)
    assert abs(sum(probs) - 1.0) < 1e-6  # top-5 of 5 entities: full simplex
    for r in rows:
        assert r[3] == workspace.names[int(r[1])]


def test_predict_learned_the_cycle(workspace):
    # gold object for (s=0, r=0) is (0 + 1 + 0) mod 5 = 1 at every t
    code, out, err = run_cli([
        "predict", "--checkpoint", str(workspace.ckpt),
        "--subject", "0", "--relation", "0", "--time", "55", "--top-k", "1"])
    assert code == 0
    top = out.strip().splitlines()[1].split("\t")
    assert top[1] == "1"
    assert top[3] == "beta"


def test_predict_is_seed_deterministic(workspace):
    argv = ["predict", "--checkpoint", str(workspace.ckpt), "--subject", "2",
            "--relation", "1", "--time", "50", "--set", "seed=5"]
    assert run_cli(argv)[1] == run_cli(argv)[1]


def test_predict_unknown_subject_is_exit_4(workspace):
    code, out, err = run_cli([
        "predict", "--checkpoint", str(workspace.ckpt),
        "--subject", "99", "--relation", "0", "--time", "55"])
    assert code == 4
    assert "error: UnknownIdError:" in err
    assert "entity vocabulary" in err


def test_predict_unknown_relation_is_exit_4(workspace):
    # relations 0..3 exist after inverse augmentation
    code, out, err = run_cli([
        "predict", "--checkpoint", str(workspace.ckpt),
        "--subject", "0", "--relation", "4", "--time", "55"])
    assert code == 4
    assert "relation" in err


def test_predict_inverse_relation_is_valid(workspace):
    code, out, err = run_cli([
        "predict", "--checkpoint", str(workspace.ckpt),
        "--subject", "0", "--relation", "3", "--time", "55", "--top-k", "2"])
    assert code == 0, err


_QUERY = ["--subject", "0", "--relation", "0", "--time", "55"]


@pytest.mark.parametrize("argv,error,name", [
    (["predict", *_QUERY, "--top-k", "-3"], "ValidationError", "--top-k"),
    (["predict", *_QUERY, "--top-k", "0"], "ValidationError", "--top-k"),
    (["predict", *_QUERY, "--set", "seed=-1"], "ConfigurationError", "seed"),
    (["eval", "--split", "valid", "--set", "seed=-1"], "ConfigurationError", "seed"),
    (["eval", "--split", "valid", "--set", "eval_k=0"], "ConfigurationError",
     "eval_k"),
], ids=["top-k-negative", "top-k-zero", "predict-seed-negative",
        "eval-seed-negative", "eval-k-zero"])
def test_bad_flag_value_is_exit_2(workspace, argv, error, name):
    code, out, err = run_cli([argv[0], "--checkpoint", str(workspace.ckpt),
                              *argv[1:]])
    assert code == 2
    assert err.startswith(f"error: {error}:")
    assert name in err
    assert out == ""


def test_predict_builds_histories_over_one_window(workspace, monkeypatch):
    calls = []
    real = cli.build_histories

    def recording(quads, window, dt_max):
        calls.append(list(quads))
        return real(quads, window, dt_max)

    monkeypatch.setattr(cli, "build_histories", recording)
    code, out, err = run_cli(["predict", "--checkpoint", str(workspace.ckpt),
                              *_QUERY])
    assert code == 0, err
    assert len(calls) == 1
    assert len(calls[0]) <= 4 + 1  # window = 4 in CONFIG_TEMPLATE, plus the query
    assert all(q.s == 0 for q in calls[0])


def test_predict_window_equals_eval_window(workspace, monkeypatch):
    """predict's one-subject window matches the merged-stream window that
    eval builds for a test query with the same (s, t)."""
    cfg = cli.load_config(str(workspace.cfg), [])
    _, aug = cli._read_splits(cfg)
    test_samples = cli._split_histories(cfg, aug)["test"]
    real = cli.build_histories
    captured = []

    def recording(quads, window, dt_max):
        samples = real(quads, window, dt_max)
        captured.append(samples[-1])
        return samples

    monkeypatch.setattr(cli, "build_histories", recording)
    for ref in test_samples[::7]:
        captured.clear()
        code, out, err = run_cli([
            "predict", "--checkpoint", str(workspace.ckpt), "--subject",
            str(ref.s), "--relation", str(ref.r), "--time", str(ref.t)])
        assert code == 0, err
        (sample,) = captured
        assert (sample.s, sample.r, sample.t) == (ref.s, ref.r, ref.t)
        for field in ("hist_objects", "hist_relations", "hist_dt", "mask"):
            got, want = getattr(sample, field), getattr(ref, field)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (field, ref.s, ref.t)


def test_predict_history_equals_filtered_augmented_stream(workspace, monkeypatch):
    """predict's facts, built from the raw splits, are the last window of
    the inverse-augmented splits filtered to the subject, in the same order
    among equal timestamps."""
    cfg = cli.load_config(str(workspace.cfg), [])
    _, aug = cli._read_splits(cfg)
    stream = [q for name in cli.SPLITS for q in aug[name]]
    real = cli.build_histories
    captured = []

    def recording(quads, window, dt_max):
        captured.append(list(quads))
        return real(quads, window, dt_max)

    monkeypatch.setattr(cli, "build_histories", recording)
    for subject, relation, t in [(0, 0, 9), (1, 2, 30), (3, 1, 47), (4, 3, 60),
                                 (2, 0, 0)]:
        past = sorted((q for q in stream if q.s == subject and q.t < t),
                      key=lambda q: q.t)
        captured.clear()
        code, out, err = run_cli([
            "predict", "--checkpoint", str(workspace.ckpt), "--subject",
            str(subject), "--relation", str(relation), "--time", str(t)])
        assert code == 0, err
        query = cli.Quadruple(subject, relation, 0, t)
        assert captured == [past[-cfg.window :] + [query]]


@pytest.mark.parametrize("argv", [["eval"], ["predict", *_QUERY]],
                         ids=["eval", "predict"])
@pytest.mark.parametrize("entities,relations", [(6, 2), (5, 3)],
                         ids=["extra-entity", "extra-relation"])
def test_splits_exceeding_checkpoint_vocabulary_is_exit_2(
        workspace, tmp_path, argv, entities, relations):
    synthetic.write_splits(tmp_path, synthetic.cyclic_tkg(entities, relations, 60))
    code, out, err = run_cli([argv[0], "--checkpoint", str(workspace.ckpt),
                              "--set", f"data_dir={tmp_path}", *argv[1:]])
    assert code == 2
    assert err.startswith("error: ValidationError:")
    assert "exceeds the checkpoint's" in err


def test_eval_augments_inverses_with_checkpoint_vocabulary(tmp_path, monkeypatch):
    quads = synthetic.cyclic_tkg(5, 3, 60)
    synthetic.write_splits(tmp_path / "full", quads)
    synthetic.write_splits(tmp_path / "partial", [q for q in quads if q.r != 2])
    ckpt_path = tmp_path / "model.ckpt"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CONFIG_TEMPLATE.format(data_dir=tmp_path / "full",
                                               ckpt=ckpt_path))
    code, out, err = run_cli(["train", "--config", str(cfg_path),
                              "--set", "epochs=1"])
    assert code == 0, err
    seen = []
    real = cli.evaluate

    def recording(samples, *args, **kwargs):
        seen.extend(samples)
        return real(samples, *args, **kwargs)

    monkeypatch.setattr(cli, "evaluate", recording)
    code, out, err = run_cli(["eval", "--checkpoint", str(ckpt_path),
                              "--set", f"data_dir={tmp_path / 'partial'}"])
    assert code == 0, err
    # the model was trained on 3 base relations, so inverse r is r + 3 even
    # though the evaluated splits only use relations 0 and 1
    assert {s.r for s in seen} == {0, 1, 3, 4}


# ---------------------------------------------------------------------------
# inspect-schedule


def test_inspect_schedule_default_row_count():
    code, out, err = run_cli(["inspect-schedule"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# m\tone_minus_alpha_bar\tsqrt_alpha_bar"
    assert len(lines) == 51  # header + default 50 steps


def test_inspect_schedule_two_step_endpoints():
    code, out, err = run_cli(["inspect-schedule", "--set", "m_steps=2"])
    assert code == 0
    rows = [l.split("\t") for l in out.strip().splitlines()[1:]]
    assert rows[0][0] == "1" and rows[0][1] == "0.01"
    assert rows[1][0] == "2" and rows[1][1] == "0.99"
    assert float(rows[0][2]) == pytest.approx(np.sqrt(0.99), abs=1e-12)
    assert float(rows[1][2]) == pytest.approx(np.sqrt(0.01), abs=1e-12)


def test_inspect_schedule_invalid_params_exit_2():
    code, out, err = run_cli(["inspect-schedule", "--set", "delta=2.0"])
    assert code == 2
    assert "ConfigurationError" in err


def test_inspect_schedule_non_finite_delta_exit_2():
    code, out, err = run_cli(["inspect-schedule", "--set", "delta=nan"])
    assert code == 2
    assert err.startswith("error: ConfigurationError:") and "delta" in err
    assert out == ""


# ---------------------------------------------------------------------------
# argparse surface


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


def test_eval_requires_checkpoint_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli(["eval"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["train", "--data-dir", "d"],
    ["eval", "--checkpoint", "m.ckpt", "--data-dir", "d"],
    ["eval", "--checkpoint", "m.ckpt", "--seed", "1"],
    ["eval", "--checkpoint", "m.ckpt", "--k", "2"],
    ["predict", *_QUERY, "--checkpoint", "m.ckpt", "--data-dir", "d"],
    ["predict", *_QUERY, "--checkpoint", "m.ckpt", "--seed", "1"],
], ids=["train-data-dir", "eval-data-dir", "eval-seed", "eval-k",
        "predict-data-dir", "predict-seed"])
def test_settings_are_not_flags(argv):
    # data_dir, seed and eval_k come from the config text and --set only
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2


def test_seed_environment_variable_is_ignored(workspace, monkeypatch):
    argv = ["eval", "--checkpoint", str(workspace.ckpt), "--split", "valid"]
    plain = run_cli(argv)
    monkeypatch.setenv("NADEX_SEED", "101")
    assert run_cli(argv) == plain


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize("error,code", [
    (errors.CheckpointVersionError, 3),
    (errors.CheckpointFormatError, 2),
    (errors.UnknownIdError, 4),
    (errors.ConfigurationError, 2),
    (errors.ParseError, 2),
    (errors.ValidationError, 2),
    (FileNotFoundError, 2),
    (errors.NumericsError, 1),
    (errors.ShapeMismatchError, 1),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_error_maps_to_exit_code(monkeypatch, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_inspect_schedule", fail)
    got, out, err = run_cli(["inspect-schedule"])
    assert got == code
    assert err == f"error: {error.__name__}: boom\n"
    assert out == ""


def _copy_splits(workspace, to):
    for name in cli.SPLITS:
        (to / f"{name}.txt").write_bytes(
            (workspace.data_dir / f"{name}.txt").read_bytes())


def _assert_one_error_line(code, err, error, filename):
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith(f"error: {error}:")
    assert filename in err


def test_non_utf8_split_is_exit_2(workspace, tmp_path):
    _copy_splits(workspace, tmp_path)
    with open(tmp_path / "test.txt", "ab") as fh:
        fh.write(b"0\t0\t1\t\xff\n")
    code, out, err = run_cli([
        "train", "--config", str(workspace.cfg), "--set", f"data_dir={tmp_path}",
        "--set", f"checkpoint={tmp_path / 'model.ckpt'}"])
    _assert_one_error_line(code, err, "ParseError", "test.txt")
    assert out == ""


def test_non_utf8_entity_labels_are_exit_2(workspace, tmp_path):
    _copy_splits(workspace, tmp_path)
    (tmp_path / "entity2id.txt").write_bytes(b"alpha\t0\nb\xffta\t1\n")
    code, out, err = run_cli([
        "predict", "--checkpoint", str(workspace.ckpt), *_QUERY,
        "--set", f"data_dir={tmp_path}"])
    _assert_one_error_line(code, err, "ParseError", "entity2id.txt")
    assert out == ""


def test_non_utf8_config_is_exit_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"epochs = 1\n# caf\xe9\n")
    code, out, err = run_cli(["train", "--config", str(cfg)])
    _assert_one_error_line(code, err, "ConfigurationError", "run.cfg")
    assert out == ""
