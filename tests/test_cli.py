"""End-to-end command-line behaviour: output contracts and exit codes."""

import io
import struct
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

from nadex import checkpoint, cli, synthetic
from nadex.evaluation import report_from_tsv


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


# ---------------------------------------------------------------------------
# eval


def test_eval_reproduces_stored_best_mrr_exactly(workspace, tmp_path):
    out_path = tmp_path / "report.tsv"
    code, out, err = run_cli([
        "eval", "--checkpoint", str(workspace.ckpt), "--split", "valid",
        "--out", str(out_path)])
    assert code == 0, err
    assert "queries=" in out and "mrr" in out
    report = report_from_tsv(out_path.read_text())
    stored = checkpoint.load(workspace.ckpt)["best_valid_mrr"]
    # same seed, same draw count -> bit-identical metric
    assert report.mrr == stored


def test_eval_different_seed_changes_scores(workspace):
    code_a, out_a, _ = run_cli(["eval", "--checkpoint", str(workspace.ckpt),
                                "--split", "valid", "--seed", "101"])
    code_b, out_b, _ = run_cli(["eval", "--checkpoint", str(workspace.ckpt),
                                "--split", "valid", "--seed", "101"])
    code_c, out_c, _ = run_cli(["eval", "--checkpoint", str(workspace.ckpt),
                                "--split", "valid", "--seed", "202"])
    assert code_a == code_b == code_c == 0
    assert out_a == out_b
    assert out_a != out_c


def test_eval_reports_unseen_subset_rows(workspace):
    # cyclic stream: object depends only on (s, r), so nothing is unseen
    code, out, err = run_cli(["eval", "--checkpoint", str(workspace.ckpt),
                              "--split", "test"])
    assert code == 0
    assert "unseen_mrr" not in out


def test_eval_unseen_only_empty_is_exit_2(workspace):
    code, out, err = run_cli(["eval", "--checkpoint", str(workspace.ckpt),
                              "--split", "test", "--unseen-only"])
    assert code == 2
    assert "unseen subset of 'test' is empty" in err


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
            "--relation", "1", "--time", "50", "--seed", "5"]
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


@pytest.mark.parametrize("argv", [
    ["predict", *_QUERY, "--top-k", "-3"],
    ["predict", *_QUERY, "--top-k", "0"],
    ["predict", *_QUERY, "--seed", "-1"],
    ["eval", "--split", "valid", "--seed", "-1"],
    ["eval", "--split", "valid", "--k", "0"],
], ids=["top-k-negative", "top-k-zero", "predict-seed-negative",
        "eval-seed-negative", "eval-k-zero"])
def test_bad_flag_value_is_exit_2(workspace, argv):
    code, out, err = run_cli([argv[0], "--checkpoint", str(workspace.ckpt),
                              *argv[1:]])
    assert code == 2
    assert err.startswith("error: ValidationError:")
    assert argv[-2] in err
    assert out == ""


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
