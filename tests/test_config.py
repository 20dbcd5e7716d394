"""Run-configuration parsing, precedence, and validation."""

import dataclasses

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from nadex.config import RunConfig, finalize, load_config, parse_config_text
from nadex.errors import ConfigurationError


def test_defaults_validate():
    cfg = finalize(RunConfig())
    assert cfg.hidden == 200
    assert cfg.m_steps == 50
    assert cfg.lam == 0.5
    assert cfg.checkpoint == "nadex.ckpt"


def test_parse_values_comments_and_blanks():
    text = """
    # experiment 12
    hidden = 64        # narrow model
    lambda = 0.25
    dropout=0.0
    checkpoint = runs/12.ckpt

    epochs = 3
    """
    cfg = parse_config_text(text)
    assert cfg.hidden == 64
    assert cfg.lam == 0.25
    assert cfg.dropout == 0.0
    assert cfg.checkpoint == "runs/12.ckpt"
    assert cfg.epochs == 3
    assert cfg.window == 8  # untouched keys keep defaults


def test_unknown_key_rejected_with_location():
    with pytest.raises(ConfigurationError) as exc:
        parse_config_text("hidden = 64\nhiden = 32\n")
    msg = str(exc.value)
    assert "line 2" in msg and "hiden" in msg
    # keys of removed variants and knobs, which older checkpoints still echo
    for key in ("refine_steps", "untied_scoring", "mask_duplicate_golds",
                "ffn_hidden", "eval_chunk", "eval_every"):
        with pytest.raises(ConfigurationError) as exc:
            parse_config_text(f"hidden = 64\n{key} = 0\n")
        msg = str(exc.value)
        assert "line 2" in msg and key in msg


def test_missing_equals_rejected():
    with pytest.raises(ConfigurationError) as exc:
        parse_config_text("hidden 64\n")
    assert "key = value" in str(exc.value)


NON_FINITE = ["lr=nan", "lr=inf", "gamma=nan", "gamma=inf", "tau=nan",
              "tau=inf", "delta=nan", "lambda=-inf"]


@pytest.mark.parametrize("line,fragment", [
    ("hidden = twelve", "twelve"),
    ("lr = fast", "fast"),
    *((kv.replace("=", " = "), kv.split("=")[0]) for kv in NON_FINITE),
])
def test_bad_coercions_name_the_value(line, fragment):
    with pytest.raises(ConfigurationError) as exc:
        parse_config_text(line)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("kv", NON_FINITE)
def test_non_finite_override_rejected(kv):
    with pytest.raises(ConfigurationError) as exc:
        load_config(None, [kv])
    assert "finite" in str(exc.value)


@pytest.mark.parametrize("kv", ["data_dir=/tmp/run#1", "checkpoint=a\nb.ckpt",
                                "data_dir=a\u2028b"])
def test_strings_the_stored_config_cannot_hold_rejected(kv):
    with pytest.raises(ConfigurationError) as exc:
        finalize(RunConfig(), [kv])
    assert kv.split("=")[0] in str(exc.value)


_KEYS = {"lam": "lambda"}
_VALUES = {int: st.integers(-2, 300), float: st.floats(), str: st.text()}


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_valid_settings_survive_the_stored_config(data):
    # eval and predict rebuild the run from the checkpoint's config text
    field = data.draw(st.sampled_from(dataclasses.fields(RunConfig)))
    value = data.draw(_VALUES[type(field.default)])
    try:
        cfg = finalize(RunConfig(), [f"{_KEYS.get(field.name, field.name)}={value}"])
    except ConfigurationError:
        reject()
    assert parse_config_text(cfg.to_text()) == cfg


def test_override_beats_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("hidden = 64\nepochs = 5\n")
    cfg = load_config(p, overrides=("hidden=128",))
    assert cfg.hidden == 128
    assert cfg.epochs == 5


def test_malformed_override():
    with pytest.raises(ConfigurationError) as exc:
        finalize(RunConfig(), overrides=("hidden",))
    assert "--set" in str(exc.value)


def test_lambda_alias_both_directions():
    cfg = parse_config_text("lambda = 0.75")
    assert cfg.lam == 0.75
    text = finalize(cfg).to_text()
    assert "lambda = 0.75" in text
    assert "lam =" not in text


def test_to_text_roundtrip():
    cfg = finalize(RunConfig(hidden=48, layers=1, heads=2, dropout=0.1,
                             lam=0.3, eval_k=3, epochs=2))
    back = finalize(parse_config_text(cfg.to_text()))
    assert back == cfg


@pytest.mark.parametrize("text,fragment", [
    ("lambda = 1.5", "lambda"),
    ("granularity = 0", "granularity"),
    ("lr = 0", "lr"),
    ("epochs = 0", "epochs"),
    ("b_max = 1", "b_max"),
    ("seed = -1", "seed"),
    ("workers = -2", "workers"),
    ("hidden = 30\nheads = 4", "head"),
    ("m_steps = 1", "at least 2 steps"),
    ("alpha_min = 0.9\nalpha_max = 0.5", "alpha"),
    ("delta = 1.2", "non-positive"),
    ("tau = 0", "tau"),
    ("eval_k = 0", "eval_k"),
])
def test_validation_failures(text, fragment):
    cfg = parse_config_text(text)
    with pytest.raises(ConfigurationError) as exc:
        finalize(cfg)
    assert fragment in str(exc.value)


def test_run_config_has_22_keys():
    assert len(dataclasses.fields(RunConfig)) == 22


def test_sub_config_builders():
    cfg = finalize(RunConfig(hidden=48, layers=1, heads=2, dropout=0.0,
                             m_steps=4))
    dn = cfg.denoiser_config()
    assert dn.hidden == 48 and dn.ffn == 192
    sched = cfg.schedule()
    assert sched.m_steps == 4
    lc = cfg.loss_config()
    assert lc.lam == 0.5 and lc.tau == 0.5


def test_file_errors_name_the_file(tmp_path):
    p = tmp_path / "broken.cfg"
    p.write_text("hidden = \n")
    with pytest.raises(ConfigurationError) as exc:
        load_config(p)
    assert "broken.cfg" in str(exc.value)
