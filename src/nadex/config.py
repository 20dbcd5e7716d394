"""Flat key=value run configuration with command-line overrides.

Config files are diffable text: one `key = value` per line, '#' comments.
Overrides (--set key=value) win over the file and are the only other
source of a setting. Unknown keys are rejected rather than ignored so
typos cannot silently fall back to defaults. The full validated config
round-trips through the checkpoint as text.
"""

import dataclasses
import math
import os
from dataclasses import dataclass

from .denoiser import DenoiserConfig
from .diffusion import build_schedule
from .errors import ConfigurationError
from .objectives import LossConfig

# file/CLI key -> dataclass field (only where names differ)
_KEY_ALIASES = {"lambda": "lam"}
_FIELD_KEYS = {name: key for key, name in _KEY_ALIASES.items()}


@dataclass
class RunConfig:
    data_dir: str = ""
    granularity: int = 24
    window: int = 8
    dt_max: int = 512
    hidden: int = 200
    layers: int = 2
    heads: int = 4
    dropout: float = 0.2
    m_steps: int = 50
    delta: float = 1.0
    alpha_min: float = 0.01
    alpha_max: float = 0.99
    lam: float = 0.5
    gamma: float = 1.0
    tau: float = 0.5
    lr: float = 1e-3
    epochs: int = 100
    b_max: int = 512
    seed: int = 0
    checkpoint: str = "nadex.ckpt"
    eval_k: int = 1
    workers: int = 0

    def denoiser_config(self):
        return DenoiserConfig(
            hidden=self.hidden, layers=self.layers, heads=self.heads,
            dropout=self.dropout, window=self.window, dt_max=self.dt_max,
            m_steps=self.m_steps,
        )

    def loss_config(self):
        return LossConfig(lam=self.lam, gamma=self.gamma, tau=self.tau)

    def schedule(self):
        return build_schedule(self.m_steps, self.delta,
                              self.alpha_min, self.alpha_max)

    def validate(self):
        """Exercise every downstream constructor so bad values fail before
        any data loading or training starts."""
        self.denoiser_config()
        self.loss_config()
        self.schedule()
        if self.granularity < 1:
            raise ConfigurationError(f"granularity must be >= 1, got {self.granularity}")
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.b_max < 2:
            raise ConfigurationError(f"b_max must be >= 2, got {self.b_max}")
        if self.eval_k < 1:
            raise ConfigurationError(f"eval_k must be >= 1, got {self.eval_k}")
        if self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        return self

    def to_text(self):
        lines = []
        for f in dataclasses.fields(self):
            key = _FIELD_KEYS.get(f.name, f.name)
            lines.append(f"{key} = {getattr(self, f.name)}")
        return "\n".join(lines) + "\n"


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(key, field, raw, where):
    """``raw`` as the field's type; values ``to_text`` cannot write back
    (non-finite floats, strings with '#' or a line break) are rejected."""
    raw = raw.strip()
    kind = type(field.default)
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigurationError(
            f"{where}: cannot parse {raw!r} as {kind.__name__}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigurationError(f"{where}: {key} must be finite, got {raw!r}")
    if kind is str and ("#" in value or len(value.splitlines()) > 1):
        raise ConfigurationError(
            f"{where}: {key} must not hold '#' or a line break, got {raw!r}")
    return value


def _assign(cfg, key, raw, where):
    name = _KEY_ALIASES.get(key, key)
    if name not in _FIELDS:
        raise ConfigurationError(f"{where}: unknown config key {key!r}")
    setattr(cfg, name, _coerce(key, _FIELDS[name], raw, where))


def parse_config_text(text, cfg=None, source="config"):
    cfg = cfg or RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"{source} line {lineno}: expected key = value, got {line!r}"
            )
        key, raw = stripped.split("=", 1)
        _assign(cfg, key.strip(), raw, f"{source} line {lineno}")
    return cfg


def finalize(cfg, overrides=()):
    """Apply --set overrides, then validate."""
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        _assign(cfg, key.strip(), raw, f"--set {item!r}")
    return cfg.validate()


def load_config(path=None, overrides=()):
    """File -> --set overrides, validated before returning."""
    cfg = RunConfig()
    if path is not None:
        name = os.path.basename(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as err:
            raise ConfigurationError(f"{name}: not UTF-8 text ({err.reason})") from None
        parse_config_text(text, cfg, source=name)
    return finalize(cfg, overrides)
