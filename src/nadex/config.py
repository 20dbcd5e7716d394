"""Flat key=value run configuration with command-line overrides.

Config files are diffable text: one `key = value` per line, '#' comments.
Overrides (--set key=value) win over the file; the NADEX_SEED environment
variable wins over both for the seed. Unknown keys are rejected rather
than ignored so typos cannot silently fall back to defaults. The full
validated config round-trips through the checkpoint as text.
"""

import dataclasses
import os
from dataclasses import dataclass

from .denoiser import DenoiserConfig
from .diffusion import build_schedule
from .errors import ConfigurationError
from .objectives import LossConfig

SEED_ENV_VAR = "NADEX_SEED"

# file/CLI key -> dataclass field (only where names differ)
_KEY_ALIASES = {"lambda": "lam"}


@dataclass
class RunConfig:
    data_dir: str = ""
    granularity: int = 24
    window: int = 8
    dt_max: int = 512
    hidden: int = 200
    layers: int = 2
    heads: int = 4
    ffn_hidden: int = 0
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
    eval_every: int = 1
    eval_k: int = 1
    eval_chunk: int = 256
    workers: int = 0

    def denoiser_config(self):
        return DenoiserConfig(
            hidden=self.hidden, layers=self.layers, heads=self.heads,
            ffn_hidden=self.ffn_hidden, dropout=self.dropout,
            window=self.window, dt_max=self.dt_max, m_steps=self.m_steps,
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
        if self.eval_every < 1:
            raise ConfigurationError(f"eval_every must be >= 1, got {self.eval_every}")
        if min(self.eval_k, self.eval_chunk) < 1:
            raise ConfigurationError("eval_k and eval_chunk must be >= 1")
        if self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        return self

    def to_text(self):
        lines = []
        for f in dataclasses.fields(self):
            key = "lambda" if f.name == "lam" else f.name
            lines.append(f"{key} = {getattr(self, f.name)}")
        return "\n".join(lines) + "\n"


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(field, raw, where):
    raw = raw.strip()
    try:
        if isinstance(field.default, int):
            return int(raw)
        if isinstance(field.default, float):
            return float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{where}: cannot parse {raw!r} as {type(field.default).__name__}"
        ) from None
    return raw


def _assign(cfg, key, raw, where):
    name = _KEY_ALIASES.get(key, key)
    if name not in _FIELDS:
        raise ConfigurationError(f"{where}: unknown config key {key!r}")
    setattr(cfg, name, _coerce(_FIELDS[name], raw, where))


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


def finalize(cfg, overrides=(), env=None):
    """Apply --set overrides and the seed env var, then validate."""
    env = os.environ if env is None else env
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        _assign(cfg, key.strip(), raw, f"--set {item!r}")
    if env.get(SEED_ENV_VAR):
        try:
            cfg.seed = int(env[SEED_ENV_VAR])
        except ValueError:
            raise ConfigurationError(
                f"{SEED_ENV_VAR} must be an integer, got {env[SEED_ENV_VAR]!r}"
            ) from None
    return cfg.validate()


def load_config(path=None, overrides=(), env=None):
    """File -> --set overrides -> NADEX_SEED, validated before returning."""
    cfg = RunConfig()
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            parse_config_text(fh.read(), cfg, source=os.path.basename(path))
    return finalize(cfg, overrides, env)
