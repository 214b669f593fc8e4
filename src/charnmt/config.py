"""Flat `key = value` run configuration for the training command.

A run config collects every model and optimizer field plus the data paths
in one UTF-8 text file. `#` starts a comment, blank lines are ignored, and
command-line `key=value` overrides win over the file. Unknown or duplicate
keys are rejected so typos fail loudly instead of training the wrong model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .model import ModelConfig
from .textpipe import Vocabulary, decode_text
from .trainer import TrainConfig, TrainPaths, typed_config

PATH_KEYS = tuple(f.name for f in fields(TrainPaths))
_OPTIONAL_KEYS = ("resume",)
KNOWN_KEYS = frozenset(f.name for cls in (ModelConfig, TrainConfig) for f in fields(cls)) \
    | frozenset(PATH_KEYS) | frozenset(_OPTIONAL_KEYS)

# inputs that must exist before any work starts; out_dir is created on demand
_INPUT_PATH_KEYS = tuple(k for k in PATH_KEYS if k != "out_dir")


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Parse `key = value` lines into a mapping, rejecting unknown keys."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{origin}:{lineno}: empty value for key {key!r}")
        values[key] = value
    return values


def parse_overrides(tokens) -> dict[str, str]:
    """Parse command-line `key=value` override tokens."""
    values: dict[str, str] = {}
    for token in tokens:
        if "=" not in token:
            raise ConfigError(f"override {token!r} is not of the form key=value")
        key, value = (part.strip() for part in token.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown override key {key!r}")
        if not value:
            raise ConfigError(f"empty value in override {token!r}")
        values[key] = value
    return values


@dataclass
class RunConfig:
    """Merged key/value view of one training run."""

    values: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file {path} does not exist")
        return cls(parse_config_text(decode_text(path.read_bytes(), path), str(path)))

    def apply_overrides(self, tokens) -> None:
        self.values.update(parse_overrides(tokens))

    def resolve(self) -> tuple[ModelConfig, TrainConfig, TrainPaths, Path | None]:
        """Materialize the typed configs, validating paths up front.

        Vocabulary sizes may be omitted; they are then read off the
        vocabulary files themselves.
        """
        missing = [k for k in PATH_KEYS if k not in self.values]
        if missing:
            raise ConfigError(f"config is missing path keys: {', '.join(missing)}")
        paths = TrainPaths(**{k: Path(self.values[k]) for k in PATH_KEYS})
        for key in _INPUT_PATH_KEYS:
            p = getattr(paths, key)
            if not p.is_file():
                raise ConfigError(f"{key}: no such file {p}")
        resume = Path(self.values["resume"]) if "resume" in self.values else None

        train_config = typed_config(TrainConfig, self.values)
        model_values = dict(self.values)
        if "src_vocab_size" not in model_values:
            model_values["src_vocab_size"] = str(len(Vocabulary.load(paths.src_vocab, "subword")))
        if "tgt_vocab_size" not in model_values:
            model_values["tgt_vocab_size"] = str(len(
                Vocabulary.load(paths.tgt_vocab, train_config.target_unit)))
        model_config = typed_config(ModelConfig, model_values)
        return model_config, train_config, paths, resume
