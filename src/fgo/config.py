"""Flat key=value run configuration and the pinned weight presets.

A config file is lines of ``key = value`` (``#`` comments allowed).
Every key names one field of the library's own parameter objects:
:class:`PipelineParams`, whose cue blocks take ``sa_``/``tj_``
prefixes, or the alpha triple of :class:`ModelWeights`. Keys match
ignoring case and underscores, so ``alphaRef``, ``alpha_ref`` and
``ALPHAREF`` are one key. The ``seed`` key seeds the train/test split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .cues import SAParams, TJParams
from .ownership import ALPHA_NAMES, ModelWeights
from .pipeline import PipelineParams

PRESETS = {
    "reference": (1.0, 0.0, 0.0),
    "with-sa": (0.35, 0.65, 0.0),
    "with-tj": (0.03, 0.0, 0.97),
    "with-both": (0.05, 0.15, 0.80),
}

# file key -> path of its PipelineParams field
_PARAM_KEYS = {
    **{name: (name,) for name in ("n_scales", "pyramid_factor", "w_opp", "feature_color",
                                  "feature_intensity", "feature_orientation", "top_layers_only")},
    "sigma": ("gabor", "sigma"),
    "gamma": ("gabor", "gamma"),
    "omega": ("gabor", "omega"),
    "sigma_in": ("dog", "sigma_in"),
    "sigma_out": ("dog", "sigma_out"),
    "sigma1": ("oriented_cs", "sigma"),
    "gamma1": ("oriented_cs", "gamma"),
    "omega1": ("oriented_cs", "omega"),
    "r0": ("ring_radius",),
    **{
        f"{block}_{f.name}": (block, f.name)
        for block, cls in (("sa", SAParams), ("tj", TJParams))
        for f in fields(cls)
    },
}
_KEYS = {
    key.replace("_", ""): key for key in (*_PARAM_KEYS, *ALPHA_NAMES, "preset", "seed")
}
_TYPES = {"int": int, "float": float}


def key_name(key: str) -> str | None:
    """The snake_case name of a config key in any spelling, None when
    there is no such key."""
    return _KEYS.get(key.strip().lower().replace("_", ""))


@dataclass(frozen=True)
class RunConfig:
    """One model configuration: the library's pipeline parameters, the
    alpha keys set so far and the split seed.

    A pipeline parameter is checked by its own dataclass when it is set,
    and the seed here. The alpha keys are checked together when
    :meth:`weights` builds them over ``ModelWeights()``, because the
    triple sums to one only once all three are set.
    """

    params: PipelineParams = PipelineParams()
    weight_keys: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def weights(self) -> ModelWeights:
        return ModelWeights(**self.weight_keys)


def apply_preset(config: RunConfig, name: str) -> RunConfig:
    try:
        triple = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
    return replace(config, weight_keys={**config.weight_keys, **dict(zip(ALPHA_NAMES, triple))})


def _parse(kind: str, text: str):
    """``text`` as a value of the annotated type ``kind``. A float must
    be finite: no dataclass check refuses a NaN, which compares false
    with every limit."""
    if kind == "int | None":
        return None if text.lower() in ("", "none") else int(text)
    value = _TYPES[kind](text)
    if kind == "float" and not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _set_field(obj, path, text: str):
    """``obj`` with the field at ``path`` set from its text, rebuilt at
    every level, so each dataclass checks its own values."""
    name, *rest = path
    if rest:
        return replace(obj, **{name: _set_field(getattr(obj, name), rest, text)})
    kind = next(f.type for f in fields(obj) if f.name == name)
    return replace(obj, **{name: _parse(kind, text)})


def apply_assignment(config: RunConfig, key: str, value: str) -> RunConfig:
    """Set one configuration key from its text form."""
    name = key_name(key)
    value = value.strip()
    if name is None:
        raise ValueError(f"unknown config key {key.strip()!r}")
    if name == "preset":
        return apply_preset(config, value)
    if name == "seed":
        return replace(config, seed=int(value))
    if name in _PARAM_KEYS:
        return replace(config, params=_set_field(config.params, _PARAM_KEYS[name], value))
    return replace(config, weight_keys={**config.weight_keys, name: _parse("float", value)})


def apply_lines(config: RunConfig, lines, where: str = "line {lineno}") -> RunConfig:
    """Apply ``key = value`` lines in order; ``#`` starts a comment. A
    refused line's error is prefixed with ``where``, formatted with the
    line's ``lineno`` and stripped ``line``."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        try:
            if not sep:
                raise ValueError(f"expected key=value, got {line!r}")
            config = apply_assignment(config, key, value)
        except ValueError as exc:
            raise ValueError(f"{where.format(lineno=lineno, line=stripped)}: {exc}") from None
    return config


def parse_config_text(text: str) -> RunConfig:
    return apply_lines(RunConfig(), text.splitlines())


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())
