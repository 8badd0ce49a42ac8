"""The configuration keys: each one's default, type and valid range,
declared once, beside its default. The CLI and checkpoints read them from
here, and a test holds the README to them.
"""
from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    pass


def ranged(default, *rules):
    """A config field with `default` whose value must pass each (rule, test)
    in turn; `test(value, config)` may rely on the fields before it."""
    return field(default=default, metadata={"rules": rules})


AT_LEAST_0 = (">= 0", lambda v, c: v >= 0)
AT_LEAST_1 = (">= 1", lambda v, c: v >= 1)
FINITE_AT_LEAST_0 = ("finite and >= 0", lambda v, c: 0 <= v < math.inf)
# a value written to a resolved config must read back the same; a
# surrogate, as argv holds a byte that is not UTF-8, cannot be written
ONE_LINE = ("a single line of UTF-8 text without surrounding whitespace",
            lambda v, c: v == v.strip() and len(v.splitlines()) <= 1
            and not re.search("[\ud800-\udfff]", v))


def check(config) -> None:
    """Refuse `config` with a ConfigError naming the first key whose value
    is not of its default's type or breaks one of its field's rules; an
    int given for a float is stored as a float."""
    for f in fields(config):
        value, kind = getattr(config, f.name), type(f.default)
        if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
            setattr(config, f.name, float(value))
        elif type(value) is not kind:
            raise ConfigError(f"{f.name} must be {kind.__name__}, got {value!r}")
    for f in fields(config):
        value = getattr(config, f.name)
        for rule, test in f.metadata.get("rules", ()):
            if not test(value, config):
                raise ConfigError(f"{f.name} must be {rule}, got {value!r}")


@dataclass
class TrainConfig:
    lr: float = ranged(0.001, ("finite and > 0", lambda v, c: 0 < v < math.inf))
    epochs: int = ranged(30, AT_LEAST_1)
    batch_size: int = ranged(32, AT_LEAST_1)
    window_length: int = ranged(60, AT_LEAST_1)
    train_stride: int = ranged(1, AT_LEAST_1)
    alpha: float = ranged(0.1, FINITE_AT_LEAST_0)
    beta: float = ranged(0.1, FINITE_AT_LEAST_0)
    k_periods: int = ranged(3, ("in [1, window_length / 2)",
                                lambda v, c: 1 <= v < c.window_length / 2))
    n_factors: int = ranged(4, AT_LEAST_1)
    hidden: int = ranged(32, AT_LEAST_1)
    num_layers: int = ranged(2, AT_LEAST_1)
    num_blocks: int = ranged(2, AT_LEAST_0)
    sigma: float = ranged(0.1, FINITE_AT_LEAST_0)
    k_h_frac: float = ranged(0.25, ("in (0, 1)", lambda v, c: 0 < v < 1))
    noise: str = ranged("gaussian", ("'gaussian' or 'laplace'",
                                     lambda v, c: v in ("gaussian", "laplace")))
    seed: int = ranged(0, AT_LEAST_0)
    patience: int = 10
    # -1: the clamped global period, even without the periodic mask
    context_radius: int = ranged(-1, (">= -1", lambda v, c: v >= -1))
    use_periodic_mask: bool = True  # False: fixed half/half split mask
    apply_standardization: bool = True

    def __post_init__(self):
        check(self)


@dataclass
class GenConfig:
    gen_length: int = ranged(4000, AT_LEAST_1)
    gen_dims: int = ranged(3, AT_LEAST_1)
    gen_periods: str = ranged("20:3.0,60:1.0", ONE_LINE)
    gen_noise_std: float = ranged(0.3, FINITE_AT_LEAST_0)
    gen_anomalies: str = ranged("", ONE_LINE)
    # chronological, contiguous train/validation/test shares of a series
    train_frac: float = ranged(0.6, FINITE_AT_LEAST_0)
    val_frac: float = ranged(0.2, FINITE_AT_LEAST_0)
    test_frac: float = ranged(0.2, FINITE_AT_LEAST_0, (
        "within 1e-9 of 1 - train_frac - val_frac",
        lambda v, c: abs(c.train_frac + c.val_frac + v - 1.0) <= 1e-9))

    def __post_init__(self):
        check(self)
