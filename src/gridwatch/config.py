"""Runtime configuration: detector, segmentation, rule thresholds, network.

Config files are flat section/key=value text (a TOML subset)::

    [detector]
    h = 5.0
    nu = 0.5

Unknown sections or keys are rejected.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    # change detector
    lambda_forget: float = 0.99
    nu: float = 0.5
    h: float = 5.0
    warmup: int = 60
    var_floor: float = 1e-12
    # event segmentation
    t1: int = 120
    t2: int = 240
    # correlation window
    m: int = 12
    # voltage-magnitude rule bounds, p.u.
    v_normal_low: float = 0.9
    v_normal_high: float = 1.1
    v_interruption: float = 0.1
    v_sustained_s: float = 60.0
    t0_s: float = 1.0 / 60.0
    ts_s: float = 1.0 / 120.0
    # trend classification
    slope_min: float = 1e-4
    variance_ratio: float = 2.0
    trend_window: int = 24
    # network
    port: int = 7435

    def __post_init__(self):
        checks = [   # each is False for NaN, so a NaN is rejected too
            (0.0 < self.lambda_forget < 1.0, "lambda_forget must be in (0,1)"),
            (self.nu >= 0.0, "nu must be >= 0"),
            (self.h > 0.0, "h must be > 0"),
            (self.warmup >= 2, "warmup must be >= 2"),
            (self.var_floor > 0.0, "var_floor must be > 0"),
            (self.t1 >= 1 and self.t2 >= 1, "t1/t2 must be >= 1"),
            (self.m >= 2, "m must be >= 2"),
            (0.0 < self.v_interruption < self.v_normal_low < self.v_normal_high,
             "voltage bounds out of order"),
            (self.ts_s > 0 and self.t0_s > 0, "periods must be > 0"),
            (self.v_sustained_s > 0.0, "v_sustained_s must be > 0"),
            (self.slope_min >= 0.0, "slope_min must be >= 0"),
            (self.variance_ratio > 0.0, "variance_ratio must be > 0"),
            (self.trend_window >= 3, "trend_window must be >= 3"),
            (0 < self.port < 65536, "port out of range"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)


# file section/key -> Config field
_KEYMAP = {
    ("detector", "lambda_forget"): "lambda_forget",
    ("detector", "nu"): "nu",
    ("detector", "h"): "h",
    ("detector", "warmup"): "warmup",
    ("detector", "var_floor"): "var_floor",
    ("segmentation", "t1"): "t1",
    ("segmentation", "t2"): "t2",
    ("window", "m"): "m",
    ("voltage", "normal_low"): "v_normal_low",
    ("voltage", "normal_high"): "v_normal_high",
    ("voltage", "interruption"): "v_interruption",
    ("voltage", "sustained_s"): "v_sustained_s",
    ("voltage", "t0_s"): "t0_s",
    ("voltage", "ts_s"): "ts_s",
    ("trend", "slope_min"): "slope_min",
    ("trend", "variance_ratio"): "variance_ratio",
    ("trend", "window"): "trend_window",
    ("network", "port"): "port",
}

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(Config)}


def load_config(path: str | Path) -> Config:
    """Read a config file."""
    values: dict[str, object] = {}
    section = None
    for ln, rawline in enumerate(Path(path).read_text().splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key = value, got {rawline!r}")
        key, _, text = (part.strip() for part in line.partition("="))
        field = _KEYMAP.get((section, key))
        if field is None:
            raise ConfigError(f"line {ln}: unknown key [{section}] {key}")
        try:
            values[field] = int(text) if _FIELD_TYPES[field] == "int" else float(text)
        except ValueError:
            raise ConfigError(f"bad value for {field}: {text!r}")
    return Config(**values)
