"""Run configuration: JSON ingestion with field-level validation.

Unknown keys are rejected.  Unit conversions happen here and nowhere
else: with ``gamma_convention = "cycles"`` the ``gamma`` value is a
cycle frequency in kHz/mG and is multiplied by 2*pi*1e6 on ingestion;
with ``"angular"`` it is already rad s^-1 G^-1.
"""

from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass, field, replace

from .core import INFINITE, PhysicalParams, TimeGrid, gamma_from_cycles, make_grid, validate_params
from .montecarlo import ESTIMATOR_NAMES, sorted_j_values

GAMMA_CONVENTIONS = ("angular", "cycles")

_PARAM_KEYS = {
    "j_total", "gamma", "gamma_convention", "b_true", "meas_strength",
    "efficiency", "prior_b_variance", "t_total",
}
_GRID_KEYS = {"dt", "log_prefix", "prefix_ratio", "prefix_safety"}
_ENSEMBLE_KEYS = {"n_traj", "estimators", "checkpoints_per_decade", "first_checkpoint",
                  "checkpoint_times", "mse_ratio_window"}
_SCALING_KEYS = {"j_values", "t_check", "n_traj", "slope_window", "shotnoise_slope_tol"}
_ORACLE_KEYS = {"j_small", "mt_max", "dephasing_j", "mean_threshold_frac", "dephasing_tol"}
_TOP_KEYS = _PARAM_KEYS | {"grid", "ensemble", "scaling", "oracle", "seed", "lowpass_cutoff_hz"}


class ConfigError(ValueError):
    """Configuration document rejected; message carries the field path."""


@dataclass(frozen=True)
class GridConfig:
    dt: float | None = None
    log_prefix: str | bool = "auto"
    prefix_ratio: float = 1.2
    prefix_safety: float = 0.2


@dataclass(frozen=True)
class EnsembleConfig:
    n_traj: int = 10_000
    estimators: tuple = ("qkf", "regression")
    checkpoints_per_decade: int = 30
    first_checkpoint: float | None = None
    checkpoint_times: tuple = ()
    mse_ratio_window: tuple = (0.9, 1.1)


@dataclass(frozen=True)
class ScalingConfig:
    j_values: tuple = (1e4, 1e5, 1e6, 4e6)
    t_check: float | None = None
    n_traj: int = 2000
    slope_window: tuple = (-1.05, -0.95)
    shotnoise_slope_tol: float = 1e-9


@dataclass(frozen=True)
class OracleConfig:
    j_small: float = 10.0
    mt_max: float = 0.1
    dephasing_j: float = 5.0
    mean_threshold_frac: float = 0.05
    dephasing_tol: float = 0.01


@dataclass(frozen=True)
class RunConfig:
    params: PhysicalParams
    gamma_convention: str = "angular"
    gamma_raw: float = 0.0  # the document's gamma value, pre-conversion
    grid: GridConfig = field(default_factory=GridConfig)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    scaling: ScalingConfig = field(default_factory=ScalingConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    seed: int = 0
    lowpass_cutoff_hz: float | None = None

    def make_grid(self, params: PhysicalParams | None = None) -> TimeGrid:
        """The grid section's grid for ``params`` (default: the config's own)."""
        return make_grid(self.params if params is None else params,
                         dt=self.grid.dt, prefix=self.grid.log_prefix,
                         prefix_ratio=self.grid.prefix_ratio,
                         prefix_safety=self.grid.prefix_safety)

    def resolved_dict(self) -> dict:
        """Full resolved configuration for run artifacts (audit echo)."""
        p = self.params
        return {
            "params": {
                "j_total": p.j_total, "gamma": p.gamma, "b_true": p.b_true,
                "meas_strength": p.meas_strength, "efficiency": p.efficiency,
                "prior_b_variance": ("infinite" if math.isinf(p.prior_b_variance)
                                     else p.prior_b_variance),
                "t_total": p.t_total,
            },
            "gamma_convention": self.gamma_convention,
            "gamma_raw": self.gamma_raw,
            "grid": {"dt": self.grid.dt, "log_prefix": self.grid.log_prefix,
                     "prefix_ratio": self.grid.prefix_ratio,
                     "prefix_safety": self.grid.prefix_safety},
            "ensemble": {"n_traj": self.ensemble.n_traj,
                         "estimators": list(self.ensemble.estimators),
                         "checkpoints_per_decade": self.ensemble.checkpoints_per_decade,
                         "first_checkpoint": self.ensemble.first_checkpoint,
                         "checkpoint_times": list(self.ensemble.checkpoint_times),
                         "mse_ratio_window": list(self.ensemble.mse_ratio_window)},
            "scaling": {"j_values": list(self.scaling.j_values),
                        "t_check": self.scaling.t_check, "n_traj": self.scaling.n_traj,
                        "slope_window": list(self.scaling.slope_window),
                        "shotnoise_slope_tol": self.scaling.shotnoise_slope_tol},
            "oracle": {"j_small": self.oracle.j_small, "mt_max": self.oracle.mt_max,
                       "dephasing_j": self.oracle.dephasing_j,
                       "mean_threshold_frac": self.oracle.mean_threshold_frac,
                       "dephasing_tol": self.oracle.dephasing_tol},
            "seed": self.seed,
            "lowpass_cutoff_hz": self.lowpass_cutoff_hz,
        }


def _number(doc: dict, key: str, where: str, required: bool = True, default=None):
    if key not in doc:
        if required:
            raise ConfigError(f"{where}: missing required key '{key}'")
        return default
    v = doc[key]
    if not _is_number(v):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    return float(v)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_positive(v) -> bool:
    return _is_number(v) and 0 < v < math.inf


def _positive(doc: dict, key: str, where: str, default=None):
    """Optional finite number > 0 (``default`` when absent)."""
    if key in doc and not _is_positive(doc[key]):
        raise ConfigError(f"{where}.{key}: expected a positive number, got {doc[key]!r}")
    return _number(doc, key, where, required=False, default=default)


def _positive_list(doc: dict, key: str, where: str, default: tuple) -> tuple:
    v = doc.get(key, default)
    if not (isinstance(v, (list, tuple)) and all(_is_positive(x) for x in v)):
        raise ConfigError(f"{where}.{key}: expected a list of positive numbers, got {v!r}")
    return tuple(v)


def _window(doc: dict, key: str, where: str, default: tuple) -> tuple:
    v = doc.get(key, default)
    if not (isinstance(v, (list, tuple)) and len(v) == 2 and all(_is_number(x) for x in v)
            and v[0] < v[1]):
        raise ConfigError(f"{where}.{key}: expected [lo, hi], two numbers with lo < hi, "
                          f"got {v!r}")
    return tuple(v)


def _integer(doc: dict, key: str, where: str, default: int, least: int) -> int:
    v = _number(doc, key, where, required=False, default=default)
    if not (v >= least and float(v).is_integer()):
        raise ConfigError(f"{where}.{key}: expected an integer >= {least}, got {doc[key]!r}")
    return int(v)


def parse_config(text: str) -> RunConfig:
    """Parse a JSON configuration document into a validated RunConfig."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"top level: unknown keys {sorted(unknown)}")

    convention = doc.get("gamma_convention", "angular")
    if convention not in GAMMA_CONVENTIONS:
        raise ConfigError(f"gamma_convention: must be one of {GAMMA_CONVENTIONS}")
    gamma_raw = _number(doc, "gamma", "params")
    try:
        gamma = gamma_from_cycles(gamma_raw) if convention == "cycles" else gamma_raw
    except ValueError as exc:
        raise ConfigError(f"params.gamma: {exc}, got {gamma_raw!r}") from exc

    prior_raw = doc.get("prior_b_variance")
    if prior_raw is None:
        raise ConfigError("params: missing required key 'prior_b_variance'")
    if isinstance(prior_raw, str):
        if prior_raw.lower() not in ("infinite", "inf"):
            raise ConfigError("prior_b_variance: number or the string 'infinite'")
        prior = INFINITE
    elif isinstance(prior_raw, (int, float)) and not isinstance(prior_raw, bool):
        prior = float(prior_raw)
    else:
        raise ConfigError("prior_b_variance: number or the string 'infinite'")

    params = PhysicalParams(
        j_total=_number(doc, "j_total", "params"),
        gamma=gamma,
        b_true=_number(doc, "b_true", "params"),
        meas_strength=_number(doc, "meas_strength", "params"),
        efficiency=_number(doc, "efficiency", "params"),
        prior_b_variance=prior,
        t_total=_number(doc, "t_total", "params"),
    )
    try:
        validate_params(params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict):
        raise ConfigError("grid: expected an object")
    if set(grid_doc) - _GRID_KEYS:
        raise ConfigError(f"grid: unknown keys {sorted(set(grid_doc) - _GRID_KEYS)}")
    log_prefix = grid_doc.get("log_prefix", "auto")
    if log_prefix not in ("auto", True, False):
        raise ConfigError("grid.log_prefix: expected 'auto', true, or false")
    prefix_ratio = _number(grid_doc, "prefix_ratio", "grid", required=False, default=1.2)
    if not 1.0 < prefix_ratio < math.inf:  # the prefix's steps must grow
        raise ConfigError(f"grid.prefix_ratio: expected a finite number > 1, "
                          f"got {grid_doc['prefix_ratio']!r}")
    grid = GridConfig(
        dt=_positive(grid_doc, "dt", "grid"),
        log_prefix=log_prefix,
        prefix_ratio=prefix_ratio,
        prefix_safety=_positive(grid_doc, "prefix_safety", "grid", default=0.2),
    )

    ens_doc = doc.get("ensemble", {})
    if not isinstance(ens_doc, dict):
        raise ConfigError("ensemble: expected an object")
    if set(ens_doc) - _ENSEMBLE_KEYS:
        raise ConfigError(f"ensemble: unknown keys {sorted(set(ens_doc) - _ENSEMBLE_KEYS)}")
    estimators = ens_doc.get("estimators", ESTIMATOR_NAMES)
    if not (isinstance(estimators, (list, tuple)) and estimators
            and all(e in ESTIMATOR_NAMES for e in estimators)
            and len(set(estimators)) == len(estimators)):
        raise ConfigError(f"ensemble.estimators: expected a list of distinct names from "
                          f"{list(ESTIMATOR_NAMES)}, got {estimators!r}")
    ensemble = EnsembleConfig(
        n_traj=_integer(ens_doc, "n_traj", "ensemble", 10_000, least=2),
        estimators=tuple(estimators),
        checkpoints_per_decade=_integer(ens_doc, "checkpoints_per_decade", "ensemble", 30,
                                        least=1),
        first_checkpoint=_positive(ens_doc, "first_checkpoint", "ensemble"),
        checkpoint_times=_positive_list(ens_doc, "checkpoint_times", "ensemble", ()),
        mse_ratio_window=_window(ens_doc, "mse_ratio_window", "ensemble", (0.9, 1.1)),
    )

    sc_doc = doc.get("scaling", {})
    if not isinstance(sc_doc, dict):
        raise ConfigError("scaling: expected an object")
    if set(sc_doc) - _SCALING_KEYS:
        raise ConfigError(f"scaling: unknown keys {sorted(set(sc_doc) - _SCALING_KEYS)}")
    j_values = _positive_list(sc_doc, "j_values", "scaling", (1e4, 1e5, 1e6, 4e6))
    try:
        sorted_j_values(j_values)
    except ValueError as exc:
        raise ConfigError(f"scaling.j_values: {exc}, got {list(j_values)!r}") from exc
    scaling = ScalingConfig(
        j_values=j_values,
        t_check=_positive(sc_doc, "t_check", "scaling"),
        n_traj=_integer(sc_doc, "n_traj", "scaling", 2000, least=2),
        slope_window=_window(sc_doc, "slope_window", "scaling", (-1.05, -0.95)),
        shotnoise_slope_tol=_number(sc_doc, "shotnoise_slope_tol", "scaling",
                                    required=False, default=1e-9),
    )

    or_doc = doc.get("oracle", {})
    if not isinstance(or_doc, dict):
        raise ConfigError("oracle: expected an object")
    if set(or_doc) - _ORACLE_KEYS:
        raise ConfigError(f"oracle: unknown keys {sorted(set(or_doc) - _ORACLE_KEYS)}")
    oracle = OracleConfig(
        j_small=_number(or_doc, "j_small", "oracle", required=False, default=10.0),
        mt_max=_number(or_doc, "mt_max", "oracle", required=False, default=0.1),
        dephasing_j=_number(or_doc, "dephasing_j", "oracle", required=False, default=5.0),
        mean_threshold_frac=_number(or_doc, "mean_threshold_frac", "oracle",
                                    required=False, default=0.05),
        dephasing_tol=_number(or_doc, "dephasing_tol", "oracle", required=False, default=0.01),
    )

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not (0 <= seed < 2**64):
        raise ConfigError("seed: expected a 64-bit non-negative integer")

    return RunConfig(
        params=params, gamma_convention=convention, gamma_raw=gamma_raw,
        grid=grid, ensemble=ensemble, scaling=scaling, oracle=oracle, seed=seed,
        lowpass_cutoff_hz=_positive(doc, "lowpass_cutoff_hz", "top"),
    )


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def load_preset(name: str) -> RunConfig:
    """Shipped presets: fig1, fig2, scaling, oracle."""
    res = importlib.resources.files("qkfmag").joinpath("presets", f"{name}.json")
    try:
        text = res.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ConfigError(f"no preset named {name!r}") from exc
    return parse_config(text)


def override(cfg: RunConfig, seed: int | None = None, n_traj: int | None = None,
             gamma_convention: str | None = None) -> RunConfig:
    """Apply CLI-level overrides; gamma is re-converted from its raw value."""
    out = cfg
    if seed is not None:
        if not (0 <= seed < 2**64):
            raise ConfigError("seed: expected a 64-bit non-negative integer")
        out = replace(out, seed=seed)
    if n_traj is not None:
        if n_traj < 2:
            raise ConfigError(f"ensemble.n_traj, scaling.n_traj: must be >= 2, got {n_traj}")
        out = replace(out, ensemble=replace(out.ensemble, n_traj=n_traj),
                      scaling=replace(out.scaling, n_traj=n_traj))
    if gamma_convention is not None and gamma_convention != out.gamma_convention:
        if gamma_convention not in GAMMA_CONVENTIONS:
            raise ConfigError(f"gamma_convention: must be one of {GAMMA_CONVENTIONS}")
        gamma = (gamma_from_cycles(out.gamma_raw) if gamma_convention == "cycles"
                 else out.gamma_raw)
        out = replace(out, gamma_convention=gamma_convention,
                      params=replace(out.params, gamma=gamma))
    return out
