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
from dataclasses import asdict, dataclass, field, fields, replace

from .core import INFINITE, GridConfig, PhysicalParams, TimeGrid, gamma_from_cycles, make_grid
from .montecarlo import ESTIMATOR_NAMES, sorted_j_values
from .sme_oracle import MAX_DENSE_J

GAMMA_CONVENTIONS = ("angular", "cycles")


class ConfigError(ValueError):
    """Configuration document rejected; message carries the field path."""


@dataclass(frozen=True)
class EnsembleConfig:
    n_traj: int = 10_000
    estimators: tuple = ESTIMATOR_NAMES
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


@dataclass(frozen=True)
class OracleConfig:
    j_small: float = 10.0
    mt_max: float = 0.1


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

    def make_grid(self, params: PhysicalParams | None = None) -> TimeGrid:
        """The grid section's grid for ``params`` (default: the config's own)."""
        return make_grid(self.params if params is None else params,
                         dt=self.grid.dt, prefix=self.grid.log_prefix)

    def resolved_dict(self) -> dict:
        """Full resolved configuration for run artifacts (audit echo)."""
        out = asdict(self)
        if math.isinf(self.params.prior_b_variance):
            out["params"]["prior_b_variance"] = "infinite"
        return out


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


# the document's top level: the physical parameters and every RunConfig field
# except the two that parsing derives
_TOP_KEYS = _field_names(PhysicalParams) | _field_names(RunConfig) - {"params", "gamma_raw"}


def _number(doc: dict, key: str, where: str, required: bool = True):
    if key not in doc:
        if required:
            raise ConfigError(f"{where}: missing required key '{key}'")
        return None
    v = doc[key]
    if not _is_number(v):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    return float(v)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_positive(v) -> bool:
    return _is_number(v) and 0 < v < math.inf


def _positive(doc: dict, key: str, where: str):
    """Optional finite number > 0 (None when absent)."""
    if key in doc and not _is_positive(doc[key]):
        raise ConfigError(f"{where}.{key}: expected a positive number, got {doc[key]!r}")
    return _number(doc, key, where, required=False)


def _positive_list(doc: dict, key: str, where: str) -> tuple:
    v = doc[key]
    if not (isinstance(v, (list, tuple)) and all(_is_positive(x) for x in v)):
        raise ConfigError(f"{where}.{key}: expected a list of positive numbers, got {v!r}")
    return tuple(v)


def _window(doc: dict, key: str, where: str) -> tuple:
    v = doc[key]
    if not (isinstance(v, (list, tuple)) and len(v) == 2 and all(_is_number(x) for x in v)
            and v[0] < v[1]):
        raise ConfigError(f"{where}.{key}: expected [lo, hi], two numbers with lo < hi, "
                          f"got {v!r}")
    return tuple(v)


def _integer(doc: dict, key: str, where: str, least: int) -> int:
    v = _number(doc, key, where)
    if not (v >= least and float(v).is_integer()):
        raise ConfigError(f"{where}.{key}: expected an integer >= {least}, got {doc[key]!r}")
    return int(v)


def _section(doc: dict, name: str, cls) -> dict:
    """The document's object ``name`` with ``cls``'s fields as its only keys.

    Absent keys take ``cls``'s defaults, except that a None default stays
    absent: the document has no spelling for "not set".
    """
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: expected an object")
    unknown = set(sec) - _field_names(cls)
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
    return {**{f.name: f.default for f in fields(cls) if f.default is not None}, **sec}


def _spin(doc: dict, key: str, where: str, most: float) -> float:
    """Spin: a positive half-integer, at most ``most``."""
    v = _number(doc, key, where)
    if not (0 < v <= most and (2 * v).is_integer()):
        raise ConfigError(f"{where}.{key}: expected a positive half-integer <= {most:g}, "
                          f"got {doc[key]!r}")
    return v


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

    convention = doc.get("gamma_convention", RunConfig.gamma_convention)
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
    # a zero prior leaves nothing to estimate
    prior = INFINITE if str(prior_raw).lower() in ("infinite", "inf") else prior_raw
    if not (_is_number(prior) and prior > 0):
        raise ConfigError(f"params.prior_b_variance: expected a positive number or 'infinite', "
                          f"got {prior_raw!r}")

    numbers = {k: _number(doc, k, "params")
               for k in ("j_total", "b_true", "meas_strength", "efficiency", "t_total")}
    try:
        params = PhysicalParams(gamma=gamma, prior_b_variance=float(prior), **numbers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    grid_doc = _section(doc, "grid", GridConfig)
    log_prefix = grid_doc["log_prefix"]
    if log_prefix not in ("auto", True, False):
        raise ConfigError("grid.log_prefix: expected 'auto', true, or false")
    grid = GridConfig(dt=_positive(grid_doc, "dt", "grid"), log_prefix=log_prefix)

    ens_doc = _section(doc, "ensemble", EnsembleConfig)
    estimators = ens_doc["estimators"]
    if not (isinstance(estimators, (list, tuple)) and estimators
            and all(e in ESTIMATOR_NAMES for e in estimators)
            and len(set(estimators)) == len(estimators)):
        raise ConfigError(f"ensemble.estimators: expected a list of distinct names from "
                          f"{list(ESTIMATOR_NAMES)}, got {estimators!r}")
    ensemble = EnsembleConfig(
        n_traj=_integer(ens_doc, "n_traj", "ensemble", least=2),
        estimators=tuple(estimators),
        checkpoints_per_decade=_integer(ens_doc, "checkpoints_per_decade", "ensemble", least=1),
        first_checkpoint=_positive(ens_doc, "first_checkpoint", "ensemble"),
        checkpoint_times=_positive_list(ens_doc, "checkpoint_times", "ensemble"),
        mse_ratio_window=_window(ens_doc, "mse_ratio_window", "ensemble"),
    )
    if (ensemble.first_checkpoint or 0.0) >= params.t_total:
        raise ConfigError(f"ensemble.first_checkpoint: expected a time below t_total = "
                          f"{params.t_total!r} s, got {ensemble.first_checkpoint!r}")

    sc_doc = _section(doc, "scaling", ScalingConfig)
    j_values = _positive_list(sc_doc, "j_values", "scaling")
    try:
        sorted_j_values(j_values)
    except ValueError as exc:
        raise ConfigError(f"scaling.j_values: {exc}, got {list(j_values)!r}") from exc
    scaling = ScalingConfig(
        j_values=j_values,
        t_check=_positive(sc_doc, "t_check", "scaling"),
        n_traj=_integer(sc_doc, "n_traj", "scaling", least=2),
        slope_window=_window(sc_doc, "slope_window", "scaling"),
    )

    or_doc = _section(doc, "oracle", OracleConfig)
    oracle = OracleConfig(
        j_small=_spin(or_doc, "j_small", "oracle", most=MAX_DENSE_J),
        mt_max=_positive(or_doc, "mt_max", "oracle"),
    )

    seed = doc.get("seed", RunConfig.seed)
    if not isinstance(seed, int) or isinstance(seed, bool) or not (0 <= seed < 2**64):
        raise ConfigError("seed: expected a 64-bit non-negative integer")

    return RunConfig(
        params=params, gamma_convention=convention, gamma_raw=gamma_raw,
        grid=grid, ensemble=ensemble, scaling=scaling, oracle=oracle, seed=seed,
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
