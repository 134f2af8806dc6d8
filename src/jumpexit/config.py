"""Run-configuration file parsing and validation.

A run is described by one INI-style file with sections ``[kernel]``,
``[domain]``, ``[grid]``, ``[solver]``, ``[mc]``, ``[output]`` and optional
``[compare]`` / ``[paths]``. List values are JSON. The resolved
configuration (defaults included) is hashed; the CSVs, ``sigma.txt``,
``resolved.ini`` and ``verify_report.json`` echo the hash, so artifacts are
traceable to the exact run that made them.
"""

import configparser
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError
from .geometry import DomainPartition, Grid, Intervals, build_grid
from .kernels import (CompoundPoissonUniform, JumpKernel, TruncatedStable,
                      load_tabulated_csv)


FLOAT = "%.17g"  # every float an output file holds: 17 significant digits read back exactly


def on_step_grid(t: float, dt: float) -> bool:
    """Whether ``t`` is a whole number of steps ``dt``, to relative 1e-9."""
    return abs(round(t / dt) * dt - t) <= 1e-9 * t


_DEFAULTS = {
    "solver": {"scheme": "implicit_euler", "dt": 0.01, "t_end": 50.0, "k_max": 1},
    "mc": {"n_paths": 10000, "seed": 0, "t_max": None},
    "compare": {"checkpoints": [1.0, 5.0, 10.0, 25.0, 50.0]},
    "paths": {"n_paths": 5, "free_space": True, "brownian": False, "n_steps": 2000},
}


@dataclass(eq=False)
class RunConfig:
    """Validated configuration with constructed kernel, partition, grid."""

    kernel: JumpKernel
    partition: DomainPartition
    h: float
    dt: float
    t_end: float
    k_max: int
    n_paths: int
    seed: int
    t_max: float | None
    checkpoints: list[float]
    paths_n: int
    paths_free_space: bool
    paths_brownian: bool
    paths_n_steps: int
    out_dir: Path
    resolved: dict
    config_hash: str

    def build_grid(self) -> Grid:
        return build_grid(self.partition, self.h)


def _get(cp, section, key, cast, default=...):
    if not cp.has_section(section) or not cp.has_option(section, key):
        if default is ...:
            raise ConfigurationError(f"missing required key [{section}] {key}")
        return default
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc


def _float(raw: str) -> float:
    """A float key's value; every such key but ``[mc] t_max`` must be finite."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _check_numbers(key: str, values) -> None:
    """Refuse a boolean or a string among ``values``, taken from JSON:
    ``float`` would read ``true`` as 1 and ``"2.5"`` as 2.5."""
    for v in values:
        if isinstance(v, (bool, str)):
            raise ConfigurationError(f"{key} must be numbers, got {v!r}")


def _bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _build_kernel(cp) -> tuple[JumpKernel, dict]:
    family = _get(cp, "kernel", "family", str).strip()
    horizon = _get(cp, "kernel", "lambda", _float)
    resolved = {"family": family, "lambda": horizon}
    if family == "compound_poisson_uniform":
        rate = _get(cp, "kernel", "rate", _float)
        resolved["rate"] = rate
        return CompoundPoissonUniform(rate=rate, horizon=horizon), resolved
    if family == "truncated_stable":
        alpha = _get(cp, "kernel", "alpha", _float)
        m = _get(cp, "kernel", "m", _float)
        epsilon = _get(cp, "kernel", "epsilon", _float, 1e-3)
        resolved.update(alpha=alpha, m=m, epsilon=epsilon)
        return TruncatedStable(alpha=alpha, m=m, horizon=horizon, epsilon=epsilon), resolved
    if family == "custom_tabulated":
        table_path = _get(cp, "kernel", "table_path", str)
        resolved["table_path"] = table_path
        return load_tabulated_csv(table_path, horizon=horizon), resolved
    raise ConfigurationError(
        f"unknown kernel family {family!r}; expected compound_poisson_uniform, "
        "truncated_stable, or custom_tabulated"
    )


def _build_partition(cp, horizon: float) -> tuple[DomainPartition, dict]:
    omega = _get(cp, "domain", "omega", json.loads)
    if (not isinstance(omega, list) or not omega
            or not all(isinstance(p, list) and len(p) == 2 for p in omega)):
        raise ConfigurationError(f"[domain] omega must be a list of [lo, hi] pairs, got {omega!r}")
    _check_numbers("[domain] omega endpoints", (v for pair in omega for v in pair))
    omega_d_raw = _get(cp, "domain", "omega_d", str, "full").strip()
    if omega_d_raw in ("full", "empty"):
        absorbing = omega_d_raw
    else:
        try:
            pairs = json.loads(omega_d_raw)
            _check_numbers("[domain] omega_d endpoints", (v for pair in pairs for v in pair))
        except (json.JSONDecodeError, TypeError) as exc:
            raise ConfigurationError(
                f"[domain] omega_d must be 'full', 'empty', or interval pairs: {exc}"
            ) from exc
        absorbing = Intervals.from_pairs(pairs)
    partition = DomainPartition.build(omega, horizon=horizon, absorbing=absorbing)
    resolved = {"omega": omega, "omega_d": omega_d_raw}
    return partition, resolved


def _output_dir(cp) -> Path:
    return Path(cp.get("output", "dir", fallback="out"))


def configured_output_dir(path) -> Path | None:
    """The output directory a config file names, ``out`` when it names none,
    read without validating the rest of the file, so that a config that
    ``load_config`` rejects can still report its error there. None when the
    file cannot be read or parsed."""
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            return None
        return _output_dir(cp)
    except (configparser.Error, UnicodeDecodeError):
        return None


def load_config(path, out_dir=None, seed=None) -> RunConfig:
    """Parse, validate, and resolve a configuration file.

    ``out_dir`` and ``seed`` override the file (CLI flags).
    """
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    for section in ("kernel", "domain", "grid"):
        if not cp.has_section(section):
            raise ConfigurationError(f"config is missing the [{section}] section")

    kernel, kres = _build_kernel(cp)
    partition, dres = _build_partition(cp, kernel.horizon)
    h = _get(cp, "grid", "h", _float)
    if h <= 0:
        raise ConfigurationError("[grid] h must be positive")
    if h > kernel.horizon / 4 * (1 + 1e-12):
        raise ConfigurationError(
            f"[grid] h = {h} exceeds lambda/4 = {kernel.horizon / 4}: the jump "
            "range must span at least four cells"
        )

    d = _DEFAULTS["solver"]
    scheme = _get(cp, "solver", "scheme", str, d["scheme"]).strip()
    dt = _get(cp, "solver", "dt", _float, d["dt"])
    t_end = _get(cp, "solver", "t_end", _float, d["t_end"])
    k_max = _get(cp, "solver", "k_max", int, d["k_max"])
    if scheme != "implicit_euler":
        raise ConfigurationError(
            f"[solver] scheme must be implicit_euler, the only integrator "
            f"(Crank-Nicolson was removed), got {scheme!r}")
    if dt <= 0 or t_end <= 0 or k_max < 1:
        raise ConfigurationError("[solver] dt and t_end must be positive, k_max >= 1")
    if not on_step_grid(t_end, dt):
        raise ConfigurationError(f"[solver] t_end = {t_end} is not a whole number of steps dt = {dt}")

    d = _DEFAULTS["mc"]
    n_paths = _get(cp, "mc", "n_paths", int, d["n_paths"])
    cfg_seed = _get(cp, "mc", "seed", int, d["seed"])
    t_max = _get(cp, "mc", "t_max", float, d["t_max"])
    if n_paths < 1:
        raise ConfigurationError("[mc] n_paths must be at least 1")
    if t_max is not None and not t_max > 0:  # inf stays: an absorbed walk ends anyway
        raise ConfigurationError(f"[mc] t_max must be positive, got {t_max}")
    if seed is not None:
        cfg_seed = int(seed)
    if cfg_seed < 0:
        raise ConfigurationError("[mc] seed must be nonnegative")

    # the defaults a shorter or coarser run cannot reach give way, down to [t_end]
    default = [t for t in _DEFAULTS["compare"]["checkpoints"]
               if t <= t_end and on_step_grid(t, dt)] or [t_end]
    checkpoints = _get(cp, "compare", "checkpoints", json.loads, default)
    if not isinstance(checkpoints, list) or not checkpoints:
        raise ConfigurationError(f"[compare] checkpoints must be a nonempty list, got {checkpoints!r}")
    _check_numbers("[compare] checkpoints", checkpoints)
    try:
        checkpoints = [float(t) for t in checkpoints]
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"[compare] checkpoints must be numbers: {exc}") from exc
    if not all(0 <= t <= t_end for t in checkpoints):
        raise ConfigurationError(f"[compare] checkpoints must lie in [0, t_end], got {checkpoints}")
    off_grid = [t for t in checkpoints if not on_step_grid(t, dt)]
    if off_grid:
        raise ConfigurationError(
            f"[compare] checkpoints {off_grid} are not whole multiples of dt = {dt}")

    d = _DEFAULTS["paths"]
    paths_n = _get(cp, "paths", "n_paths", int, d["n_paths"])
    paths_free = _get(cp, "paths", "free_space", _bool, d["free_space"])
    paths_brownian = _get(cp, "paths", "brownian", _bool, d["brownian"])
    paths_steps = _get(cp, "paths", "n_steps", int, d["n_steps"])
    if paths_n < 1 or paths_steps < 1:
        raise ConfigurationError("[paths] n_paths and n_steps must be at least 1")

    out = Path(out_dir) if out_dir is not None else _output_dir(cp)

    resolved = {
        "kernel": kres,
        "domain": dres,
        "grid": {"h": h},
        "solver": {"scheme": scheme, "dt": dt, "t_end": t_end, "k_max": k_max},
        "mc": {"n_paths": n_paths, "seed": cfg_seed, "t_max": t_max},
        "compare": {"checkpoints": checkpoints},
        "paths": {"n_paths": paths_n, "free_space": paths_free,
                  "brownian": paths_brownian, "n_steps": paths_steps},
    }
    _check_known_keys(cp, resolved)
    cfg_hash = config_hash(resolved)
    return RunConfig(
        kernel=kernel, partition=partition, h=h,
        dt=dt, t_end=t_end, k_max=k_max,
        n_paths=n_paths, seed=cfg_seed, t_max=t_max,
        checkpoints=checkpoints,
        paths_n=paths_n, paths_free_space=paths_free,
        paths_brownian=paths_brownian, paths_n_steps=paths_steps,
        out_dir=out, resolved=resolved, config_hash=cfg_hash,
    )


def _check_known_keys(cp, resolved: dict) -> None:
    """Refuse a section or key the run does not read: the keys of each
    resolved section (the kernel's by its family) and ``[output] dir``.
    A misspelt key would otherwise run on its default unnoticed."""
    known = {section: set(items) for section, items in resolved.items()}
    known["output"] = {"dir"}
    for section in cp.sections():
        if section not in known:
            raise ConfigurationError(f"unknown config section [{section}] "
                                     f"(keys {', '.join(cp.options(section))})")
        for key in cp.options(section):
            if key not in known[section]:
                raise ConfigurationError(f"unknown key [{section}] {key}")


def config_hash(resolved: dict) -> str:
    """Stable 16-hex digest of the resolved configuration."""
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_resolved(cfg: RunConfig, path) -> None:
    """Write the fully resolved configuration (defaults included) so a run
    directory is self-describing, and reloads with the same hash. A key left
    unset (None, such as a derived ``[mc] t_max``) is omitted."""
    cp = configparser.ConfigParser()
    for section, items in cfg.resolved.items():
        cp[section] = {}
        for key, val in items.items():
            if val is not None:
                cp[section][key] = json.dumps(val) if isinstance(val, (list, dict)) else str(val)
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg.config_hash}\n")
        cp.write(fh)
