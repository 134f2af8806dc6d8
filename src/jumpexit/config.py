"""Run-configuration file parsing and validation.

A run is described by one INI-style file with sections ``[kernel]``,
``[domain]``, ``[grid]``, ``[solver]``, ``[mc]``, ``[output]`` and optional
``[compare]`` / ``[paths]``. List values are JSON. The resolved
configuration (defaults included) is hashed; every output file echoes the
hash so artifacts are traceable to the exact run that made them.
"""

import configparser
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError
from .geometry import DomainPartition, Grid, Intervals, build_grid
from .kernels import (CompoundPoissonUniform, JumpKernel, TruncatedStable,
                      load_tabulated_csv)
from .solver import on_step_grid

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


def _bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _build_kernel(cp) -> tuple[JumpKernel, dict]:
    family = _get(cp, "kernel", "family", str).strip()
    horizon = _get(cp, "kernel", "lambda", float)
    resolved = {"family": family, "lambda": horizon}
    if family == "compound_poisson_uniform":
        rate = _get(cp, "kernel", "rate", float)
        resolved["rate"] = rate
        return CompoundPoissonUniform(rate=rate, horizon=horizon), resolved
    if family == "truncated_stable":
        alpha = _get(cp, "kernel", "alpha", float)
        m = _get(cp, "kernel", "m", float)
        epsilon = _get(cp, "kernel", "epsilon", float, 1e-3)
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
    omega_d_raw = _get(cp, "domain", "omega_d", str, "full").strip()
    if omega_d_raw in ("full", "empty"):
        absorbing = omega_d_raw
    else:
        try:
            pairs = json.loads(omega_d_raw)
        except json.JSONDecodeError as exc:
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
    read = cp.read(path)
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    for section in ("kernel", "domain", "grid"):
        if not cp.has_section(section):
            raise ConfigurationError(f"config is missing the [{section}] section")

    kernel, kres = _build_kernel(cp)
    partition, dres = _build_partition(cp, kernel.horizon)
    h = _get(cp, "grid", "h", float)
    if h <= 0:
        raise ConfigurationError("[grid] h must be positive")
    if h > kernel.horizon / 4 * (1 + 1e-12):
        raise ConfigurationError(
            f"[grid] h = {h} exceeds lambda/4 = {kernel.horizon / 4}: the jump "
            "range must span at least four cells"
        )

    d = _DEFAULTS["solver"]
    scheme = _get(cp, "solver", "scheme", str, d["scheme"]).strip()
    dt = _get(cp, "solver", "dt", float, d["dt"])
    t_end = _get(cp, "solver", "t_end", float, d["t_end"])
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
    if seed is not None:
        cfg_seed = int(seed)
    if cfg_seed < 0:
        raise ConfigurationError("[mc] seed must be nonnegative")

    d = _DEFAULTS["compare"]
    checkpoints = _get(cp, "compare", "checkpoints", json.loads, d["checkpoints"]) \
        if cp.has_section("compare") else d["checkpoints"]
    checkpoints = [float(t) for t in checkpoints]
    if any(t < 0 or t > t_end for t in checkpoints):
        raise ConfigurationError(f"[compare] checkpoints must lie in [0, t_end], got {checkpoints}")
    off_grid = [t for t in checkpoints if not on_step_grid(t, dt)]
    if off_grid:
        raise ConfigurationError(
            f"[compare] checkpoints {off_grid} are not whole multiples of dt = {dt}")

    d = _DEFAULTS["paths"]
    has_paths = cp.has_section("paths")
    paths_n = _get(cp, "paths", "n_paths", int, d["n_paths"]) if has_paths else d["n_paths"]
    paths_free = _get(cp, "paths", "free_space", _bool, d["free_space"]) if has_paths else d["free_space"]
    paths_brownian = _get(cp, "paths", "brownian", _bool, d["brownian"]) if has_paths else d["brownian"]
    paths_steps = _get(cp, "paths", "n_steps", int, d["n_steps"]) if has_paths else d["n_steps"]

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


def config_hash(resolved: dict) -> str:
    """Stable 16-hex digest of the resolved configuration."""
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_resolved(cfg: RunConfig, path) -> None:
    """Write the fully resolved configuration (defaults included) so a run
    directory is self-describing."""
    cp = configparser.ConfigParser()
    for section, items in cfg.resolved.items():
        cp[section] = {}
        for key, val in items.items():
            cp[section][key] = json.dumps(val) if isinstance(val, (list, dict)) else str(val)
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg.config_hash}\n")
        cp.write(fh)
