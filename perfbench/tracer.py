"""In-memory span recorder attached to jumpexit from the benchmark's side.

Each public entry point that the CLI resolves at call time (a module
attribute such as ``jumpexit.operators.assemble``, or the
``quadrature_values`` method of a kernel class) is replaced by a wrapper
that opens a span, calls the original, closes the span and then reads a
few exact counts off the arguments or the result. Counts are read after
the span has closed, so they cost no span time.

Spans live in memory as plain dicts (id, parent, trace, name, start, end,
counts) and are written out by the caller when the run ends. Spans opened
inside Monte Carlo worker processes are lost with the workers.
"""

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.trace_id = 0
        self._stack: list[dict] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "trace": self.trace_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "start": time.perf_counter(), "end": None,
                "counts": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` (a module function or a class's own
        method) by a spanning wrapper; ``count(result, args, kwargs)``
        returns exact counts to attach to the span."""
        original = vars(owner)[attr]

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span["counts"].update(count(result, args, kwargs))
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.
    Children of one span never overlap: the traced code is single-threaded."""
    out = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= duration(s)
    return out


def _path_jumps(path, args, kwargs) -> dict:
    t_max = args[3] if len(args) > 3 else kwargs["t_max"]
    n = path.times.size - 1
    if path.times[-1] >= t_max:  # the closing censor point is not a jump
        n -= 1
    return {"path_jumps": n}


def _ensemble_counts(ens, args, kwargs) -> dict:
    return {"paths": int(ens.n_paths), "jumps": int(ens.jumps.sum()),
            "censored": int(ens.censored.sum())}


def _lu_fill(moments, args, kwargs) -> dict:
    lu = args[0].generator_solver()  # cached by the call that just returned
    return {"lu_fill": int(lu.L.nnz + lu.U.nnz)}


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark reports on."""
    from jumpexit import cli, config, kernels, operators, solver
    from jumpexit import montecarlo as mc

    tracer.wrap(cli, "load_config", "config.load_config")
    tracer.wrap(config, "build_grid", "geometry.build_grid",
                lambda g, a, k: {"cells": int(g.n_cells)})
    tracer.wrap(operators, "assemble", "operators.assemble",
                lambda op, a, k: {"nnz": int(op.a_star.nnz)})
    for check in ("adjoint_check", "balance_check", "divergence_theorem_check"):
        tracer.wrap(operators, check, f"operators.{check}")
    tracer.wrap(solver, "evolve", "solver.evolve",
                lambda traj, a, k: {"steps": int(traj.times.size - 1)})
    tracer.wrap(solver, "exit_moments", "solver.exit_moments", _lu_fill)
    tracer.wrap(solver, "coercivity_sigma", "solver.coercivity_sigma",
                lambda sig, a, k: {"sigma_iterations": int(sig.iterations)})
    tracer.wrap(mc, "simulate_ensemble", "montecarlo.simulate_ensemble", _ensemble_counts)
    tracer.wrap(mc, "simulate_path", "montecarlo.simulate_path", _path_jumps)
    for cls in vars(kernels).values():
        if (isinstance(cls, type) and issubclass(cls, kernels.JumpKernel)
                and "quadrature_values" in vars(cls)):
            tracer.wrap(cls, "quadrature_values", "kernels.quadrature_values")


def layer_metrics(spans: list[dict], own: set[int]) -> tuple[dict[str, float], list[str]]:
    """Per-layer totals and exact counts over one traced workload pass, and
    the problems found in its counts.

    ``own`` holds the trace ids of the subcommands that ran on the main
    config; the size counts (cells, nnz, LU fill, sigma iterations) are read
    off those, or off the whole pass when none of them records one, and must
    take one value there. A count that is missing because its subcommand
    failed reads 0, and so does a rate over it; the failed subcommand is
    already a failed operation."""
    own_times = self_times(spans)
    total: dict[str, float] = {}
    selft: dict[str, float] = {}
    counts: dict[str, int] = {}
    for s in spans:
        key = "cli" if s["name"].startswith("cli.") else s["name"]
        total[key] = total.get(key, 0.0) + duration(s)
        selft[key] = selft.get(key, 0.0) + own_times[s["id"]]
        for c, v in s["counts"].items():
            counts[c] = counts.get(c, 0) + v

    def t(name):
        return total.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    problems = []
    size = {}
    for name in ("cells", "nnz", "lu_fill", "sigma_iterations"):
        seen = [s["counts"][name] for s in spans if name in s["counts"]]
        primary = [s["counts"][name] for s in spans
                   if name in s["counts"] and s["trace"] in own]
        values = set(primary or seen)
        if len(values) > 1:
            problems.append(f"{name} takes {sorted(values)} within one pass")
        size[name] = max(values, default=0)

    steps = counts.get("steps", 0)
    jumps = counts.get("jumps", 0)
    paths = counts.get("paths", 0)
    simulate = t("montecarlo.simulate_ensemble")
    return {
        "config.load_s": t("config.load_config"),
        "geometry.cells": size["cells"],
        "operators.assemble_s": t("operators.assemble"),
        "operators.assemble_self_s": selft.get("operators.assemble", 0.0),
        "kernels.quadrature_s": t("kernels.quadrature_values"),
        "operators.nnz": size["nnz"],
        "operators.checks_s": (t("operators.adjoint_check") + t("operators.balance_check")
                               + t("operators.divergence_theorem_check")),
        "solver.evolve_s": t("solver.evolve"),
        "solver.steps": steps,
        "solver.us_per_step": 1e6 * ratio(t("solver.evolve"), steps),
        "solver.lu_fill": size["lu_fill"],
        "solver.moments_s": t("solver.exit_moments"),
        "solver.sigma_s": t("solver.coercivity_sigma"),
        "solver.sigma_iterations": size["sigma_iterations"],
        "montecarlo.simulate_s": simulate,
        "montecarlo.jumps": jumps,
        "montecarlo.us_per_jump": 1e6 * ratio(simulate, jumps),
        "montecarlo.paths_per_s": ratio(paths, simulate),
        "montecarlo.censored_frac": ratio(counts.get("censored", 0), paths),
        "montecarlo.paths_s": t("montecarlo.simulate_path"),
        "montecarlo.path_jumps": counts.get("path_jumps", 0),
        "cli.self_s": selft.get("cli", 0.0),
    }, problems
