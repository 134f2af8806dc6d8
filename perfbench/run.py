"""jumpexit benchmark: two workloads through the public CLI entry.

    python3 perfbench/run.py --workload fine-grid --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; ``src/jumpexit`` is imported from
there. Every workload process is a fresh interpreter started by this
script (``child.py``); it sets up, runs the six CLI subcommands with
the workload seed as ``--seed``, and reports. Processes are started one
after the other, at least two, until the next would probably end more
than half a process past ``--seconds``. A subcommand's time in a process
is the mean over its calls there (a short one runs several times, spread
over the process), and each metric is the median over the processes.

``--trace 0`` reports the end-to-end metrics. ``setup_s`` also takes a
few set-up-only processes, so its median rests on several samples.
``--trace 1`` alternates traced and untraced processes, at least two
traced ones, and reports the per-layer metrics of the traced ones, the
kernel microbenchmark and the tracing overhead (traced minus untraced
``wall_s``); the spans go to ``.perfbench/<workload>/trace-seed<seed>.json``.

Each subcommand run is one operation. It fails on a nonzero exit, on a
failed reference check of its outputs (``workloads.py``), or when its
output files differ from the first process's at the same seed. A traced
run adds one operation: the exact counts must repeat between its traced
processes and against any earlier traced run of the same code (jumpexit
sources and benchmark files) at the same seed in this checkout. The last
line of standard output is the JSON result; harness faults exit nonzero
without printing one. Each metric is printed as ``{"value", "unit"}``
with the unit ``BENCHMARK.json`` gives it.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s, child processes included

COUNT_KEYS = ("geometry.cells", "operators.nnz", "solver.lu_fill", "solver.steps",
              "solver.sigma_iterations", "montecarlo.jumps", "montecarlo.path_jumps",
              "cli.rows_written")


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(flags: list[str], result: Path, deadline: float) -> tuple[dict, float]:
    """Start one fresh workload process and return its result and the
    monotonic time just before it was started."""
    result.unlink(missing_ok=True)
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "--result", str(result)] + flags,
                            stdin=subprocess.DEVNULL, stdout=sys.stderr.fileno(),
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError("workload process ran past the run's time limit") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0 or not result.is_file():
        raise HarnessError(f"workload process exited with code {code}")
    return json.loads(result.read_text()), started


def digest(paths, root: Path) -> str:
    """SHA-256 over the names (relative to ``root``) and bytes of the files."""
    h = hashlib.sha256()
    for path in sorted(paths):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def code_digest() -> str:
    """Digest of everything the exact counts depend on: the jumpexit
    sources and the benchmark's own code and configs."""
    files = [*(ROOT / "src" / "jumpexit").rglob("*.py"), *HERE.rglob("*.py"),
             *HERE.rglob("*.ini")]
    return digest(files, ROOT)[:16]


def rows_written(directory: Path) -> int:
    """Data rows over every CSV in ``directory`` (comment and header lines
    excluded)."""
    n = 0
    for path in directory.glob("*.csv"):
        with open(path) as fh:
            n += sum(1 for line in fh if not line.startswith("#")) - 1
    return n


def median_metrics(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    from tracer import layer_metrics
    from workloads import COMMANDS, check

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "out"
    base = ["--workload", workload.name, "--seed", str(seed), "--out", str(out)]

    setups = []
    if not trace:
        for i in range(SETUP_PROBES):
            res, t0 = spawn(base + ["--setup-only"], work / "result.json", deadline)
            setups.append(res["setup_done"] - t0)

    attempted = failed = 0
    correct = True
    first_digest: dict[str, str] = {}
    walls = {False: [], True: []}
    process_s = []  # the duration of each workload process, repeats included
    e2e, layers = [], []
    counts_seen: list[dict] = []
    count_problems: list[str] = []
    own = {i for i, c in enumerate(COMMANDS) if c in workload.own}
    microbench = None
    spans: list[list[dict]] = []  # one list per traced process; span ids restart in each
    while True:
        traced = trace and len(walls[True]) <= len(walls[False])
        flags = base + (["--trace"] if traced else [])
        if traced and microbench is None:
            flags.append("--microbench")
        shutil.rmtree(out, ignore_errors=True)
        res, t0 = spawn(flags, work / "result.json", deadline)
        setups.append(res["setup_done"] - t0)
        process_s.append(time.monotonic() - t0)

        rows = 0
        for command in COMMANDS:
            attempted += 1
            directory = out / command
            code = res["codes"][command]
            problems = check(workload, command, directory, res["resolved"][command])
            d = digest(directory.rglob("*"), directory)
            if first_digest.setdefault(command, d) != d:
                problems.append("outputs differ from the first process at this seed")
            if problems:
                correct = False
            if code != 0 or problems:
                failed += 1
                print(f"FAILED {workload.name} {command}: exit code {code}; {'; '.join(problems)}",
                      file=sys.stderr)
            rows += rows_written(directory)

        # the mean, not the median: a call's time jumps between two levels as
        # the host's speed changes, and the median of a short subcommand's
        # calls would jump with it
        times = {c: statistics.fmean(t) for c, t in res["times"].items()}
        wall = sum(times.values())
        walls[traced].append(wall)
        if traced:
            lm, problems = layer_metrics(res["spans"], own)
            count_problems += problems
            lm["cli.rows_written"] = rows
            layers.append(lm)
            counts_seen.append({k: lm[k] for k in COUNT_KEYS})
            spans.append(res["spans"])
            microbench = microbench or res["microbench"]
        else:
            e2e.append({f"{c}_s": times[c] for c in COMMANDS}
                       | {"wall_s": wall, "peak_rss_mb": res["peak_rss_mb"]})
        print(f"{workload.name} seed={seed} {'traced' if traced else 'untraced'} "
              f"wall={wall:.3f}s " + " ".join(f"{c}={t:.3f}" for c, t in times.items()),
              file=sys.stderr)

        elapsed = time.monotonic() - start
        enough = (len(walls[True]) >= 2 and len(walls[False]) >= 1 if trace
                  else len(walls[False]) >= 2)
        if enough and elapsed + 0.5 * statistics.fmean(process_s) >= seconds:
            break

    if not trace:
        metrics = median_metrics(e2e) | {"setup_s": statistics.median(setups)}
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    attempted += 1
    count_problems += counts_repeat_problems(workload.name, seed, counts_seen)
    if count_problems:
        correct = False
        failed += 1
        print(f"FAILED {workload.name} counts: {'; '.join(count_problems)}", file=sys.stderr)
    metrics = median_metrics(layers) | microbench
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    write_trace(work / f"trace-seed{seed}.json", spans, metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def counts_repeat_problems(name: str, seed: int, seen: list[dict]) -> list[str]:
    """Exact counts must agree between traced processes and with the last
    traced run of the same code at the same seed in this checkout."""
    if any(c != seen[0] for c in seen):
        return [f"counts differ between processes: {seen}"]
    path = WORK / "counts" / f"{name}-seed{seed}-{code_digest()}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        if before != seen[0]:
            return [f"counts {seen[0]} differ from an earlier run of this code at this seed: "
                    f"{before}"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(seen[0], indent=1, sort_keys=True) + "\n")
    return []


def write_trace(path: Path, spans: list[list[dict]], metrics: dict) -> None:
    from tracer import duration, self_times

    table: dict[str, dict] = {}
    for process in spans:
        own = self_times(process)
        for s in process:
            row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration(s)
            row["self_s"] += own[s["id"]]
    with open(path, "w") as fh:
        json.dump({"metrics": metrics, "self_times": table, "processes": spans}, fh)
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:34s} calls={row['calls']:6d} total={row['total_s']:8.3f}s "
              f"self={row['self_s']:8.3f}s", file=sys.stderr)


def with_units(metrics: dict, trace: bool) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the metrics that
    ``BENCHMARK.json`` lists for this mode, in its units."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise HarnessError(f"metrics {sorted(set(metrics) ^ set(units))} are not both measured "
                           "and listed in BENCHMARK.json")
    return {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "jumpexit" / "__init__.py").is_file():
        print(f"no jumpexit sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        result["metrics"] = with_units(result["metrics"], bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
