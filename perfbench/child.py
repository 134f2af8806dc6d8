"""One fresh workload process: set up, run the CLI subcommands, report.

    python3 perfbench/child.py --workload NAME --seed N --out DIR --result FILE
                               [--setup-only] [--trace] [--microbench]

Set-up is importing jumpexit and passing the workload's two configs (the
main one and the extras) through ``load_config``; the time it finished is
written as ``time.monotonic()`` so the parent can measure from before it
started this interpreter. Each subcommand then runs through
``jumpexit.cli.main`` into its own output directory, on the config
``Workload.config_for`` names, and is timed alone; one that takes less
than ``MIN_COMMAND_S`` runs again, rewriting the same files, in later
rounds until that much time is spent. Every sample is returned. With ``--trace`` the layer wrappers of
``tracer.py`` are installed after set-up and the spans are returned in the
result; ``--microbench`` adds the kernel per-call timings.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MIN_COMMAND_S = 2.0  # a shorter subcommand is repeated
MICROBENCH_POINTS = 256
MICROBENCH_REPEATS = 5
MICROBENCH_MIN_S = 0.1


def kernel_microbench(cfg, seed: int) -> dict[str, float]:
    """Median microseconds per ``total_rate`` and ``sample_jump`` call at
    seeded interior points, over the reachable region the walk uses."""
    import numpy as np

    rng = np.random.default_rng(seed)
    points = [cfg.partition.domain.sample_uniform(rng) for _ in range(MICROBENCH_POINTS)]
    reach = cfg.partition.reachable
    kernel = cfg.kernel
    calls = {
        "kernels.total_rate_us": lambda x: kernel.total_rate(x, reach),
        "kernels.sample_jump_us": lambda x: kernel.sample_jump(x, reach, rng),
    }
    out = {}
    for name, call in calls.items():
        samples = []
        for _ in range(MICROBENCH_REPEATS):
            n = 0
            start = time.perf_counter()
            while True:
                for x in points:
                    call(x)
                n += len(points)
                elapsed = time.perf_counter() - start
                if elapsed >= MICROBENCH_MIN_S:
                    break
            samples.append(1e6 * elapsed / n)
        out[name] = statistics.median(samples)
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--microbench", action="store_true")
    args = ap.parse_args()

    from workloads import COMMANDS, WORKLOADS
    workload = WORKLOADS[args.workload]

    from jumpexit import cli
    cfg = cli.load_config(workload.config, out_dir=args.out, seed=args.seed)
    extras = cli.load_config(workload.extras, out_dir=args.out, seed=args.seed)
    setup_done = time.monotonic()
    resolved = {workload.config: cfg.resolved, workload.extras: extras.resolved}
    result = {"setup_done": setup_done,
              "resolved": {c: resolved[workload.config_for(c)] for c in COMMANDS}}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    times = {c: [] for c in COMMANDS}
    codes = {}

    def pending(command):
        # a traced pass runs each subcommand once, so its counts are per pass
        return command not in codes or (tracer is None and codes[command] == 0
                                         and sum(times[command]) < MIN_COMMAND_S)

    # Each round starts one more subcommand, the light extras first, and
    # repeats the short ones already started, so that the samples of a
    # short subcommand are spread over the process, between the long ones:
    # the host's speed changes within seconds.
    order = sorted(COMMANDS, key=lambda c: c in workload.own)
    started = 0
    while started < len(order) or any(pending(c) for c in order):
        started = min(started + 1, len(order))
        for command in order[:started]:
            if not pending(command):
                continue
            i = COMMANDS.index(command)
            argv = [command, "--config", str(workload.config_for(command)),
                    "--out", str(args.out / command),
                    "--seed", str(args.seed), "--threads", str(workload.threads)]
            if tracer is not None:
                tracer.trace_id = i
            with tracer.span(f"cli.{command}") if tracer is not None else nullcontext():
                start = time.perf_counter()
                try:
                    codes[command] = cli.main(argv)
                except Exception:  # the CLI contract is an exit code; a traceback is a failure
                    traceback.print_exc()
                    codes[command] = None
                times[command].append(time.perf_counter() - start)

    result["times"] = times
    result["codes"] = codes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
    if args.microbench:
        result["microbench"] = kernel_microbench(cfg, args.seed)
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
