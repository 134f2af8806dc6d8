"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/spread.py --workloads fine-grid stable-mc --seeds 1 2 3 4 5 \\
        --seconds 30 [--trace 0] [--out report.json]

For each workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median. The JSON report also
records the machine (CPU count and Python, numpy and scipy versions) and
each workload's sizes, so a saved report serves as a baseline.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def sizes(workload) -> dict:
    """The workload's configs as jumpexit resolves them, and its workers."""
    from jumpexit.config import load_config
    return {"own": list(workload.own), "config": load_config(workload.config).resolved,
            "extras": load_config(workload.extras).resolved, "workers": workload.threads}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def main() -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    report = {"machine": machine(), "seconds": args.seconds, "trace": args.trace,
              "seeds": args.seeds, "workloads": {}}
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["metrics"] = {k: m["value"] for k, m in res["metrics"].items()}
            runs.append(res)
            print(f"{name} seed {seed}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} wall_s={res['metrics'].get('wall_s', float('nan')):.3f} "
                  f"run took {time.monotonic() - started:.1f} s",
                  file=sys.stderr)
        metrics = {m: summarize([r["metrics"][m] for r in runs]) for m in runs[0]["metrics"]}
        report["workloads"][name] = {
            "why": WORKLOADS[name].why, "sizes": sizes(WORKLOADS[name]),
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs), "metrics": metrics}
        for m, s in metrics.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.2%}"
            print(f"{name:16s} {m:28s} median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} spread={spread}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
