#!/usr/bin/env python3
"""Digest every output file of a sweep of CLI runs, to compare two checkouts.

Runs every subcommand of ``jumpexit.cli.main`` once for each config,
seed and thread count given, each run into a directory of its own
(``verify`` with ``--dump-operator``, so the assembled matrix is digested
too), and prints one line per output file, sorted::

    config subcommand seed threads exit_code file sha256

A run that leaves no file prints one line with ``-`` for the file and the
digest. Run the same sweep in two checkouts, each with its own ``src`` on
``PYTHONPATH``, and ``diff`` the listings: equal listings mean equal exit
codes and byte-identical outputs. For example::

    PYTHONPATH=src python scripts/output_digests.py configs/*.ini \\
        perfbench/workloads/*.ini --seeds 0 14 1101 --threads 1 2 > digests.txt
"""

import argparse
import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from jumpexit.cli import main as cli_main

COMMANDS = ["solve", "exit-time", "moments", "verify", "simulate", "compare", "paths"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep(configs, seeds, threads, work: Path) -> list[str]:
    """The sorted digest lines of every run of the sweep, made under ``work``."""
    lines = []
    runs = ((c, cmd, s, n) for c in configs for cmd in COMMANDS for s in seeds for n in threads)
    for k, (config, command, seed, n) in enumerate(runs):
        out = work / str(k)
        argv = [command, "--config", config, "--out", str(out),
                "--seed", str(seed), "--threads", str(n)]
        argv += ["--dump-operator"] if command == "verify" else []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        head = f"{config} {command} {seed} {n} {code}"
        files = sorted(p for p in out.rglob("*") if p.is_file())
        lines += [f"{head} {p.relative_to(out)} {_sha256(p)}" for p in files] or [f"{head} - -"]
    return sorted(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="+", help="run configuration files")
    ap.add_argument("--seeds", nargs="+", type=int, default=[0])
    ap.add_argument("--threads", nargs="+", type=int, default=[1])
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as work:
        for line in sweep(args.configs, args.seeds, args.threads, Path(work)):
            print(line)


if __name__ == "__main__":
    main()
