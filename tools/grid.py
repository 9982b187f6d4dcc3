"""Byte-identity grid: a fixed grid of CLI runs, made in one process.

    python tools/grid.py                # one line per run on this checkout
    python tools/grid.py --against REV  # the same grid on REV; list the runs that differ

Each line holds the exit code, the sha256 digests of stdout and of stderr,
and the argv.  `--against REV` checks REV out into a temporary git
worktree, runs the grid there in a child process (the grid is this file's,
the code REV's), removes the worktree, and prints each run whose exit code,
stdout or stderr differs; it exits 1 if any does.

The grid: levels, lines, verify and oracle-compare for the harmonic kind
(at lambda 0) and for x2 and x3 at each coupling of LAMBDAS, at each n_max
of N_MAX, in both unit sets, as CSV and JSON, unmutated and under every
--mutate that applies.  Beyond it: the size caps (n_max 512, oracle-n up
to 2048), order 0, the classical command, and negative numbers written in
exponent form after their flag.  A run's output depends on the NumPy build
and the CPU kernel, so compare two revisions on one machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List

REPO = Path(__file__).resolve().parents[1]

LAMBDAS = ("-1e-3", "1e-4", "1e-3", "0.01", "0.04", "0.3")
N_MAX = (1, 2, 6, 10, 48, 128)
UNITS = ("", "--m 1.7 --omega0 0.6 --h 3.1")
KINDS = {"harmonic": (("0",), ("w",)), "x2": (LAMBDAS, ("a2", "a0", "w")), "x3": (LAMBDAS, ("w",))}
TABLE_COMMANDS = ("levels", "lines", "verify", "oracle-compare")


def grid() -> Iterator[str]:
    """Every run of the grid, as a command line."""
    for command, (kind, (lambdas, mutations)) in itertools.product(TABLE_COMMANDS, KINDS.items()):
        for lam, n_max, units, fmt, mutate in itertools.product(
                lambdas, N_MAX, UNITS, ("csv", "json"), ("",) + mutations):
            yield (f"{command} --kind {kind} --lambda={lam} --nmax {n_max} {units} --format {fmt}"
                   + (f" --mutate {mutate}" if mutate else ""))
    for command, kind in itertools.product(TABLE_COMMANDS, ("x2", "x3")):
        yield f"{command} --kind {kind} --lambda 1e-3 --nmax 512"  # the n_max cap
        yield f"{command} --kind {kind} --lambda 1e-3 --nmax 10 --order 0"
    for kind, mutate in [("x2", "a2"), ("x2", "a0"), ("x2", "w"), ("x3", "w")]:
        yield f"verify --kind {kind} --lambda 1e-3 --nmax 512 --mutate {mutate}"
    for kind, units in itertools.product(("x2", "x3"), UNITS):
        yield f"verify --kind {kind} --lambda 1e-4 --nmax 512 {units}"
    for kind, n in itertools.product(("x2", "x3"), (9, 16, 33, 56, 64, 96, 128, 129, 150, 256,
                                                     512, 2048)):
        yield f"oracle-compare --kind {kind} --lambda 1e-3 --nmax 5 --oracle-n {n}"
    yield "oracle-compare --kind x2 --lambda 0.05 --nmax 5 --oracle-n 2048"  # unconverged
    yield "verify --kind x3 --lambda 0.002 --nmax 5 --oracle-n 2048"
    for (kind, (lambdas, _)), units, fmt, a1, order in itertools.product(
            KINDS.items(), UNITS, ("csv", "json"), ("0", "1"), ("0", "1")):
        for lam in lambdas:
            yield (f"classical --kind {kind} --lambda={lam} --a1 {a1} --order {order} {units}"
                   f" --format {fmt}")
    # a negative number in exponent form after its flag
    for command in TABLE_COMMANDS:
        yield f"{command} --kind x3 --lambda -1e-3 --nmax 6"
    yield "classical --kind x3 --lambda -1e-3 --a1 1"
    yield "verify --kind x3 --lambda 1e-3 --nmax 6 --tol -1e-9"


def run(argv: str) -> str:
    """One grid line: exit code, stdout and stderr digests, argv."""
    from matrixmech import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv.split())
    digest = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return f"{code} {digest[0]} {digest[1]} {' '.join(argv.split())}"


def against(rev: str) -> Dict[str, str]:
    """The grid's lines on a worktree of rev, keyed by argv."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--quiet", "--detach",
                        str(tree), rev], check=True)
        try:
            lines = subprocess.run([sys.executable, __file__, "--src", str(tree / "src")],
                                   check=True, capture_output=True, text=True).stdout
        finally:
            subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force", str(tree)],
                           check=True)
    return {line.split(" ", 3)[3]: line for line in lines.splitlines()}


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(REPO / "src"), help="the package source to run")
    parser.add_argument("--against", metavar="REV", help="compare with a git revision")
    args = parser.parse_args(argv)
    os.environ.pop("MATRIXMECH_CONFIG", None)  # a config file would change every run
    sys.path.insert(0, args.src)
    if args.against is None:
        for argv_line in grid():
            print(run(argv_line), flush=True)
        return 0
    theirs = against(args.against)
    ours = {line.split(" ", 3)[3]: line for line in map(run, grid())}
    differ = [key for key in ours if ours[key] != theirs[key]]
    for key in differ:
        a, b = theirs[key].split(" ")[:3], ours[key].split(" ")[:3]
        parts = [f"exit {a[0]} -> {b[0]}" if a[0] != b[0] else f"exit {b[0]}"]
        parts += [f"{name} differs" for name, x, y in [("stdout", a[1], b[1]), ("stderr", a[2], b[2])]
                  if x != y]
        print(f"{key}: {', '.join(parts)}")
    print(f"{len(ours)} runs, {len(differ)} differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
