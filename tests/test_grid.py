"""tools/grid.py, the byte-identity grid: what it covers and what a line holds."""

import collections
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from matrixmech.verify import MUTATIONS

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("grid", REPO / "tools" / "grid.py")
grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(grid)


def test_grid_covers_the_table_commands_units_mutations_and_caps():
    runs = [argv.split() for argv in grid.grid()]
    verify = [r for r in runs if r[0] == "verify"]
    assert len(verify) >= 744
    assert {r[0] for r in runs} == {"levels", "lines", "verify", "oracle-compare", "classical"}
    for command in grid.TABLE_COMMANDS:
        ran = [r for r in runs if r[0] == command]
        assert {r[r.index("--nmax") + 1] for r in ran} >= {"1", "128", "512"}
        assert {r[r.index("--mutate") + 1] for r in ran if "--mutate" in r} == set(MUTATIONS)
        assert any("--omega0" in r for r in ran) and any("--omega0" not in r for r in ran)
    assert "2048" in {r[r.index("--oracle-n") + 1] for r in runs if "--oracle-n" in r}
    assert len(set(map(tuple, runs))) == len(runs)


def test_a_line_holds_the_exit_code_digests_and_argv():
    out = "n,W0,W1,W_total\n0,0.5,0,0.5\n1,1.5,0,1.5\n"
    empty = hashlib.sha256(b"").hexdigest()
    assert grid.run("levels --kind harmonic --nmax 1") == (
        f"0 {hashlib.sha256(out.encode()).hexdigest()} {empty} levels --kind harmonic --nmax 1")


# --- one output contract across BLAS kernels ---------------------------------

# A run's output in a child process: its exit code and stdout, for each
# argv read from stdin as JSON.
CHILD = """
import contextlib, io, json, sys
from matrixmech import cli
out = []
for argv in json.load(sys.stdin):
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv.split())
    out.append((code, text.getvalue()))
json.dump(out, sys.stdout)
"""
# Largest change of a number between two kernels, over the largest
# magnitude of its column in that run.  Measured on the subset below
# against the detected SkylakeX kernel: 2.5e-14 under Haswell, 4.5e-14
# under Sandybridge.
KERNEL_BOUND = 1e-12
# Columns held to no bound, as (command, row group, column), "*" any:
# verify's measured values are round-off, the quantity a check measures,
# and its verdict (status) is compared exactly; a level's residual
# |W_pert - E_exact| is a difference of two compared columns, relative
# round-off of E over the residual's size; the fit rows fit that residual
# (measured spread: 9.5e-7 of the constant, 5.7e-8 of the exponent), and
# the scaling gate they feed is held by the exit code.
ROUND_OFF = {("verify", "*", "measured"), ("oracle-compare", "level", "value3"),
             ("oracle-compare", "levels", "residual"), ("oracle-compare", "fit", "*"),
             ("oracle-compare", "fits", "*")}


def _dynamic_openblas():
    """Whether NumPy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, whose
    kernel OPENBLAS_CORETYPE selects."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.26 has no dict mode
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", "")


def _columns(argv, stdout):
    """{(row group, column): [cells]} of a CSV or JSON output; a CSV row's
    group is its first cell for the commands that label their rows."""
    columns = collections.defaultdict(list)
    if not stdout:  # a usage error prints nothing there
        return columns
    if "--format json" in argv:
        def walk(node, group, column):
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, group or key, key)
            elif isinstance(node, list):
                for value in node:
                    walk(value, group, column)
            else:
                columns[group, column].append(node)
        walk(json.loads(stdout), None, None)
        return columns
    header, *rows = [line.split(",") for line in stdout.splitlines()]
    labelled = argv.split()[0] in ("oracle-compare", "verify", "classical")
    for row in rows:
        for column, cell in zip(header, row):
            columns[row[0] if labelled else "", column].append(cell)
    return columns


def _number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _kernel_outputs(runs, coretype):
    """Each run's (exit code, stdout) in a child process on one BLAS thread,
    with OPENBLAS_CORETYPE set to coretype (None: the detected kernel)."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "MATRIXMECH_CONFIG")}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p))
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    child = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(runs), env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.mark.skipif(not _dynamic_openblas(), reason="NumPy's BLAS is not a DYNAMIC_ARCH "
                    "OpenBLAS, so OPENBLAS_CORETYPE selects no kernel")
def test_one_output_contract_across_blas_kernels():
    # every 6th grid run below the size caps, under the detected kernel and
    # under Haswell's: the same exit codes, the same text, and each number
    # within KERNEL_BOUND of its column's largest magnitude
    runs = [argv for argv in grid.grid() if "512" not in argv and "2048" not in argv][::6]
    detected, haswell = [_kernel_outputs(runs, coretype) for coretype in (None, "Haswell")]
    assert len(detected) == len(haswell) == len(runs) == 649
    for argv, (code, out), (their_code, theirs) in zip(runs, detected, haswell):
        assert code == their_code, argv
        command = argv.split()[0]
        ours, other = _columns(argv, out), _columns(argv, theirs)
        assert ours.keys() == other.keys(), argv
        for (group, column), cells in ours.items():
            assert len(cells) == len(other[group, column]), (argv, group, column)
            if {(command, g, c) for g in (group, "*") for c in (column, "*")} & ROUND_OFF:
                continue
            numbers = [_number(c) for c in cells + other[group, column]]
            top = max((abs(x) for x in numbers if x is not None), default=0.0)
            for a, b in zip(cells, other[group, column]):
                x, y = _number(a), _number(b)
                if x is None or y is None:
                    assert a == b, (argv, group, column)
                else:
                    assert abs(x - y) <= KERNEL_BOUND * top, (argv, group, column, a, b)
