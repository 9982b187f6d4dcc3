"""tools/grid.py, the byte-identity grid: what it covers and what a line holds."""

import hashlib
import importlib.util
from pathlib import Path

from matrixmech.verify import MUTATIONS

_spec = importlib.util.spec_from_file_location(
    "grid", Path(__file__).resolve().parents[1] / "tools" / "grid.py")
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
