"""Spans around calls into matrixmech's layers, recorded from outside.

Tracer.install wraps the public functions listed in TRACED and rebinds
every reference to them that a matrixmech module holds (module attributes
and names imported with `from .x import y`), so calls between modules are
traced too.  NumPy's eigh and eigvalsh are wrapped as counters of the
calls made inside traced functions.  Spans (name, start, end, parent, size)
stay in memory; layer_metrics reduces the spans of one operation to the
per-layer figures.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


def _kind_and_size(args) -> tuple:
    return args["spec"].kind.cli_name, args["n_max"]


# (module, attribute, span name, what to record of the bound arguments)
TRACED = (
    ("cli", "main", "cli.main", None),
    ("ladder", "solve_quantum", "ladder.solve_quantum", _kind_and_size),
    ("ladder", "energy_levels", "ladder.energy_levels", None),
    ("ladder", "energy_matrix", "ladder.energy_matrix", None),
    ("ladder", "OperatorMatrix.mul", "ladder.operator_mul", None),
    ("ladder", "quantum_residuals", "ladder.quantum_residuals", None),
    ("ladder", "offdiagonal_energy_check", "ladder.offdiagonal_energy_check", None),
    ("ladder", "line_spectrum", "ladder.line_spectrum", None),
    ("oracle", "build_hamiltonian", "oracle.build_hamiltonian", lambda args: args["n_basis"]),
    ("oracle", "diagonalize", "oracle.diagonalize", None),
    ("oracle", "compare", "oracle.compare", None),
    ("classical", "solve_classical", "classical.solve_classical", None),
    ("classical", "classical_energy", "classical.classical_energy", None),
    ("classical", "classical_residual", "classical.classical_residual", None),
    ("verify", "run_verification", "verify.run_verification", None),
)
DECOMPOSITIONS = ("eigh", "eigvalsh")


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, size or None]
        self.spans: List[list] = []
        self.decompositions = 0
        self._stack: List[int] = []

    def _wrap(self, fn: Callable, name: str, size_of: Optional[Callable]) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = None
            if size_of is not None:
                size = size_of(signature.bind(*args, **kwargs).arguments)
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, size]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def _count(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:  # inside a traced call, not the benchmark's own kernel
                self.decompositions += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def install(self):
        """Trace the package until the block ends, then restore it."""
        import numpy

        modules = [m for k, m in sys.modules.items()
                   if k == "matrixmech" or k.startswith("matrixmech.")]
        undo = []

        def rebind(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for mod_name, attr, name, size_of in TRACED:
            owner = sys.modules[f"matrixmech.{mod_name}"]
            if "." in attr:  # a method: rebind it on its class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                rebind(owner, attr, self._wrap(getattr(owner, attr), name, size_of))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(original, name, size_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        rebind(mod, key, traced)
        for attr in DECOMPOSITIONS:
            rebind(numpy.linalg, attr, self._count(getattr(numpy.linalg, attr)))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def mark(self) -> tuple:
        return len(self.spans), self.decompositions

    def dump(self) -> List[dict]:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "size": s[4]}
                for s in self.spans]


def _exponent(solves: Dict[tuple, List[float]]) -> float:
    """Scaling exponent of solve time in n_max.

    Per kind, the least-squares slope of log(mean solve time) against
    log(n_max); the mean over the kinds solved at two sizes or more, else 0.
    """
    by_kind = defaultdict(list)
    for (kind, n_max), times in solves.items():
        by_kind[kind].append((math.log(n_max), math.log(statistics.fmean(times))))
    slopes = []
    for pts in by_kind.values():
        if len(pts) < 2:
            continue
        mx = statistics.fmean(p[0] for p in pts)
        my = statistics.fmean(p[1] for p in pts)
        slopes.append(sum((x - mx) * (y - my) for x, y in pts)
                      / sum((x - mx) ** 2 for x, _ in pts))
    return statistics.fmean(slopes) if slopes else 0.0


def layer_metrics(tracer: Tracer, start: tuple) -> Dict[str, float]:
    """Per-layer figures of the spans recorded since tracer.mark() gave start."""
    first, decompositions = start
    spans = tracer.spans[first:]
    child_time = defaultdict(float)
    for s in spans:
        if s[3] >= first:
            child_time[s[3] - first] += s[2] - s[1]
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    solves = defaultdict(list)
    matrix_bytes = 0
    oracle_in_verify = 0.0
    for i, (name, t0, t1, parent, size) in enumerate(spans):
        total[name] += t1 - t0
        own[name] += t1 - t0 - child_time[i]
        calls[name] += 1
        if name == "ladder.solve_quantum":
            solves[size].append(t1 - t0)
        elif name == "oracle.build_hamiltonian":
            matrix_bytes += 8 * size * size
        elif (name == "oracle.compare" and parent >= first
              and tracer.spans[parent][0] == "verify.run_verification"):
            oracle_in_verify += t1 - t0
    verify_s = total["verify.run_verification"]
    return {
        "ladder.solve_quantum_s": total["ladder.solve_quantum"],
        "ladder.solve_quantum_self_s": own["ladder.solve_quantum"],
        "ladder.energy_matrix_s": total["ladder.energy_matrix"],
        "ladder.energy_matrix_calls": calls["ladder.energy_matrix"],
        "ladder.operator_mul_s": total["ladder.operator_mul"],
        "ladder.operator_mul_calls": calls["ladder.operator_mul"],
        "ladder.quantum_residuals_s": total["ladder.quantum_residuals"],
        "ladder.offdiagonal_energy_check_s": total["ladder.offdiagonal_energy_check"],
        "ladder.line_spectrum_s": total["ladder.line_spectrum"],
        "ladder.solve_exponent": _exponent(solves),
        "oracle.build_hamiltonian_s": total["oracle.build_hamiltonian"],
        "oracle.diagonalize_self_s": own["oracle.diagonalize"],
        "oracle.compare_s": total["oracle.compare"],
        "oracle.compare_self_s": own["oracle.compare"],
        "oracle.decompositions": tracer.decompositions - decompositions,
        "oracle.matrix_mb": matrix_bytes / 2**20,
        "classical.solve_classical_s": total["classical.solve_classical"],
        "classical.classical_energy_s": total["classical.classical_energy"],
        "classical.classical_residual_s": total["classical.classical_residual"],
        "verify.run_verification_s": verify_s,
        "verify.run_verification_self_s": own["verify.run_verification"],
        "verify.oracle_compare_s": oracle_in_verify,
        "verify.oracle_share": oracle_in_verify / verify_s if verify_s else 0.0,
        "cli.main_self_s": own["cli.main"],
    }


def layer_unit(name: str) -> str:
    if name.endswith(("_calls", ".decompositions")):
        return "count"
    if name.endswith("_mb"):
        return "MiB-computed"  # 8*N^2 bytes per Hamiltonian, not measured
    if name.endswith(("_exponent", "_share")):
        return "1"
    return "s"
