"""The three workloads: fixed job lists whose couplings come from a seed.

One operation is one pass over a workload's job list, so every operation
does the same work.  Sizes are fixed; only the couplings depend on the seed,
and no code path of the program depends on their value.  The ranges keep
every command inside its converged regime (x2 couplings stay at or below
0.005, so the oracle's 4*lambda sweep point still converges).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

WORKLOADS = ("ladder_tables", "oracle_sweep", "verify_audit")

# ladder_tables: two sizes a factor 2 apart expose the solve's scaling
LADDER_SIZES = (24, 48)
# oracle_sweep: (oracle basis N, n_max); n_max sets how many levels are tracked
ORACLE_SIZES = ((256, 4), (384, 6))
# verify_audit: small ladders, validated beside the solve
VERIFY_SIZES = (10, 20)
MUTATION_N_MAX = 10
# mutation -> (kind, check that must fail)
MUTATIONS = {
    "a2": ("x2", "eom_residual_overtone2"),
    "a0": ("x2", "offdiagonal_energy"),
    "w": ("x3", "frequency_consistency"),
}

COUPLINGS = {
    "x2": (1e-3, 5e-3),
    "x3": (5e-4, 2e-3),
}
# A level off by +-lambda^2 must stand out of the O(lambda^3) bound of the
# oracle check at every tracked level and sweep point.  For x3 that needs
# lambda^2 > 2.5 * (third-order term) at n = 5 and 4*lambda, so lambda < 2.8e-4.
ORACLE_COUPLINGS = {
    "x2": (1e-3, 5e-3),
    "x3": (1e-4, 2e-4),
}


@dataclass(frozen=True)
class Job:
    command: str
    kind: str
    lam: float
    n_max: int
    oracle_n: Optional[int] = None
    mutate: Optional[str] = None

    @property
    def argv(self) -> List[str]:
        argv = [self.command, "--kind", self.kind, "--lambda", repr(self.lam),
                "--nmax", str(self.n_max)]
        if self.oracle_n is not None:
            argv += ["--oracle-n", str(self.oracle_n)]
        if self.mutate is not None:
            argv += ["--mutate", self.mutate]
        return argv

    @property
    def expected_code(self) -> int:
        return 1 if self.mutate else 0


def _draw(rng: random.Random, bounds: Tuple[float, float]) -> float:
    # seven decimals: the value the program parses is exactly this float
    return round(rng.uniform(*bounds), 7)


def jobs(workload: str, seed: int) -> List[Job]:
    """The fixed job list of one workload at one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ladder_tables":
        lam = {kind: _draw(rng, COUPLINGS[kind]) for kind in ("x2", "x3")}
        return [Job(command, kind, lam[kind], n)
                for n in LADDER_SIZES for kind in ("x2", "x3")
                for command in ("levels", "lines")]
    if workload == "oracle_sweep":
        lam = {kind: _draw(rng, ORACLE_COUPLINGS[kind]) for kind in ("x2", "x3")}
        return [Job("oracle-compare", kind, lam[kind], n_max, oracle_n=size)
                for size, n_max in ORACLE_SIZES for kind in ("x2", "x3")]
    if workload == "verify_audit":
        lam = {"harmonic": 0.0}
        lam.update({kind: _draw(rng, COUPLINGS[kind]) for kind in ("x2", "x3")})
        out = [Job("verify", kind, lam[kind], n)
               for n in VERIFY_SIZES for kind in ("harmonic", "x2", "x3")]
        out += [Job("verify", kind, lam[kind], MUTATION_N_MAX, mutate=name)
                for name, (kind, _) in MUTATIONS.items()]
        return out
    raise ValueError(f"unknown workload {workload!r} (expected one of {WORKLOADS})")
