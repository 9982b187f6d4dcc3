"""Command-line front end: reproducible tables and verification reports.

Subcommands: levels | lines | classical | verify | oracle-compare.
All data goes to stdout with a fixed column order and 15 significant
digits, so identical configurations produce byte-identical output;
diagnostics go to stderr.  Exit codes: 0 success, 1 verification failure,
2 usage or configuration error, which includes a result that overflows
double precision and an oracle eigensolve that fails: either is reported
before anything is printed; 141 (128 + SIGPIPE, what a shell reports for a
writer killed by a closed pipe) when the reader closes stdout early, as
`matrixmech ... | head` does, with nothing on stderr.

Options may come from a plain key=value config file (# comments allowed),
selected with --config or the MATRIXMECH_CONFIG environment variable;
command-line flags override file values.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from . import classical as cl
from . import ladder as ld
from . import oracle as orc
from . import verify as vf
from .oscillator import Kind, OscillatorSpec
from .series import horner

ENV_CONFIG = "MATRIXMECH_CONFIG"

USAGE_ERROR = 2
CHECK_ERROR = 1
CLOSED_PIPE = 141
TABLES = frozenset(("levels", "lines", "verify", "oracle-compare"))  # subcommands solving a table

# Size caps, checked before any work.  Figures are fresh processes on one
# BLAS thread of a 2-core Xeon VM, median of 5 to 7.  The ladder's stacks are dense
# (n_max+pad)^2 arrays: at n_max 512 and --lambda 0.001, verify takes 0.35 s
# (x2) and 0.39 s (x3) and peaks at 88 and 83 MiB; lines takes 0.23 and 0.25 s
# and peaks at 58 and 60 MiB.  The oracle's eigensolves stop at 128 rows: at
# oracle-n 2048, oracle-compare --nmax 5 --lambda 0.002 converges at a Ritz
# rung (0.16-0.25 s, 34 MiB for x2; x3 0.22 s, 35 MiB), and an unconverged
# coupling ends at its 128-row corner and searches the delta ladder in two
# sweeps: for x2, --lambda 0.01 / 0.05 / 0.1 / 0.3 take 0.36 / 0.33 / 0.36 /
# 0.39 s and peak at 41 / 49 / 49 / 50 MiB.
MAX_NMAX = 512
MAX_ORACLE_N = 2048


class ConfigError(ValueError):
    pass


NUMBER = "%.15g"  # every printed float


def fmt(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise OverflowError(f"non-finite result {x}")
    return NUMBER % x


def jnum(x) -> float:
    """Round to the serialized precision so JSON round-trips exactly."""
    return float(fmt(x))


@dataclass
class RunConfig:
    m: float = 1.0
    omega0: float = 1.0
    lam: float = 0.0
    planck_h: float = 2.0 * math.pi
    kind: str = "harmonic"
    n_max: int = 10
    order: int = 1
    fmt: str = "csv"
    tol: float = 1e-12
    oracle_n: Optional[int] = None
    a1: float = 1.0
    mutate: Optional[str] = None

    def spec(self) -> OscillatorSpec:
        return OscillatorSpec(
            m=self.m, omega0=self.omega0, lam=self.lam,
            planck_h=self.planck_h, kind=Kind.from_name(self.kind),
        )


@dataclass(frozen=True)
class Option:
    field: str  # RunConfig attribute
    cast: type
    choices: Optional[Tuple[str, ...]] = None
    commands: FrozenSet[str] = TABLES | {"classical"}  # the subcommands that read it


# Every option, keyed by its flag name (a flag of only the subcommands that
# read it) and config-file key (of any subcommand); both are checked alike.
OPTIONS = {
    "m": Option("m", float),
    "omega0": Option("omega0", float),
    "lambda": Option("lam", float),
    "h": Option("planck_h", float),
    "nmax": Option("n_max", int, commands=TABLES),
    "order": Option("order", int),
    "kind": Option("kind", str, tuple(k.cli_name for k in Kind)),
    "format": Option("fmt", str, ("csv", "json")),
    "tol": Option("tol", float, commands=frozenset({"verify"})),
    "oracle-n": Option("oracle_n", int, commands=frozenset({"verify", "oracle-compare"})),
    "mutate": Option("mutate", str, vf.MUTATIONS, commands=TABLES),
    "a1": Option("a1", float, commands=frozenset({"classical"})),
}


def read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, raw = line.partition("=")
                key = key.strip()
                if key not in OPTIONS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                option = OPTIONS[key]
                try:
                    value = option.cast(raw.strip())
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}") from exc
                if option.choices is not None and value not in option.choices:
                    raise ConfigError(f"{path}:{lineno}: {key} must be one of "
                                      f"{', '.join(option.choices)}")
                values[option.field] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matrixmech",
        description="Ladder quantization of anharmonic oscillators, with "
        "an exact-diagonalization cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key, option in OPTIONS.items():
            if name in option.commands:
                p.add_argument(f"--{key}", dest=option.field, type=option.cast,
                               choices=option.choices, default=None)
        p.add_argument("--config", default=None)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: the grammar is fixed,
    and parse_args keeps no state between calls."""
    return build_parser()


def resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    path = args.config or os.environ.get(ENV_CONFIG)
    if path:
        for attr, value in read_config_file(path).items():
            setattr(config, attr, value)
    for option in OPTIONS.values():
        value = getattr(args, option.field, None)
        if value is not None:
            setattr(config, option.field, value)
    if not 1 <= config.n_max <= MAX_NMAX:
        raise ConfigError(f"nmax must be between 1 and {MAX_NMAX}")
    if config.order not in (0, 1):
        raise ConfigError("order must be 0 or 1")
    if config.oracle_n is not None and not 8 <= config.oracle_n <= MAX_ORACLE_N:
        raise ConfigError(f"oracle-n must be between 8 and {MAX_ORACLE_N}")
    if not (math.isfinite(config.tol) and config.tol > 0):
        raise ConfigError("tol must be a finite number above 0")
    if not math.isfinite(config.a1):
        raise ConfigError("a1 must be finite")
    return config


def _emit_csv(header: str, rows: List[List[str]]) -> None:
    print(header)
    for row in rows:
        print(",".join(row))


def _solved_table(config: RunConfig) -> ld.TransitionTable:
    table = ld.solve_quantum(config.spec(), n_max=config.n_max, order=config.order)
    if config.mutate:
        vf.apply_mutation(table, config.mutate)
    return table


def _emit_columns(config: RunConfig, name: str, header: str,
                  columns: Sequence[np.ndarray]) -> None:
    """Write a table given as one array per column: CSV under header, or JSON
    as a list `name` of objects keyed by the header's names.  A non-finite
    float raises OverflowError, naming the first in row order, before any output."""
    is_float = [c.dtype.kind == "f" for c in columns]
    floats = np.array([c for c, f in zip(columns, is_float) if f]).T
    bad = np.argwhere(~np.isfinite(floats))
    if len(bad):
        raise OverflowError(f"non-finite result {float(floats[tuple(bad[0])])}")
    if config.fmt == "json":
        cells = [[jnum(v) for v in c.tolist()] if f else c.tolist()
                 for c, f in zip(columns, is_float)]
        print(json.dumps({name: [dict(zip(header.split(","), r)) for r in zip(*cells)]}))
    else:
        row = ",".join(NUMBER if f else "%d" for f in is_float) + "\n"
        cells = zip(*(c.tolist() for c in columns))
        sys.stdout.write(header + "\n" + "".join([row % r for r in cells]))


def cmd_levels(config: RunConfig) -> int:
    table = _solved_table(config)
    pub = config.n_max + 1
    w = np.zeros((2, pub))  # W0 and W1 (order 0 has no W1); 0 + W prints -0.0 as 0
    w[: table.order + 1] += table.w[:, :pub]
    _emit_columns(config, "levels", "n,W0,W1,W_total",
                  (np.arange(pub), w[0], w[1], horner(w, config.lam)))
    return 0


def cmd_lines(config: RunConfig) -> int:
    _emit_columns(config, "lines", "n,m,omega,rel_intensity,amp_order",
                  ld.line_columns(_solved_table(config)))
    return 0


def cmd_classical(config: RunConfig) -> int:
    series = cl.solve_classical(config.spec(), config.a1, order=config.order)
    energy = cl.classical_energy(series)
    coeff_rows = sorted(series.coeffs.items())
    if config.fmt == "json":
        payload = {
            "coefficients": [
                {"tau": t, "order": k, "value": jnum(v)} for (t, k), v in coeff_rows
            ],
            "omega_sq": [jnum(c) for c in series.omega_sq.coeffs],
            "energy_constant": [jnum(energy.constant[k])
                                for k in range(energy.valid_order + 1)],
            "energy_periodic_max": jnum(energy.max_periodic()),
        }
        print(json.dumps(payload))
    else:
        rows = [["coeff", str(t), str(k), fmt(v)] for (t, k), v in coeff_rows]
        rows += [["omega_sq", "", str(k), fmt(c)]
                 for k, c in enumerate(series.omega_sq.coeffs)]
        rows += [["energy_constant", "", str(k), fmt(energy.constant[k])]
                 for k in range(energy.valid_order + 1)]
        rows.append(["energy_periodic_max", "", "", fmt(energy.max_periodic())])
        _emit_csv("quantity,tau,order,value", rows)
    return 0


def cmd_verify(config: RunConfig) -> int:
    report = vf.run_verification(_solved_table(config), config.tol, config.oracle_n)
    if config.fmt == "json":
        payload = {
            "passed": report.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "measured": jnum(c.measured),
                 "tolerance": jnum(c.tolerance), "detail": c.detail}
                for c in report.checks
            ],
        }
        print(json.dumps(payload))
    else:
        rows = [[c.name, "PASS" if c.passed else "FAIL", fmt(c.measured), fmt(c.tolerance)]
                for c in report.checks]
        _emit_csv("check,status,measured,tolerance", rows)
    return 0 if report.passed else CHECK_ERROR


def cmd_oracle_compare(config: RunConfig) -> int:
    report = orc.compare(_solved_table(config), n_basis=config.oracle_n)
    # (lambda, n, three values) per row: each level at each coupling, each amplitude
    levels = [(lam, n, v) for lam, block in zip(report.lambdas, np.stack(
        [report.perturbative, report.exact, report.residual], axis=-1).tolist())
        for n, v in enumerate(block)]
    amplitudes = [(report.base_lam, n, v) for n, v in enumerate(np.stack(
        [report.measured, report.sum_rule_form, report.series_form], axis=-1).tolist(), 1)]
    if config.fmt == "json":
        payload = {
            "passed": report.passed,
            "n_basis": report.n_basis,
            "convergence_delta": jnum(report.convergence_delta
                                      * (report.spec.hbar * report.spec.omega0)),
            "levels": [
                {"lambda": jnum(lam), "n": n,
                 **dict(zip(("W_pert", "E_exact", "residual"), map(jnum, v)))}
                for lam, n, v in levels
            ],
            "fits": [
                {"n": n, "constant": jnum(report.fit_constant[n]),
                 "exponent": jnum(report.fit_exponent[n])}
                for n in sorted(report.fit_exponent)
            ],
            "amplitudes": [
                {"n": n, **dict(zip(("measured", "sum_rule_form", "series_form"), map(jnum, v)))}
                for _, n, v in amplitudes
            ],
            "failures": report.failures,
        }
        print(json.dumps(payload))
    else:
        # one %-format per row, after one finiteness check of every value in row order
        row = f"{NUMBER},%d,{NUMBER},{NUMBER},{NUMBER}\n"
        rows = [("level," + row, (lam, n, *v)) for lam, n, v in levels]
        rows += [(f"fit,,%d,{NUMBER},{NUMBER},\n",
                  (n, report.fit_constant[n], report.fit_exponent[n]))
                 for n in sorted(report.fit_exponent)]
        rows += [("amplitude," + row, (lam, n, *v)) for lam, n, v in amplitudes]
        bad = next((x for _, values in rows for x in values if not math.isfinite(x)), None)
        if bad is not None:
            raise OverflowError(f"non-finite result {bad}")
        sys.stdout.write("row,lambda,n,value1,value2,value3\n" + "".join([t % v for t, v in rows]))
        sys.stderr.write("".join(f"mismatch: {f}\n" for f in report.failures))
    return 0 if report.passed else CHECK_ERROR


# subcommand -> (handler, help text)
COMMANDS = {
    "levels": (cmd_levels, "level energies per coupling order"),
    "lines": (cmd_lines, "spectral lines and relative intensities"),
    "classical": (cmd_classical, "classical harmonic-balance coefficients and energy"),
    "verify": (cmd_verify, "run every consistency check"),
    "oracle-compare": (cmd_oracle_compare, "perturbative vs diagonalized levels/amplitudes"),
}


def _attach_negative_values(argv: Sequence[str]) -> List[str]:
    """argv with a negative number after a flag that takes a value (or an
    abbreviation of one) joined to it as --flag=value: argparse reads
    '-0.001' as a value but '-1e-3' as an unknown flag."""
    flags = [f"--{key}" for key in OPTIONS] + ["--config"]
    out: List[str] = []
    for arg in argv:
        if (re.fullmatch(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?", arg, re.IGNORECASE) and out
                and len(out[-1]) > 2 and any(f.startswith(out[-1]) for f in flags)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code; never calls sys.exit.

    stdout is flushed here, so a reader that closed it early is seen here
    and not at interpreter exit: the run then returns CLOSED_PIPE quietly.
    """
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # what stdout still buffers goes to the null device, not to the
        # closed pipe again when the interpreter flushes it at exit
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return CLOSED_PIPE


def _run(argv: Optional[Sequence[str]]) -> int:
    try:
        args = _parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 0 if exc.code in (0, None) else USAGE_ERROR
    try:
        config = resolve_config(args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = COMMANDS[args.command][0](config)
            # the ladder and the classical solve may raise the same warning
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)
        return code
    except (ValueError, orc.OracleError) as exc:  # ConfigError, LadderError, SeriesOrderError too
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OverflowError as exc:
        reason = exc.args[-1] if exc.args else "overflow"  # math's args are (errno, text)
        print(f"error: the result overflows double precision at these parameters "
              f"({reason})", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
