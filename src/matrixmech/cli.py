"""Command-line front end: reproducible tables and verification reports.

Subcommands: levels | lines | classical | verify | oracle-compare.
All data goes to stdout with a fixed column order and 15 significant
digits, so identical configurations produce byte-identical output;
diagnostics go to stderr.  Every table goes through one writer, _write,
which checks every float before it writes anything.  Exit codes: 0
success, 1 verification failure, 2 usage or configuration error, which
includes a result that overflows double precision and an oracle
eigensolve that fails: either is reported before anything is printed; 141
(128 + SIGPIPE, what a shell reports for a writer killed by a closed pipe)
when the reader closes stdout early, as `matrixmech ... | head` does, with
nothing on stderr.

Options may come from a plain key=value config file (# comments allowed),
selected with --config or the MATRIXMECH_CONFIG environment variable;
command-line flags override file values, which override OPTIONS' defaults.
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
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

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


def jnum(x) -> float:
    """Round to the serialized precision so JSON round-trips exactly; a
    non-finite x raises OverflowError."""
    x = float(x)
    if not math.isfinite(x):
        raise OverflowError(f"non-finite result {x}")
    return float(NUMBER % x)


@dataclass(frozen=True)
class Option:
    field: str  # attribute of the resolved configuration
    cast: type
    default: object = None
    choices: Optional[Tuple[str, ...]] = None
    commands: FrozenSet[str] = TABLES | {"classical"}  # the subcommands that read it


_SPEC = OscillatorSpec()  # the oscillator options' defaults

# Every option, keyed by its flag name (a flag of only the subcommands that
# read it) and config-file key (of any subcommand); both are checked alike.
OPTIONS = {
    "m": Option("m", float, _SPEC.m),
    "omega0": Option("omega0", float, _SPEC.omega0),
    "lambda": Option("lam", float, _SPEC.lam),
    "h": Option("planck_h", float, _SPEC.planck_h),
    "nmax": Option("n_max", int, 10, commands=TABLES),
    "order": Option("order", int, 1),
    "kind": Option("kind", str, _SPEC.kind.cli_name, tuple(k.cli_name for k in Kind)),
    "format": Option("fmt", str, "csv", ("csv", "json")),
    "tol": Option("tol", float, 1e-12, commands=frozenset({"verify"})),
    "oracle-n": Option("oracle_n", int, commands=frozenset({"verify", "oracle-compare"})),
    "mutate": Option("mutate", str, choices=vf.MUTATIONS, commands=TABLES),
    "a1": Option("a1", float, 1.0, commands=frozenset({"classical"})),
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


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Each option's value: its flag, else its config-file value, else its
    default."""
    config = argparse.Namespace(**{o.field: o.default for o in OPTIONS.values()})
    path = args.config or os.environ.get(ENV_CONFIG)
    if path:
        vars(config).update(read_config_file(path))
    for option in OPTIONS.values():
        value = getattr(args, option.field, None)
        if value is not None:
            setattr(config, option.field, value)
    if not 1 <= config.n_max <= MAX_NMAX:
        raise ConfigError(f"nmax must be between 1 and {MAX_NMAX}")
    if config.oracle_n is not None and not 8 <= config.oracle_n <= MAX_ORACLE_N:
        raise ConfigError(f"oracle-n must be between 8 and {MAX_ORACLE_N}")
    if not (math.isfinite(config.tol) and config.tol > 0):
        raise ConfigError("tol must be a finite number above 0")
    if not math.isfinite(config.a1):
        raise ConfigError("a1 must be finite")
    return config


def _spec(config: argparse.Namespace) -> OscillatorSpec:
    return OscillatorSpec(m=config.m, omega0=config.omega0, lam=config.lam,
                          planck_h=config.planck_h, kind=Kind.from_name(config.kind))


def _solved_table(config: argparse.Namespace) -> ld.TransitionTable:
    table = ld.solve_quantum(_spec(config), n_max=config.n_max, order=config.order)
    if config.mutate:
        vf.apply_mutation(table, config.mutate)
    return table


def _cells(column: np.ndarray) -> list:
    """A column as JSON values, each float at the printed precision."""
    values = column.tolist()
    return [float(NUMBER % v) for v in values] if column.dtype.kind == "f" else values


def _records(keys: Sequence[str], *columns: np.ndarray) -> List[dict]:
    """One JSON object per row of columns, keyed by keys."""
    return [dict(zip(keys, row)) for row in zip(*map(_cells, columns))]


def _write(config: argparse.Namespace, header: str, blocks: Sequence[tuple],
           payload: Callable[[], dict]) -> None:
    """Write a table as CSV under header, or payload() as JSON.

    blocks are the table's rows in order, each a tuple of cells: an array,
    one value per row, or a str written into every row.  Every float is
    checked once, in row order, before anything is written: a non-finite
    one raises OverflowError naming the first.  Each CSV row is one
    %-format, NUMBER for a float and %s for any other value.  payload is
    called for JSON only, before the check, so a scalar it rounds with jnum
    is checked first, as the payload orders it.
    """
    text = json.dumps(payload()) if config.fmt == "json" else None
    columns = [[c for c in b if not isinstance(c, str)] for b in blocks]
    floats = np.concatenate([np.array([c for c in cs if c.dtype.kind == "f"]).T.ravel()
                             for cs in columns])
    bad = np.flatnonzero(~np.isfinite(floats))
    if bad.size:
        raise OverflowError(f"non-finite result {float(floats[bad[0]])}")
    if text is not None:
        print(text)  # text, then newline: a table past the pipe's buffer sees a closed stdout
        return
    rows = [",".join(c if isinstance(c, str) else NUMBER if c.dtype.kind == "f" else "%s"
                     for c in b) + "\n" for b in blocks]
    sys.stdout.write(header + "\n" + "".join([row % r for row, cs in zip(rows, columns)
                                              for r in zip(*(c.tolist() for c in cs))]))


def cmd_levels(config: argparse.Namespace) -> int:
    table = _solved_table(config)
    pub = config.n_max + 1
    w = np.zeros((2, pub))  # W0 and W1 (order 0 has no W1); 0 + W prints -0.0 as 0
    w[: table.order + 1] += table.w[:, :pub]
    header = "n,W0,W1,W_total"
    columns = (np.arange(pub), w[0], w[1], horner(w, config.lam))
    _write(config, header, [columns], lambda: {"levels": _records(header.split(","), *columns)})
    return 0


def cmd_lines(config: argparse.Namespace) -> int:
    header = "n,m,omega,rel_intensity,amp_order"
    columns = ld.line_columns(_solved_table(config))
    _write(config, header, [columns], lambda: {"lines": _records(header.split(","), *columns)})
    return 0


def cmd_classical(config: argparse.Namespace) -> int:
    series = cl.solve_classical(_spec(config), config.a1, order=config.order)
    energy = cl.classical_energy(series)
    keys, values = zip(*sorted(series.coeffs.items()))
    coeffs = (*np.array(keys).T, np.array(values, dtype=float))
    omega_sq = np.array(series.omega_sq.coeffs, dtype=float)
    constant = np.array([energy.constant[k] for k in range(energy.valid_order + 1)], dtype=float)
    periodic = np.array([energy.max_periodic()], dtype=float)
    blocks = [("coeff", *coeffs), ("omega_sq", "", np.arange(len(omega_sq)), omega_sq),
              ("energy_constant", "", np.arange(len(constant)), constant),
              ("energy_periodic_max", "", "", periodic)]
    _write(config, "quantity,tau,order,value", blocks, lambda: {
        "coefficients": _records(("tau", "order", "value"), *coeffs),
        "omega_sq": _cells(omega_sq), "energy_constant": _cells(constant),
        "energy_periodic_max": _cells(periodic)[0],
    })
    return 0


def cmd_verify(config: argparse.Namespace) -> int:
    report = vf.run_verification(_solved_table(config), config.tol, config.oracle_n)
    names, passed, measured, tolerance, details = map(np.array, zip(*(
        (c.name, c.passed, c.measured, c.tolerance, c.detail) for c in report.checks)))
    _write(config, "check,status,measured,tolerance",
           [(names, np.where(passed, "PASS", "FAIL"), measured, tolerance)],
           lambda: {"passed": report.passed, "checks": _records(
               ("name", "passed", "measured", "tolerance", "detail"),
               names, passed, measured, tolerance, details)})
    return 0 if report.passed else CHECK_ERROR


def cmd_oracle_compare(config: argparse.Namespace) -> int:
    report = orc.compare(_solved_table(config), n_basis=config.oracle_n)
    couplings, track = report.exact.shape
    levels = (np.repeat(report.lambdas, track), np.tile(np.arange(track), couplings),
              report.perturbative.ravel(), report.exact.ravel(), report.residual.ravel())
    fit_n = sorted(report.fit_exponent)
    fits = (np.array(fit_n), np.array([report.fit_constant[n] for n in fit_n]),
            np.array([report.fit_exponent[n] for n in fit_n]))
    amplitudes = (np.arange(1, len(report.measured) + 1), report.measured,
                  report.sum_rule_form, report.series_form)
    blocks = [("level", *levels), ("fit", "", *fits, ""),
              ("amplitude", np.full(len(report.measured), report.base_lam, dtype=float),
               *amplitudes)]
    _write(config, "row,lambda,n,value1,value2,value3", blocks, lambda: {
        "passed": report.passed, "n_basis": report.n_basis,
        "convergence_delta": jnum(report.convergence_delta
                                  * (report.spec.hbar * report.spec.omega0)),
        "levels": _records(("lambda", "n", "W_pert", "E_exact", "residual"), *levels),
        "fits": _records(("n", "constant", "exponent"), *fits),
        "amplitudes": _records(("n", "measured", "sum_rule_form", "series_form"), *amplitudes),
        "failures": report.failures,
    })
    if config.fmt == "csv":
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
