"""Command-line front end: reproducible tables and verification reports.

Subcommands: levels | lines | classical | verify | oracle-compare.
All data goes to stdout with a fixed column order and 15 significant
digits, so identical configurations produce byte-identical output;
diagnostics go to stderr.  Exit codes: 0 success, 1 verification failure,
2 usage or configuration error.

Options may come from a plain key=value config file (# comments allowed),
selected with --config or the MATRIXMECH_CONFIG environment variable;
command-line flags override file values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import classical as cl
from . import ladder as ld
from . import oracle as orc
from . import verify as vf
from .oscillator import Kind, OscillatorSpec

ENV_CONFIG = "MATRIXMECH_CONFIG"

USAGE_ERROR = 2
CHECK_ERROR = 1


class ConfigError(ValueError):
    pass


def fmt(x) -> str:
    return f"{float(x):.15g}"


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
        try:
            kind = Kind.from_name(self.kind)
            return OscillatorSpec(
                m=self.m, omega0=self.omega0, lam=self.lam,
                planck_h=self.planck_h, kind=kind,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_CONFIG_KEYS = {
    "m": ("m", float),
    "omega0": ("omega0", float),
    "lambda": ("lam", float),
    "h": ("planck_h", float),
    "kind": ("kind", str),
    "nmax": ("n_max", int),
    "order": ("order", int),
    "format": ("fmt", str),
    "tol": ("tol", float),
    "oracle-n": ("oracle_n", int),
    "a1": ("a1", float),
    "mutate": ("mutate", str),
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
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                attr, cast = _CONFIG_KEYS[key]
                try:
                    values[attr] = cast(raw.strip())
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}") from exc
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
    for name, help_text in (
        ("levels", "level energies per coupling order"),
        ("lines", "spectral lines and relative intensities"),
        ("classical", "classical harmonic-balance coefficients and energy"),
        ("verify", "run every consistency check"),
        ("oracle-compare", "perturbative vs diagonalized levels/amplitudes"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--m", type=float, default=None)
        p.add_argument("--omega0", type=float, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--h", dest="planck_h", type=float, default=None)
        p.add_argument("--nmax", dest="n_max", type=int, default=None)
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--kind", choices=[k.cli_name for k in Kind], default=None)
        p.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--oracle-n", dest="oracle_n", type=int, default=None)
        p.add_argument("--config", default=None)
        p.add_argument("--mutate", choices=list(vf.MUTATIONS), default=None)
        if name == "classical":
            p.add_argument("--a1", type=float, default=None)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    path = args.config or os.environ.get(ENV_CONFIG)
    if path:
        for attr, value in read_config_file(path).items():
            setattr(config, attr, value)
    for attr in ("m", "omega0", "lam", "planck_h", "n_max", "order",
                 "kind", "fmt", "tol", "oracle_n", "a1", "mutate"):
        value = getattr(args, attr, None)
        if value is not None:
            setattr(config, attr, value)
    if config.n_max < 1:
        raise ConfigError("nmax must be >= 1")
    if config.order not in (0, 1):
        raise ConfigError("order must be 0 or 1")
    if config.oracle_n is not None and config.oracle_n < 8:
        raise ConfigError("oracle-n must be >= 8")
    return config


def _emit_csv(header: str, rows: List[List[str]]) -> None:
    print(header)
    for row in rows:
        print(",".join(row))


def _solved_table(config: RunConfig) -> ld.TransitionTable:
    # the solver needs a few states of headroom; report only 0..n_max
    n_eff = max(config.n_max, 3 * config.order + 1)
    table = ld.solve_quantum(config.spec(), n_max=n_eff, order=config.order)
    if config.mutate:
        vf.apply_mutation(table, config.mutate)
    return table


def cmd_levels(config: RunConfig) -> int:
    table = _solved_table(config)
    lam = config.lam
    rows = []
    for n in range(config.n_max + 1):
        w = table.level(n)
        rows.append((n, w[0], w[1], w.eval(lam)))
    if config.fmt == "json":
        payload = {
            "levels": [
                {"n": n, "W0": jnum(w0), "W1": jnum(w1), "W_total": jnum(wt)}
                for (n, w0, w1, wt) in rows
            ]
        }
        print(json.dumps(payload))
    else:
        _emit_csv("n,W0,W1,W_total",
                  [[str(n), fmt(w0), fmt(w1), fmt(wt)] for (n, w0, w1, wt) in rows])
    return 0


def cmd_lines(config: RunConfig) -> int:
    table = _solved_table(config)
    lines = [l for l in ld.line_spectrum(table) if l.upper <= config.n_max]
    peak = max((l.rel_intensity for l in lines), default=0.0)
    if peak:
        for l in lines:
            l.rel_intensity /= peak
    if config.fmt == "json":
        payload = {
            "lines": [
                {"n": l.upper, "m": l.lower, "omega": jnum(l.omega),
                 "rel_intensity": jnum(l.rel_intensity), "amp_order": l.leading_order}
                for l in lines
            ]
        }
        print(json.dumps(payload))
    else:
        _emit_csv(
            "n,m,omega,rel_intensity,amp_order",
            [[str(l.upper), str(l.lower), fmt(l.omega), fmt(l.rel_intensity),
              str(l.leading_order)] for l in lines],
        )
    return 0


def cmd_classical(config: RunConfig) -> int:
    spec = config.spec()
    series = cl.solve_classical(spec, config.a1, order=config.order)
    energy = cl.classical_energy(spec, series)
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
    report = vf.run_verification(
        config.spec(), n_max=config.n_max, order=config.order,
        tol=config.tol, oracle_n=config.oracle_n, mutate=config.mutate,
    )
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
    spec = config.spec()
    n_track = min(5, config.n_max)
    report = orc.compare(spec, orc.coupling_sweep(config.lam), n_track=n_track,
                         n_basis=config.oracle_n)
    if config.fmt == "json":
        payload = {
            "passed": report.passed,
            "n_basis": report.n_basis,
            "convergence_delta": jnum(report.convergence_delta),
            "levels": [
                {"lambda": jnum(r.lam), "n": r.n, "W_pert": jnum(r.perturbative),
                 "E_exact": jnum(r.exact), "residual": jnum(r.residual)}
                for r in report.levels
            ],
            "fits": [
                {"n": n, "constant": jnum(report.fit_constant[n]),
                 "exponent": jnum(report.fit_exponent[n])}
                for n in sorted(report.fit_exponent)
            ],
            "amplitudes": [
                {"n": a.n, "measured": jnum(a.measured),
                 "sum_rule_form": jnum(a.sum_rule_form),
                 "series_form": jnum(a.series_form)}
                for a in report.amplitudes
            ],
            "failures": report.failures,
        }
        print(json.dumps(payload))
    else:
        rows = [["level", fmt(r.lam), str(r.n), fmt(r.perturbative), fmt(r.exact),
                 fmt(r.residual)] for r in report.levels]
        rows += [["fit", "", str(n), fmt(report.fit_constant[n]),
                  fmt(report.fit_exponent[n]), ""] for n in sorted(report.fit_exponent)]
        rows += [["amplitude", fmt(a.lam), str(a.n), fmt(a.measured),
                  fmt(a.sum_rule_form), fmt(a.series_form)] for a in report.amplitudes]
        _emit_csv("row,lambda,n,value1,value2,value3", rows)
        for f in report.failures:
            print(f"mismatch: {f}", file=sys.stderr)
    return 0 if report.passed else CHECK_ERROR


_COMMANDS = {
    "levels": cmd_levels,
    "lines": cmd_lines,
    "classical": cmd_classical,
    "verify": cmd_verify,
    "oracle-compare": cmd_oracle_compare,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 0 if exc.code in (0, None) else USAGE_ERROR
    try:
        config = resolve_config(args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _COMMANDS[args.command](config)
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
        return code
    except (ConfigError, ValueError, ld.LadderError, cl.SeriesOrderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
