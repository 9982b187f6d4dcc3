import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from matrixmech.cli import main
from matrixmech.ladder import solve_quantum
from matrixmech.oscillator import Kind, OscillatorSpec
from matrixmech.verify import apply_mutation, run_verification


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_levels_harmonic_golden(capsys):
    code, out, _ = run(capsys, "levels", "--kind", "harmonic", "--nmax", "3")
    assert code == 0
    assert out == ("n,W0,W1,W_total\n"
                   "0,0.5,0,0.5\n"
                   "1,1.5,0,1.5\n"
                   "2,2.5,0,2.5\n"
                   "3,3.5,0,3.5\n")


def test_levels_x3_values(capsys):
    code, out, _ = run(capsys, "levels", "--kind", "x3", "--lambda", "0.001",
                       "--nmax", "1")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert math.isclose(float(rows[0][3]), 0.5001875, abs_tol=1e-12)
    assert math.isclose(float(rows[1][3]), 1.5009375, abs_tol=1e-12)


def test_levels_zero_coupling_matches_harmonic(capsys):
    _, a, _ = run(capsys, "levels", "--kind", "x3", "--lambda", "0", "--nmax", "4")
    _, b, _ = run(capsys, "levels", "--kind", "harmonic", "--nmax", "4")
    assert a.splitlines()[0] == b.splitlines()[0]
    for ra, rb in zip(a.splitlines()[1:], b.splitlines()[1:]):
        fa, fb = [float(x) for x in ra.split(",")], [float(x) for x in rb.split(",")]
        assert fa[0] == fb[0]
        assert math.isclose(fa[3], fb[3], abs_tol=1e-12)


def test_byte_determinism(capsys):
    args = ("lines", "--kind", "x3", "--lambda", "0.002", "--nmax", "6")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_lines_x3_fundamental(capsys):
    code, out, _ = run(capsys, "lines", "--kind", "x3", "--lambda", "0.001",
                       "--nmax", "2")
    assert code == 0
    row = next(r for r in out.strip().splitlines()[1:] if r.startswith("1,0,"))
    assert math.isclose(float(row.split(",")[2]), 1.00075, rel_tol=1e-12)


def test_lines_x2_overtones_flagged(capsys):
    code, out, _ = run(capsys, "lines", "--kind", "x2", "--lambda", "0.001",
                       "--nmax", "4", "--format", "json")
    assert code == 0
    lines = json.loads(out)["lines"]
    overtones = [l for l in lines if l["n"] - l["m"] == 2]
    assert overtones and all(l["amp_order"] == 1 for l in overtones)
    fundamentals = [l for l in lines if l["n"] - l["m"] == 1]
    # intensity grows with n along the fundamental family
    ints = [l["rel_intensity"] for l in sorted(fundamentals, key=lambda l: l["n"])]
    assert ints == sorted(ints)
    assert math.isclose(max(ints), 1.0)


def test_classical_golden(capsys):
    code, out, _ = run(capsys, "classical", "--kind", "x2", "--a1", "1")
    assert code == 0
    values = {}
    for line in out.strip().splitlines()[1:]:
        q, tau, order, value = line.split(",")
        values[(q, tau, order)] = float(value)
    assert math.isclose(values[("coeff", "0", "1")], -0.5, rel_tol=1e-12)
    assert math.isclose(values[("coeff", "2", "1")], 1 / 6, rel_tol=1e-12)
    assert math.isclose(values[("coeff", "3", "2")], 1 / 48, rel_tol=1e-12)


@pytest.mark.parametrize("kind", ["harmonic", "x2", "x3"])
@pytest.mark.parametrize("a1", ["0.5", "0"])
def test_classical_zero_coupling_single_row(capsys, a1, kind):
    code, out, _ = run(capsys, "classical", "--kind", kind, "--a1", a1)
    assert code == 0
    coeff_rows = [l for l in out.splitlines() if l.startswith("coeff,")]
    # the fundamental reads back a1; nothing else is nonzero without a
    # force term or at zero amplitude
    assert f"coeff,1,0,{a1}" in coeff_rows
    if kind == "harmonic" or a1 == "0":
        assert coeff_rows == [f"coeff,1,0,{a1}"]


def test_classical_x3_json_roundtrip(capsys):
    code, out, _ = run(capsys, "classical", "--kind", "x3", "--a1", "1",
                       "--lambda", "0.001", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert math.isclose(payload["omega_sq"][1], 0.75, rel_tol=1e-12)
    a3 = next(c for c in payload["coefficients"] if c["tau"] == 3)
    assert math.isclose(a3["value"], 0.03125, rel_tol=1e-12)
    # serialize -> parse -> serialize is byte-stable
    assert json.dumps(json.loads(out)) == json.dumps(json.loads(json.dumps(payload)))


def test_json_reparse_identical(capsys):
    _, out, _ = run(capsys, "levels", "--kind", "x3", "--lambda", "0.001",
                    "--nmax", "3", "--format", "json")
    payload = json.loads(out)
    assert json.dumps(payload) + "\n" == out


def test_verify_defaults_pass(capsys):
    code, out, _ = run(capsys, "verify", "--nmax", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])
    names = {c["name"] for c in payload["checks"]}
    assert "harmonic_level_spacing" in names
    assert "quantization_sum_rule" in names


@pytest.mark.parametrize(
    "kind,mutate,expected_fail",
    [
        ("x2", "a2", "eom_residual_overtone2"),
        ("x2", "a0", "offdiagonal_energy"),
        ("x3", "w", "frequency_consistency"),
    ],
)
def test_verify_mutations_fail_named_check(capsys, kind, mutate, expected_fail):
    code, out, _ = run(capsys, "verify", "--kind", kind, "--lambda", "0.001",
                       "--nmax", "6", "--mutate", mutate, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    status = {c["name"]: c["passed"] for c in payload["checks"]}
    assert status[expected_fail] is False


# The named check's measured value before entry scales took the size of
# the cancelling terms into account; a mutation must fail at least as far
# above the tolerance as it did then.
MUTATION_MARGINS = {
    ("a2", 5): 1.118033988749893, ("a2", 6): 1.3693063937629104,
    ("a2", 10): 2.371708245126268, ("a2", 20): 4.873397172404482,
    ("a0", 5): 5.590169943749474, ("a0", 6): 7.348469228349535,
    ("a0", 10): 15.811388300841896, ("a0", 20): 44.721359549995796,
    ("w", 5): 1.0000000005838672e-06, ("w", 6): 1.0000000005838672e-06,
    ("w", 10): 1.0000000028043132e-06, ("w", 20): 1.0000000028043132e-06,
}
MUTATION_TARGETS = {"a2": ("x2", "eom_residual_overtone2"),
                    "a0": ("x2", "offdiagonal_energy"),
                    "w": ("x3", "frequency_consistency")}


@pytest.mark.parametrize("mutate,n_max", sorted(MUTATION_MARGINS))
def test_verify_mutations_keep_their_margin(mutate, n_max):
    kind, name = MUTATION_TARGETS[mutate]
    spec = OscillatorSpec(lam=1e-3, kind=Kind.from_name(kind))
    table = solve_quantum(spec, n_max=n_max, order=1)
    apply_mutation(table, mutate)
    report = run_verification(table)
    check = next(c for c in report.checks if c.name == name)
    assert not check.passed
    assert check.measured / check.tolerance >= MUTATION_MARGINS[mutate, n_max] / 1e-12


def test_verify_x3_round_off_passes_high_on_the_ladder(capsys):
    # at n_max 48 the x3 residuals' terms are ~500 natural units, so their
    # round-off alone used to exceed 1e-12 of the unit
    code, out, _ = run(capsys, "verify", "--kind", "x3", "--lambda", "0.001",
                       "--nmax", "48", "--format", "json")
    assert code == 0, [c for c in json.loads(out)["checks"] if not c["passed"]]


# The same physics in other units: every verify check divides by a unit
# built from the spec, so a run at the same smallness ratio r passes alike.
UNIT_SETS = {
    "default": {},
    "small_omega0": {"omega0": 0.01},
    "odd": {"m": 1.7, "omega0": 0.6, "planck_h": 3.1},
    "large_omega0_small_h": {"omega0": 100.0, "planck_h": 1e-3},
}
UNIT_FLAGS = {"m": "--m", "omega0": "--omega0", "planck_h": "--h"}


def verify_argv(kind, r, units, n_max):
    """verify argv at the coupling whose smallness ratio is r in these units."""
    spec = OscillatorSpec(kind=Kind.from_name(kind), **units)
    lam = r / spec.coupling_unit(spec.ladder_amplitude)
    argv = ["verify", "--kind", kind, "--lambda", repr(lam), "--nmax", str(n_max)]
    for key, value in units.items():
        argv += [UNIT_FLAGS[key], repr(value)]
    return argv + ["--format", "json"]


def failed_checks(out):
    return [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]


@pytest.mark.parametrize("units", sorted(UNIT_SETS))
@pytest.mark.parametrize("kind", ["x2", "x3"])
def test_verify_passes_in_any_units_at_the_same_r(capsys, kind, units):
    r = OscillatorSpec(lam=0.01, kind=Kind.from_name(kind)).smallness_ratio()
    code, out, _ = run(capsys, *verify_argv(kind, r, UNIT_SETS[units], 10))
    assert failed_checks(out) == []
    assert code == 0


@pytest.mark.parametrize("units", ["default", "small_omega0"])
@pytest.mark.parametrize("mutate", sorted(MUTATION_TARGETS))
def test_verify_mutations_fail_named_check_in_any_units(capsys, mutate, units):
    kind, name = MUTATION_TARGETS[mutate]
    r = OscillatorSpec(lam=1e-3, kind=Kind.from_name(kind)).smallness_ratio()
    argv = verify_argv(kind, r, UNIT_SETS[units], 10)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and name not in failed_checks(out)
    code, out, _ = run(capsys, *argv, "--mutate", mutate)
    assert code == 1 and name in failed_checks(out)


def test_verify_x3_round_off_passes_at_nmax_128(capsys):
    # at n_max 128 the level differences carry round-off above 1e-12 of
    # omega0 * u; the size of the two levels sets their floor
    code, out, _ = run(capsys, "verify", "--kind", "x3", "--lambda", "0.001",
                       "--nmax", "128", "--format", "json")
    assert failed_checks(out) == []
    assert code == 0


def test_smallness_warning_printed_once(capsys):
    # the ladder and the classical solve both warn; the run reports it once
    code, out, err = run(capsys, "verify", "--kind", "x2", "--lambda", "0.3", "--nmax", "10")
    assert code == 1
    assert out.startswith("check,status,measured,tolerance\n")
    assert err == ("warning: coupling ratio r=0.424 exceeds r_max=0.1; "
                   "truncated series results are unreliable\n")


def test_verify_mutation_kind_mismatch_is_config_error(capsys):
    code, _, err = run(capsys, "verify", "--kind", "harmonic", "--mutate", "a2")
    assert code == 2
    assert "a2" in err


def test_config_file_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample configuration\nkind=x3\nlambda=0.001\nnmax=2\n")
    code, out, _ = run(capsys, "levels", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().splitlines()) == 4  # header + n=0..2
    # flags override the file
    code, out, _ = run(capsys, "levels", "--config", str(cfg), "--nmax", "1")
    assert len(out.strip().splitlines()) == 3


def test_config_env_var(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("kind=x3\nlambda=0.001\nnmax=1\n")
    monkeypatch.setenv("MATRIXMECH_CONFIG", str(cfg))
    code, out, _ = run(capsys, "levels")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert math.isclose(float(rows[0].split(",")[3]), 0.5001875, abs_tol=1e-12)


def test_bad_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key=3\n")
    code, _, err = run(capsys, "levels", "--config", str(cfg))
    assert code == 2 and "unknown key" in err

    code, _, err = run(capsys, "levels", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2

    code, _, err = run(capsys, "levels", "--nmax", "0")
    assert code == 2

    code, _, _ = run(capsys, "levels", "--kind", "bogus")
    assert code == 2

    # a file value outside its allowed set exits 2 as the flag does
    for line in ("format=xml", "kind=x4", "mutate=zz"):
        cfg.write_text(line + "\n")
        key, value = line.split("=")
        for command in ("levels", "classical"):
            code, out, err = run(capsys, command, "--config", str(cfg))
            assert (code, out) == (2, "") and f"{key} must be one of" in err
            code, out, _ = run(capsys, command, f"--{key}", value)
            assert (code, out) == (2, "")


def test_levels_order_zero(capsys):
    code, out, _ = run(capsys, "levels", "--kind", "x3", "--lambda", "0.001",
                       "--nmax", "2", "--order", "0")
    assert code == 0
    for row in out.strip().splitlines()[1:]:
        n, w0, w1, wt = row.split(",")
        assert float(w1) == 0.0
        assert math.isclose(float(wt), float(n) + 0.5, rel_tol=1e-12)


def test_oracle_compare_smoke(capsys):
    code, out, _ = run(capsys, "oracle-compare", "--kind", "x3",
                       "--lambda", "0.001", "--nmax", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    for fit in payload["fits"]:
        assert abs(fit["exponent"] - 2.0) < 0.2


def test_oracle_compare_reads_the_mutated_table(capsys):
    # W_pert comes from the solved table, so --mutate reaches the oracle
    code, _, err = run(capsys, "oracle-compare", "--kind", "x3", "--lambda", "0.001",
                       "--oracle-n", "64", "--mutate", "w")
    assert code == 1
    assert "mismatch: level n=1 " in err


def test_oracle_compare_honours_order(capsys):
    # at order 0 W_pert is the harmonic level and the residual is first order
    code, out, err = run(capsys, "oracle-compare", "--kind", "x3", "--lambda", "0.001",
                         "--oracle-n", "64", "--order", "0", "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert all(r["W_pert"] == r["n"] + 0.5 for r in payload["levels"])
    assert all(abs(fit["exponent"] - 1.0) < 0.2 for fit in payload["fits"])


@pytest.mark.parametrize("kind", ["x2", "x3"])
def test_verify_order_zero_scales_with_first_neglected_power(capsys, kind):
    code, out, _ = run(capsys, "verify", "--kind", kind, "--lambda", "0.001",
                       "--nmax", "8", "--order", "0", "--format", "json")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["oracle_scaling"]["passed"]
    assert checks["oracle_levels"]["passed"]


@pytest.mark.parametrize("kind", ["x2", "x3"])
def test_verify_mutated_levels_fail_the_oracle(capsys, kind):
    code, out, _ = run(capsys, "verify", "--kind", kind, "--lambda", "0.001",
                       "--nmax", "8", "--mutate", "w", "--format", "json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert not checks["oracle_levels"]["passed"]
    assert not checks["oracle_scaling"]["passed"]


@pytest.mark.parametrize("flag,value", [("--lambda", "nan"), ("--m", "inf")])
def test_non_finite_input_exits_2(capsys, flag, value):
    code, out, err = run(capsys, "levels", "--kind", "x3", flag, value)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("kind", ["harmonic", "x2", "x3"])
@pytest.mark.parametrize("command", ["levels", "lines", "classical", "verify",
                                     "oracle-compare"])
def test_underflowing_omega0_exits_2(capsys, command, kind):
    # omega0^2 underflows: rejected once, by the spec, before any work
    code, out, err = run(capsys, command, "--kind", kind, "--omega0", "1e-200",
                         "--lambda", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "omega0" in err


def test_verify_flags_unconverged_hardest_coupling(capsys):
    # the oracle sweep runs lam/2 .. 4*lam; at 4*lam = 0.16 the x2 spectrum
    # is not converged under basis doubling, and the check must say so
    argv = ("verify", "--kind", "x2", "--lambda", "0.04", "--nmax", "10")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    rows = {r.split(",")[0]: r.split(",") for r in out.strip().splitlines()[1:]}
    assert rows["oracle_convergence"][1] == "FAIL"
    assert float(rows["oracle_convergence"][2]) > 1.0
    # the collapsed coupling is blamed on convergence alone
    assert rows["oracle_levels"][1:3] == ["PASS", "0"]
    assert rows["oracle_scaling"][1] == "PASS"
    assert [r[1] for r in rows.values()].count("FAIL") == 1
    # and the JSON detail names it
    code, out, _ = run(capsys, *argv, "--format", "json")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    assert checks["oracle_convergence"]["detail"] == (
        "convergence lam=0.16: doubling delta 5.623e+01 > 1.000e-10")


def test_verify_scaling_without_a_converged_fit_fails():
    # every coupling, lam/2 = 0.15 included, has collapsed: nothing to fit
    spec = OscillatorSpec(lam=0.3, kind=Kind.QUADRATIC_FORCE)
    with pytest.warns(UserWarning):
        report = run_verification(solve_quantum(spec, n_max=4, order=1))
    checks = {c.name: c for c in report.checks}
    assert not checks["oracle_scaling"].passed
    assert checks["oracle_scaling"].detail == "exponents []"


def test_verify_unconverged_sweep_compares_nothing(capsys):
    # no converged coupling leaves no level and no amplitude compared: both
    # checks fail and name the couplings instead of passing or blaming the series
    code, out, _ = run(capsys, "verify", "--kind", "x2", "--lambda", "0.3",
                       "--nmax", "10", "--format", "json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["oracle_levels"] == {
        "name": "oracle_levels", "passed": False, "measured": 1.0, "tolerance": 0.0,
        "detail": "level: none compared, unconverged lam=0.15, 0.3, 0.6, 1.2"}
    assert checks["oracle_amplitudes"] == {
        "name": "oracle_amplitudes", "passed": False, "measured": 1.0, "tolerance": 0.0,
        "detail": "amplitude: none compared, unconverged lam=0.15"}
    assert not checks["oracle_convergence"]["passed"]


# a coupling certified at the gate's rung, in units where hbar*omega0
# rounds so that rung*(hbar*omega0) lies one ulp above gate*hbar*omega0
UNITS_AT_GATE = ("--kind", "x2", "--m", "0.9425044931481068", "--omega0", "1.7694189082990701",
                 "--h", "4.014574082206753", "--lambda", "0.02529056749899093", "--nmax", "1",
                 "--oracle-n", "8")


def test_coupling_certified_at_the_gate_is_converged_in_any_units(capsys):
    code, out, _ = run(capsys, "verify", *UNITS_AT_GATE)
    assert code == 0
    assert "\noracle_convergence,PASS,1e-10,1e-10\n" in out
    code, out, err = run(capsys, "oracle-compare", *UNITS_AT_GATE, "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["passed"] and err == ""
    assert payload["convergence_delta"] == 1.13055129564731e-10  # 1e-10*hbar*omega0


@pytest.mark.parametrize("argv,verdict", [
    # each case: oracle-compare's exit code and the reason verify gives
    (("--kind", "x2", "--lambda", "3e-08", "--nmax", "6"), 1),  # exponent, amplitudes on round-off
    (("--kind", "x3", "--lambda", "1e-08", "--nmax", "2"), 1),  # exponent fit on round-off
    (("--kind", "x3", "--lambda", "5e-09", "--nmax", "6"), 1),  # exponent, amplitudes on round-off
    (("--kind", "x3", "--lambda", "0.04", "--nmax", "6"), 1),  # fit bends: 4*lam is past R_MAX
    (("--kind", "x2", "--lambda", "0.04", "--nmax", "10"), 1),  # 4*lam unconverged
    (("--kind", "x2", "--lambda", "0.3", "--nmax", "10"), 1),  # nothing converged
    (("--kind", "x2", "--lambda", "0.003", "--nmax", "10"), 0),  # benchmark-like
    (UNITS_AT_GATE, 0),
])
def test_verify_and_oracle_compare_give_one_verdict(capsys, argv, verdict):
    code, _, _ = run(capsys, "oracle-compare", *argv)
    assert code == verdict
    _, out, _ = run(capsys, "verify", *argv, "--format", "json")
    checks = json.loads(out)["checks"]
    assert all(c["passed"] == (c["measured"] <= c["tolerance"]) for c in checks)
    oracle = [c for c in checks if c["name"].startswith("oracle_")]
    assert len(oracle) == 4
    assert all(c["passed"] for c in oracle) == (verdict == 0)


def test_oracle_compare_fails_unconverged_basis(capsys):
    # at 4*lam = 0.06 the x2 basis of 256 is not converged: exit 1, with
    # a convergence failure of its own beside the level rows
    argv = ("oracle-compare", "--kind", "x2", "--lambda", "0.015", "--nmax", "5",
            "--oracle-n", "256")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out.startswith("row,lambda,n,value1,value2,value3\nlevel,")
    # the delta is the smallest rung of the oracle's DELTA_LADDER that the
    # counts certify, 10^2.25 hbar*omega0 (the doubled basis moves by 122.85)
    assert err == "mismatch: convergence lam=0.06: doubling delta 1.778e+02 > 1.000e-10\n"
    code, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 1 and not payload["passed"]
    assert math.isclose(payload["convergence_delta"], 10**2.25, rel_tol=1e-12)
    assert [f.split(":")[0] for f in payload["failures"]] == ["convergence lam=0.06"]


def test_verify_tracks_n_max_levels(monkeypatch):
    # n_track = min(5, n_max) for verify and oracle-compare alike, so
    # --nmax 1 compares the amplitude n = 1
    from matrixmech import verify

    reports = []
    real_compare = verify.orc.compare

    def spy(*args, **kwargs):
        reports.append(real_compare(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(verify.orc, "compare", spy)
    spec = OscillatorSpec(lam=0.001, kind=Kind.QUADRATIC_FORCE)
    for n_max, n_track in ((1, 1), (3, 3), (10, 5)):
        assert run_verification(solve_quantum(spec, n_max=n_max, order=1)).passed
        rep = reports[-1]
        assert rep.n_track == n_track
        # one amplitude per n = 1 .. n_track, at index n - 1
        assert rep.measured.shape == rep.sum_rule_form.shape == rep.series_form.shape == (n_track,)


ROOT = Path(__file__).resolve().parents[1]


def python_m(*argv):
    """`python -m matrixmech argv` in a fresh process on this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "matrixmech", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


README_EXAMPLES = (
    "levels --kind x3 --lambda 0.001 --nmax 10",
    "lines --kind x2 --lambda 0.001 --nmax 10 --format json",
    "classical --kind x3 --a1 1.0 --lambda 0.001",
    "verify --kind x3 --lambda 0.001 --nmax 8",
    "oracle-compare --kind x3 --lambda 0.001 --oracle-n 64",
)


@pytest.mark.parametrize("args,read", [(args, 0) for args in README_EXAMPLES] + [
    # 151 KB, far past the pipe's buffer: the reader stops after 100 bytes
    ("lines --kind x2 --lambda 1e-3 --nmax 512 --format json", 100),
])
def test_closed_stdout_ends_quietly(args, read):
    # the reader closes its end after `read` bytes (0: before the child
    # writes, as `| true` does): the run ends with 128 + SIGPIPE, what a
    # shell reports for a writer a closed pipe killed, and says nothing
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-m", "matrixmech", *args.split()],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def test_module_entry_point():
    proc = python_m("levels", "--kind", "x3", "--lambda", "0.001", "--nmax", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "n,W0,W1,W_total"
    assert len(lines) == 5


def test_console_script_matches_the_module_entry_point(capsys, monkeypatch):
    # the installed `matrixmech` script calls pyproject's target with no
    # arguments, so it reads sys.argv; it prints what `python -m` prints
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = target["matrixmech"].partition(":")
    entry = getattr(importlib.import_module(module), name)
    argv = ["levels", "--kind", "x3", "--lambda", "0.001", "--nmax", "3"]
    monkeypatch.setattr(sys, "argv", ["matrixmech", *argv])
    assert entry() == 0
    proc = python_m(*argv)
    assert proc.returncode == 0, proc.stderr
    assert capsys.readouterr().out == proc.stdout


@pytest.mark.parametrize("kind", ["x2", "x3"])
def test_banded_oracle_output_ignores_blas_threads(kind):
    # no LAPACK call of a converged sweep sees an N-sized matrix, at 384
    # states or at the default basis (56 at n_max 10): the Rayleigh-Ritz
    # blocks (at most 128 rows) and the inertia counts come out the same to
    # the bit on one BLAS thread and on two, for both commands
    src = str(Path(__file__).resolve().parents[1] / "src")
    for command, *size in (("oracle-compare", "--nmax", "6", "--oracle-n", "384"),
                           ("oracle-compare", "--nmax", "10"), ("verify", "--nmax", "10")):
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p)
            proc = subprocess.run(
                [sys.executable, "-m", "matrixmech", command, "--kind", kind,
                 "--lambda", "0.003", *size],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1], (command, *size)


def test_size_caps_checked_before_work(capsys, monkeypatch):
    from matrixmech import cli, ladder, oracle

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(oracle, "_hamiltonian_bands", forbidden)
    monkeypatch.setattr(oracle, "diagonalize", forbidden)
    monkeypatch.setattr(ladder, "solve_quantum", forbidden)

    over_n = str(cli.MAX_ORACLE_N + 1)
    for command in ("oracle-compare", "verify"):
        code, out, err = run(capsys, command, "--kind", "x3", "--lambda", "0.001",
                             "--oracle-n", over_n)
        assert code == 2 and out == ""
        assert str(cli.MAX_ORACLE_N) in err

    over_nmax = str(cli.MAX_NMAX + 1)
    for command in ("levels", "lines", "verify", "oracle-compare"):
        code, out, err = run(capsys, command, "--kind", "x3", "--lambda", "0.001",
                             "--nmax", over_nmax)
        assert code == 2 and out == ""
        assert str(cli.MAX_NMAX) in err

    # the caps themselves are accepted
    args = cli.build_parser().parse_args(
        ["verify", "--nmax", str(cli.MAX_NMAX), "--oracle-n", str(cli.MAX_ORACLE_N)])
    config = cli.resolve_config(args)
    assert (config.n_max, config.oracle_n) == (cli.MAX_NMAX, cli.MAX_ORACLE_N)
    assert cli.MAX_NMAX > 160


@pytest.mark.parametrize("argv", [
    ("verify", "--tol", "inf"),
    ("verify", "--tol", "nan"),
    ("verify", "--tol", "-1"),
    ("verify", "--tol", "0"),
    ("classical", "--a1", "nan"),
    ("classical", "--a1", "inf"),
    ("classical", "--a1", "-inf"),
])
def test_out_of_range_tol_and_a1_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert argv[1].lstrip("-") in err


def test_out_of_range_tol_in_config_file_exits_2(capsys, tmp_path):
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("tol=inf\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2 and out == "" and "tol" in err


@pytest.mark.parametrize("kind", ["x2", "x3"])
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_small_ladders_solve_at_order_one(capsys, kind, n_max):
    # the solver's pad covers the top states at every n_max >= 1
    code, out, _ = run(capsys, "verify", "--kind", kind, "--lambda", "0.001",
                       "--nmax", str(n_max))
    assert code == 0, out
    code, small, _ = run(capsys, "levels", "--kind", kind, "--lambda", "0.001",
                         "--nmax", str(n_max))
    assert code == 0
    _, large, _ = run(capsys, "levels", "--kind", kind, "--lambda", "0.001", "--nmax", "8")
    assert small.splitlines() == large.splitlines()[: n_max + 2]
    code, out, _ = run(capsys, "lines", "--kind", kind, "--lambda", "0.001",
                       "--nmax", str(n_max))
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    assert rows and all(int(r[0]) <= n_max for r in rows)
    assert max(float(r[3]) for r in rows) == 1.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ("levels", "--kind", "x3", "--nmax", "40", "--lambda", "1e307"),
    ("lines", "--kind", "x2", "--nmax", "2", "--lambda", "1e200"),
    ("verify", "--kind", "x3", "--nmax", "4", "--lambda", "1e300"),
    ("oracle-compare", "--kind", "x3", "--nmax", "4", "--lambda", "1e300"),
    # the oracle's Hamiltonian overflows: before any eigensolve, which failed
    # to converge or came back unsorted, and before NaN pivots left a
    # coupling unconverged
    ("oracle-compare", "--kind", "x3", "--lambda", "0", "--m", "1e-300"),
    ("oracle-compare", "--kind", "x2", "--lambda", "0", "--m", "1e-300"),
    ("oracle-compare", "--kind", "x3", "--lambda", "1e-3", "--h", "1e200"),
    ("oracle-compare", "--kind", "x3", "--lambda", "1e-3", "--m", "1e-152"),  # the 2N band
])
def test_overflowing_coupling_exits_2(capsys, argv, fmt):
    # inf/nan rows or an OverflowError become a usage error before any output
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error: the result overflows double precision")
    assert "warning:" not in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["verify", "oracle-compare"])
def test_failed_eigensolve_exits_2(capsys, monkeypatch, command, fmt):
    # the oracle's OracleError is reported like any error the run cannot
    # get past: exit 2, its reason on stderr and nothing on stdout; exit 1
    # would say that a check failed
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", diverge)
    code, out, err = run(capsys, command, "--kind", "x3", "--lambda", "0.001", "--nmax", "3",
                         "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: eigensolver did not converge: Eigenvalues did not converge\n"


def test_calls_in_one_process_are_independent(capsys, monkeypatch, tmp_path):
    from matrixmech import cli

    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind=x3\nlambda=0.001\nnmax=3\nformat=json\n")
    verify_x3 = ("verify", "--kind", "x3", "--lambda", "0.001", "--nmax", "6")
    steps = [  # (argv, MATRIXMECH_CONFIG, expected exit code)
        (("levels", "--bogus"), None, 2),
        (("--help",), None, 0),
        (("levels", "--config", str(cfg)), None, 0),
        (("levels",), None, 0),
        (("levels",), str(cfg), 0),
        (("levels",), None, 0),
        (verify_x3 + ("--mutate", "w"), None, 1),
        (verify_x3, None, 0),
    ]

    def run_steps():
        results = []
        for argv, env, _ in steps:
            if env is None:
                monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
            else:
                monkeypatch.setenv(cli.ENV_CONFIG, env)
            code, out, _ = run(capsys, *argv)
            results.append((code, out))
        return results

    cli._parser.cache_clear()
    shared = run_steps()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
    fresh = run_steps()
    assert [code for code, _ in shared] == [code for _, _, code in steps]
    assert shared == fresh
    assert shared[2] != shared[3] and shared[3] == shared[5] and shared[2] == shared[4]


def test_parser_built_once_per_process(capsys, monkeypatch):
    from matrixmech import cli

    builds = []
    real_build = cli.build_parser

    def counted():
        builds.append(1)
        return real_build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for i in range(10):
            run(capsys, "levels", "--nmax", str(i + 1) if i % 3 else "--bogus")
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


DEAD_FLAGS = [
    ("levels", "--tol", "1e-30"), ("levels", "--oracle-n", "64"),
    ("lines", "--tol", "1e-30"), ("lines", "--oracle-n", "64"),
    ("classical", "--nmax", "3"), ("classical", "--tol", "1e-30"),
    ("classical", "--oracle-n", "64"), ("classical", "--mutate", "w"),
    ("oracle-compare", "--tol", "1e-30"),
]


@pytest.mark.parametrize("command,flag,value", DEAD_FLAGS)
def test_flag_a_subcommand_does_not_read_exits_2(capsys, command, flag, value):
    code, out, err = run(capsys, command, "--kind", "x3", "--lambda", "0.001", flag, value)
    assert (code, out) == (2, "")
    assert flag in err


COMMON_FLAGS = {"--m", "--omega0", "--lambda", "--h", "--order", "--kind", "--format",
                "--config", "--help"}
COMMAND_FLAGS = {
    "levels": {"--nmax", "--mutate"},
    "lines": {"--nmax", "--mutate"},
    "classical": {"--a1"},
    "verify": {"--nmax", "--mutate", "--tol", "--oracle-n"},
    "oracle-compare": {"--nmax", "--mutate", "--oracle-n"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_subcommand_lists_exactly_its_flags(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert set(re.findall(r"--[a-z][a-z0-9-]*", out)) == COMMON_FLAGS | COMMAND_FLAGS[command]


@pytest.mark.parametrize("argv,lines", [
    (("levels", "--kind", "x3", "--lambda", "0.001", "--nmax", "4"),
     ("tol=1e-10", "oracle-n=64", "a1=0.5")),
    (("classical", "--kind", "x3", "--lambda", "0.001", "--a1", "1"), ("nmax=3", "oracle-n=64")),
])
def test_config_file_keys_stay_shared_across_subcommands(capsys, tmp_path, argv, lines):
    # a key the subcommand does not read is accepted from a file and changes nothing
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--config", str(cfg)) == (0, plain, "")


def _reference_table_output(command, config):
    """levels and lines as rows of LambdaSeries and SpectralLine values,
    fmt per value and one print per row."""
    from matrixmech import cli, ladder

    table = cli._solved_table(config)
    if command == "levels":
        rows = []
        for n in range(config.n_max + 1):
            w = table.level(n)
            rows.append((n, w[0], w[1], w.eval(config.lam)))
        if config.fmt == "json":
            print(json.dumps({"levels": [
                {"n": n, "W0": cli.jnum(w0), "W1": cli.jnum(w1), "W_total": cli.jnum(wt)}
                for (n, w0, w1, wt) in rows]}))
            return
        lines = [[str(n), cli.fmt(w0), cli.fmt(w1), cli.fmt(wt)] for (n, w0, w1, wt) in rows]
        header = "n,W0,W1,W_total"
    else:
        spectrum = ladder.line_spectrum(table)
        if config.fmt == "json":
            print(json.dumps({"lines": [
                {"n": l.upper, "m": l.lower, "omega": cli.jnum(l.omega),
                 "rel_intensity": cli.jnum(l.rel_intensity), "amp_order": l.leading_order}
                for l in spectrum]}))
            return
        lines = [[str(l.upper), str(l.lower), cli.fmt(l.omega), cli.fmt(l.rel_intensity),
                  str(l.leading_order)] for l in spectrum]
        header = "n,m,omega,rel_intensity,amp_order"
    print(header)
    for row in lines:
        print(",".join(row))


@pytest.mark.parametrize("kind, lam", [("harmonic", "0"), ("x2", "-0.002"), ("x2", "0"),
                                       ("x2", "0.001"), ("x3", "-0.001"), ("x3", "0"),
                                       ("x3", "0.002")])
@pytest.mark.parametrize("order", ["0", "1"])
def test_levels_and_lines_print_the_row_by_row_bytes(capsys, monkeypatch, kind, lam, order):
    # the tables come from one solve per n_max; the writer is what is compared
    from matrixmech import cli, ladder

    solved = {}
    solve = ladder.solve_quantum

    def solve_once(spec, n_max, order):
        if n_max not in solved:
            solved[n_max] = solve(spec, n_max=n_max, order=order)
        return solved[n_max]

    monkeypatch.setattr(ladder, "solve_quantum", solve_once)
    for n_max in ["1", "10", "48", "512"]:
        for command in ["levels", "lines"]:
            for fmt in ["csv", "json"]:
                argv = [command, "--kind", kind, "--lambda", lam, "--order", order,
                        "--nmax", n_max, "--format", fmt]
                code, out, err = run(capsys, *argv)
                assert code == 0 and err == ""
                _reference_table_output(command, cli.resolve_config(cli._parser().parse_args(argv)))
                assert out == capsys.readouterr().out, argv


def test_verify_names_a_series_frequency_below_zero(capsys):
    # at lambda -0.2 the x3 series omega(10, 9) = 1 - 0.2 * 0.75 * 10 is negative,
    # so the amplitude's closed form sqrt(n*h/(pi*m*omega)) has no value
    code, out, err = run(capsys, "verify", "--kind", "x3", "--lambda", "-0.2", "--nmax", "10")
    assert code == 2 and out == ""
    assert err == "error: series frequency omega(10, 9) = -0.5 is not positive at lambda -0.2" \
                  " (r = 0.4)\n"


def _doctor(table, variant):
    if variant == "signed zeros":
        table.w[table.w == 0] = -0.0
    else:  # the first non-finite value in row order is not the first by column
        table.w[1, 0] = np.inf  # level 0's W1
        table.w[0, 1] = np.nan  # level 1's W0
        table.w[0, 2] = -np.inf
        table.x.c[:, 1, 0] = table.x.c[:, 0, 1] = np.inf  # line (1, 0)'s amplitude
    return table


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("variant", ["signed zeros", "non-finite"])
@pytest.mark.parametrize("kind", ["x2", "x3"])
@pytest.mark.parametrize("command", ["levels", "lines"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_doctored_tables_print_as_row_by_row(capsys, monkeypatch, variant, kind, command, fmt):
    # a -0.0 coefficient prints as the LambdaSeries view prints it (0), and a
    # non-finite value stops the table at the first one in row order
    from matrixmech import cli

    solved = cli._solved_table
    monkeypatch.setattr(cli, "_solved_table", lambda config: _doctor(solved(config), variant))
    argv = [command, "--kind", kind, "--lambda", "0.001", "--nmax", "6", "--format", fmt]
    code, out, err = run(capsys, *argv)
    config = cli.resolve_config(cli._parser().parse_args(argv))
    if variant == "signed zeros":
        assert code == 0 and err == ""
        _reference_table_output(command, config)
        assert out == capsys.readouterr().out
    else:
        with pytest.raises(OverflowError) as caught:
            _reference_table_output(command, config)
        assert code == 2 and out == "" and capsys.readouterr().out == ""
        assert err == ("error: the result overflows double precision at these parameters "
                       f"({caught.value})\n")


@pytest.mark.parametrize("argv", [
    ("levels", "--kind", "x3", "--nmax", "3", "--lambda"),
    ("lines", "--kind", "x3", "--nmax", "3", "--format", "json", "--lambda"),
    ("verify", "--kind", "x2", "--nmax", "3", "--lambda"),
    ("oracle-compare", "--kind", "x3", "--nmax", "3", "--lambda"),
    ("classical", "--kind", "x3", "--a1", "1", "--lambda"),
    ("levels", "--kind", "x3", "--nmax", "3", "--lam"),  # an abbreviated flag
])
def test_negative_number_in_exponent_form_is_a_value(capsys, argv):
    # argparse reads -1e-3 as a flag unless it is joined to its own with '='
    spaced = run(capsys, *argv, "-1e-3")
    assert spaced == run(capsys, *argv[:-1], "--lambda=-1e-3")
    assert spaced[0] == 0 and spaced[1]


def test_negative_tol_in_exponent_form_names_tol(capsys):
    code, out, err = run(capsys, "verify", "--tol", "-1e-9")
    assert (code, out) == (2, "") and "tol must be a finite number above 0" in err
