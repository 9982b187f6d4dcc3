"""Self-test of the benchmark's checkers.

Runs one operation of every workload on the real program, requires the
checkers to accept it, then corrupts single outputs and requires each
corruption to fail the operation.  Run from the root of a source checkout:

    python3 bench/selftest.py
"""

import unittest

import checks
import run
import workloads

SEED = 1
CLI = run.import_program()
RESULTS = {w: run.run_op(CLI, workloads.jobs(w, SEED), run.REFERENCE[w])[0]
           for w in workloads.WORKLOADS}


def corrupted(workload, pick, edit):
    """The workload's results with the first output pick(job) selects
    rewritten by edit(job, code, stdout) -> (code, stdout)."""
    jobs = workloads.jobs(workload, SEED)
    results = list(RESULTS[workload])
    i = next(i for i, job in enumerate(jobs) if pick(job))
    results[i] = edit(jobs[i], *results[i])
    return jobs, results


def edit_row(stdout, select, column, shift):
    """Add shift(row) to one column of the first CSV row select(row) accepts."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines[1:], 1):
        row = line.split(",")
        if select(row):
            row[column] = repr(float(row[column]) + shift(row))
            lines[i] = ",".join(row)
            return "\n".join(lines) + "\n"
    raise AssertionError("no row selected")


class CheckerTest(unittest.TestCase):
    def assert_fails(self, jobs, results):
        self.assertTrue(checks.check_op(jobs, results), "corrupted output was accepted")

    def test_program_output_passes(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                jobs = workloads.jobs(workload, SEED)
                self.assertEqual(checks.check_op(jobs, RESULTS[workload]), [])

    def test_w1_shifted(self):
        # every level of both kinds and sizes, one at a time
        for pick in (lambda j: j.command == "levels" and j.kind == "x2",
                     lambda j: j.command == "levels" and j.kind == "x3" and j.n_max == 48):
            n_max = next(j.n_max for j in workloads.jobs("ladder_tables", SEED) if pick(j))
            for n in range(n_max + 1):
                with self.subTest(n=n):
                    self.assert_fails(*corrupted(
                        "ladder_tables", pick,
                        lambda job, code, out: (code, edit_row(
                            out, lambda r: r[0] == str(n), 2, lambda r: 1e-6))))

    def test_ritz_breaking_line(self):
        for step in (1, 2, 3):
            with self.subTest(step=step):
                self.assert_fails(*corrupted(
                    "ladder_tables", lambda j: j.command == "lines" and j.kind == "x2",
                    lambda job, code, out: (code, edit_row(
                        out, lambda r: int(r[0]) - int(r[1]) == step, 2, lambda r: 1e-8))))

    def test_eigenvalue_off_by_lambda_squared(self):
        # every level row of every oracle job, in both directions
        for i, job in enumerate(workloads.jobs("oracle_sweep", SEED)):
            rows = [line.split(",") for line in RESULTS["oracle_sweep"][i][1].splitlines()]
            keys = [(r[1], r[2]) for r in rows if r[0] == "level"]
            for key in keys:
                for sign in (1.0, -1.0):
                    with self.subTest(job=job.argv, row=key, sign=sign):
                        self.assert_fails(*corrupted(
                            "oracle_sweep", lambda j: j == job,
                            lambda job, code, out: (code, edit_row(
                                out, lambda r: r[0] == "level" and (r[1], r[2]) == key,
                                4, lambda r: sign * float(r[1]) ** 2))))

    def test_mutated_verify_exits_zero(self):
        for name in workloads.MUTATIONS:
            with self.subTest(mutate=name):
                self.assert_fails(*corrupted(
                    "verify_audit", lambda j: j.mutate == name,
                    lambda job, code, out: (0, out)))

    def test_mutated_check_passes(self):
        def passing(out, check):
            return "\n".join(f"{check},PASS,0,1e-12" if line.startswith(f"{check},") else line
                             for line in out.splitlines())

        for name, (_, check) in workloads.MUTATIONS.items():
            with self.subTest(mutate=name):
                self.assert_fails(*corrupted(
                    "verify_audit", lambda j: j.mutate == name,
                    lambda job, code, out: (code, passing(out, check))))

    def test_crash_fails(self):
        self.assert_fails(*corrupted("verify_audit", lambda j: j.kind == "x3",
                                     lambda job, code, out: ("RuntimeError: boom", "")))


if __name__ == "__main__":
    unittest.main(verbosity=2)
