"""Self-test of the output checker: each defect must count as a failed scenario.

Run from the repository root:

    python3 bench/selftest.py

It needs neither gearnet nor a build: the CSVs and stdout it checks are
written by hand.
"""

from __future__ import annotations

import shutil
import sys
import unittest
from pathlib import Path

from checker import Checker, Expectation, Totals

WORK = Path(__file__).resolve().parent.parent / ".bench_work" / "selftest"

GOOD_CSV = (
    "t,in.omega,in.alpha,O1.omega,O1.alpha,O2.omega,O2.alpha\n"
    "0,2,0,1,0,3,0\n"
    "0.5,4,0,2,0,6,0\n"
    "1,2,0,0.5,0,3.5,0\n"
)


class CheckerSelfTest(unittest.TestCase):
    def setUp(self):
        WORK.mkdir(parents=True, exist_ok=True)
        self.csv = WORK / "s.csv"
        self.csv.write_text(GOOD_CSV)

    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def expectation(self, **kw) -> Expectation:
        base = dict(
            scenario="scenarios/s.json",
            csv=self.csv,
            header=tuple(GOOD_CSV.split("\n")[0].split(",")),
            steps=2,
            verify=False,
            rk4=False,
            speed_sum=("in", ("O1", "O2"), 2.0),  # O1 + O2 = 2 * in
        )
        base.update(kw)
        return Expectation(**base)

    def run_check(self, checker: Checker, code: int = 0, stdout: str | None = None) -> Totals:
        if stdout is None:
            stdout = "scenarios/s.json: wrote scenarios/s.csv\nbatch: 1/1 scenarios succeeded\n"
        totals = Totals()
        totals.add(checker.check(code, stdout))
        return totals

    def assert_failed(self, totals: Totals, problem: str) -> None:
        self.assertEqual((totals.attempted, totals.failed), (1, 1))
        self.assertTrue(any(problem in p for p in totals.problems), totals.problems)

    def test_good_output_passes(self):
        totals = self.run_check(Checker([self.expectation()]))
        self.assertEqual((totals.attempted, totals.failed, totals.steps_ok), (1, 0, 2))
        self.assertEqual(totals.problems, [])

    def test_nan_row_fails(self):
        self.csv.write_text(GOOD_CSV.replace("0.5,4,0,2,0,6,0", "0.5,nan,0,2,0,6,0"))
        self.assert_failed(self.run_check(Checker([self.expectation()])), "non-finite")

    def test_truncated_csv_fails(self):
        self.csv.write_text(GOOD_CSV[: GOOD_CSV.rindex("1,2,")])
        self.assert_failed(self.run_check(Checker([self.expectation()])), "rows")

    def test_cut_last_line_fails(self):
        self.csv.write_text(GOOD_CSV[:-4])
        self.assert_failed(self.run_check(Checker([self.expectation()])), "fields")

    def test_wrong_exit_code_fails(self):
        self.assert_failed(self.run_check(Checker([self.expectation()]), code=2), "exit code")

    def test_digest_mismatch_fails(self):
        checker = Checker([self.expectation()])
        self.assertEqual(self.run_check(checker).failed, 0)
        self.csv.write_text(GOOD_CSV.replace("3.5", "3.5000000000000004"))
        self.assert_failed(self.run_check(checker), "differs")

    def test_header_mismatch_fails(self):
        self.csv.write_text(GOOD_CSV.replace("O2.omega", "O3.omega", 1))
        self.assert_failed(self.run_check(Checker([self.expectation()])), "header")

    def test_broken_speed_law_fails(self):
        self.csv.write_text(GOOD_CSV.replace("1,2,0,0.5,0,3.5,0", "1,2,0,0.5,0,3.6,0"))
        self.assert_failed(self.run_check(Checker([self.expectation()])), "speed-sum")

    def test_missing_or_error_line_fails(self):
        checker = Checker([self.expectation()])
        self.assert_failed(self.run_check(checker, stdout="batch: 1/1\n"), "wrote")
        err = "scenarios/s.json: error: boom\nscenarios/s.json: wrote scenarios/s.csv\n"
        self.assert_failed(self.run_check(checker, code=1, stdout=err), "boom")

    def verdict_stdout(self, residual: str) -> str:
        return (
            "scenarios/s.json: wrote scenarios/s.csv\n"
            "scenarios/s.json: 0/1 applicable checks passed\n"
            f"scenarios/s.json: FAIL power_balance (max rel residual {residual})\n"
        )

    def test_known_defect_counts_as_failure_but_not_problem(self):
        checker = Checker([self.expectation(verify=True, rk4=True)])
        totals = self.run_check(checker, code=3, stdout=self.verdict_stdout("3.500e-02"))
        self.assertEqual((totals.attempted, totals.failed, totals.steps_ok), (1, 1, 0))
        self.assertEqual(totals.problems, [])
        self.assertEqual(totals.known, [("scenarios/s.json", "power_balance", 3.5e-2)])

    def test_failure_near_tolerance_is_a_problem(self):
        checker = Checker([self.expectation(verify=True, rk4=True)])
        totals = self.run_check(checker, code=3, stdout=self.verdict_stdout("5.000e-06"))
        self.assert_failed(totals, "FAIL power_balance")

    def test_power_balance_failure_under_euler_is_a_problem(self):
        checker = Checker([self.expectation(verify=True)])
        totals = self.run_check(checker, code=3, stdout=self.verdict_stdout("3.500e-02"))
        self.assert_failed(totals, "FAIL power_balance")


if __name__ == "__main__":
    sys.exit(unittest.main())
