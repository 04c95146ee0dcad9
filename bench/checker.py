"""Output checker: decides, per scenario execution, whether it succeeded.

A scenario execution counts as failed when the invocation's exit code is
not the one its per-scenario stdout lines imply, when its stdout line is
missing or reports an error or a failed check, or when its trajectory
CSV is missing, has the wrong header or row count, holds a non-finite
value, breaks the 3ood speed-sum law, or differs byte for byte from the
CSV an earlier repetition wrote.

Failures are counted, never hidden.  Each one is also classified: the
known defect (``power_balance`` failing under RK4 by at least
``KNOWN_DEFECT_MARGIN`` times its tolerance, see ``known_defects.json``)
is expected; anything else is a problem that makes the run incorrect.

Standard library only.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 3

POWER_RTOL = 1e-6  # gearnet.verification.POWER_RTOL
KINEMATIC_RTOL = 1e-8  # gearnet.verification.KINEMATIC_RTOL
KNOWN_DEFECT_MARGIN = 10.0

_CHECKS_LINE = re.compile(r"(\d+)/(\d+) applicable checks passed")
_FAIL_LINE = re.compile(r"FAIL (\S+) \(max rel residual ([-+0-9.eE]+|nan|inf)\)")


@dataclass(frozen=True)
class Expectation:
    """What one scenario file must produce."""

    scenario: str  # scenario path as passed on the command line
    csv: Path  # trajectory CSV, absolute
    header: tuple[str, ...]
    steps: int  # integration steps; the CSV has steps + 1 rows
    verify: bool  # the command checks invariants for this scenario
    rk4: bool
    # 3ood speed-sum law: sum(outputs) = 3 * j / k * input, per row.
    speed_sum: tuple[str, tuple[str, ...], float] | None = None
    # Final-row speeds that must equal a value, to KINEMATIC_RTOL.
    final_speeds: tuple[tuple[str, float], ...] = ()


@dataclass
class Outcome:
    """Verdict on one scenario execution."""

    scenario: str
    steps: int
    code: int = EXIT_OK  # exit code the scenario's stdout lines imply
    failed: bool = False
    problems: list[str] = field(default_factory=list)  # unexpected failures
    known_defects: list[tuple[str, float]] = field(default_factory=list)  # (check, residual)

    def fail(self, problem: str) -> None:
        self.failed = True
        self.problems.append(problem)


class Checker:
    """Checks invocations of one workload; remembers CSV digests across them."""

    def __init__(self, expectations: list[Expectation]):
        self.expectations = expectations
        self.digests: dict[Path, str] = {}

    def remove_outputs(self) -> None:
        """Delete the CSVs, so that a stale file cannot pass for a new one."""
        for e in self.expectations:
            e.csv.unlink(missing_ok=True)

    def check(self, returncode: int, stdout: str) -> list[Outcome]:
        lines = stdout.splitlines()
        outcomes = [self._check_scenario(e, lines) for e in self.expectations]
        implied = max(o.code for o in outcomes)
        if returncode != implied:
            for o in outcomes:
                o.fail(f"exit code {returncode}, stdout implies {implied}")
        return outcomes

    def _check_scenario(self, e: Expectation, lines: list[str]) -> Outcome:
        out = Outcome(e.scenario, e.steps)
        mine = [ln[len(e.scenario) + 2:] for ln in lines if ln.startswith(e.scenario + ": ")]
        if not any(m.startswith("wrote ") and m.endswith(e.csv.name) for m in mine):
            out.fail("no 'wrote <csv>' line")
        for m in mine:
            if m.startswith("error:"):
                out.code = EXIT_VALIDATION
                out.fail(m)
        if e.verify:
            self._check_verdicts(e, mine, out)
        self._check_csv(e, out)
        return out

    def _check_verdicts(self, e: Expectation, mine: list[str], out: Outcome) -> None:
        counts = [_CHECKS_LINE.search(m) for m in mine]
        counts = [c for c in counts if c]
        if len(counts) != 1:
            out.fail("no 'k/n applicable checks passed' line")
            return
        n_ok, n_app = int(counts[0][1]), int(counts[0][2])
        fails = [_FAIL_LINE.search(m) for m in mine]
        fails = [(f[1], float(f[2])) for f in fails if f]
        if fails:
            out.code = max(out.code, EXIT_VERIFICATION)
        if n_app == 0 or n_app - n_ok != len(fails):
            out.fail(f"{n_ok}/{n_app} passed but {len(fails)} FAIL lines")
        for check, residual in fails:
            if check == "power_balance" and e.rk4 and residual >= KNOWN_DEFECT_MARGIN * POWER_RTOL:
                out.failed = True
                out.known_defects.append((check, residual))
            else:
                out.fail(f"FAIL {check} (residual {residual:.3e})")

    def _check_csv(self, e: Expectation, out: Outcome) -> None:
        try:
            data = e.csv.read_bytes()
        except OSError as exc:
            out.fail(f"csv unreadable: {exc}")
            return
        digest = hashlib.sha256(data).hexdigest()
        seen = self.digests.get(e.csv)
        if seen is not None:
            if digest != seen:
                out.fail("csv differs from an earlier repetition")
            return  # identical bytes were validated when first seen
        problem = check_csv_text(data.decode("utf-8", "replace"), e)
        if problem:
            out.fail(problem)
        else:
            self.digests[e.csv] = digest


def check_csv_text(text: str, e: Expectation) -> str | None:
    """Validate one trajectory CSV; returns the first problem found, or None."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return "csv is empty"
    header = tuple(lines[0].split(","))
    if header != e.header:
        return f"csv header mismatch ({len(header)} columns, expected {len(e.header)})"
    if len(lines) - 1 != e.steps + 1:
        return f"csv has {len(lines) - 1} rows, expected {e.steps + 1}"
    col = {name: i for i, name in enumerate(header)}
    law = None
    if e.speed_sum is not None:
        inp, outs, ratio = e.speed_sum
        law = (col[f"{inp}.omega"], [col[f"{o}.omega"] for o in outs], ratio)
    width = len(header)
    row: list[float] = []
    for r, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != width:
            return f"csv row {r} has {len(fields)} fields, expected {width}"
        try:
            row = [float(x) for x in fields]
        except ValueError:
            return f"csv row {r} holds a non-number"
        if not all(math.isfinite(x) for x in row):
            return f"csv row {r} holds a non-finite value"
        if law is not None:
            w_in = row[law[0]]
            res = abs(sum(row[i] for i in law[1]) - law[2] * w_in)
            if res > KINEMATIC_RTOL * max(1.0, abs(w_in)):
                return f"csv row {r} breaks the output speed-sum law by {res:.3e}"
    for name, value in e.final_speeds:
        got = row[col[f"{name}.omega"]]
        if abs(got - value) > KINEMATIC_RTOL * max(1.0, abs(value)):
            return f"final {name}.omega = {got!r}, expected {value!r}"
    return None


@dataclass
class Totals:
    """Scenario executions of one run, with their failures and findings."""

    attempted: int = 0
    failed: int = 0
    steps_ok: int = 0  # integration steps of the scenarios that succeeded
    problems: list[str] = field(default_factory=list)
    known: list[tuple[str, str, float]] = field(default_factory=list)

    def add(self, outcomes: list[Outcome]) -> None:
        for o in outcomes:
            self.attempted += 1
            if o.failed:
                self.failed += 1
            else:
                self.steps_ok += o.steps
            self.problems += [f"{o.scenario}: {p}" for p in o.problems]
            self.known += [(o.scenario, c, r) for c, r in o.known_defects]

    def print_findings(self, limit: int = 20) -> None:
        residuals = [r for _, _, r in self.known]
        if residuals:
            print(f"known defect: {len(self.known)} RK4 power_balance failures, "
                  f"residuals {min(residuals):.3e} to {max(residuals):.3e}")
        for problem in self.problems[:limit]:
            print(f"PROBLEM: {problem}")
        print(f"  failed_frac = {self.failed / self.attempted:.4f} ratio "
              f"({self.failed}/{self.attempted} scenario executions)")
