"""Command-line front end.

Subcommands:

    dof        mobility counts for a mechanism (builder name or JSON file)
    nullspace  orthonormal basis of the feasible velocity space, as JSON
    simulate   run one scenario file (or a --batch directory) to CSV
    verify     run a scenario and check its trajectory invariants
    demo       build a named mechanism and show what it does

Exit codes: 0 success, 1 validation error, 2 solver error, 3 failed
verification.  Relative output paths inside a scenario file resolve
against the scenario file's directory, so a batch run drops its
artifacts next to the scenarios themselves.  A single `simulate` writes
its CSV on the available CPUs, in forked writers of consecutive row
ranges, with the bytes of a one-CPU write; the run writes any range
whose writer fails, so a split write fails as a one-CPU write does.
`simulate --batch` runs the files in forked worker processes, one per
available CPU (in process when there is one), each writing its CSVs
alone, and prints each file's lines in file-name order; an error in one
file is reported on its line, with the same exit code a single run
would give, and does not stop the others.  Every output is written to a
temporary sibling and moved into place in file-name order, so when two
files name the same output the later one's file is left, whole, as a
serial run would leave it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from .builders import BUILDERS, build_by_name
from .dynamics import (
    _CSV_CHUNK,
    Drive,
    Scenario,
    SimOptions,
    Trajectory,
    simulate,
    write_trajectory_csv,
)
from .errors import GearnetError, NonFiniteState, ScenarioError, SingularKKT
from .kinematics import mobility, nullspace_basis
from .mechanism import MechanismGraph, Viscous
from .scenario_io import load_scenario
from .verification import check_invariants

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_VERIFICATION = 3

# Errors that end a run with a diagnostic instead of a traceback.
_SOLVER_ERRORS = (SingularKKT, NonFiniteState, np.linalg.LinAlgError, FloatingPointError)
_RUN_ERRORS = _SOLVER_ERRORS + (GearnetError, OSError)


# (temporary file, the output it becomes) pairs, in the order written
_Outputs = list[tuple[Path, Path]]


class _UsageError(Exception):
    """Bad command line; printed to stderr and mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for solver errors
        raise _UsageError(f"{self.prog}: error: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except _RUN_ERRORS as exc:
        code, message = _diagnose(exc)
        print(message, file=sys.stderr)
        return code


def _diagnose(exc: BaseException) -> tuple[int, str]:
    """Exit code and message for an error that ended a run."""
    if isinstance(exc, _SOLVER_ERRORS):
        return EXIT_SOLVER, f"solver error: {exc}"
    return EXIT_VALIDATION, f"error: {exc}"


def _build_parser() -> _Parser:
    parser = _Parser(prog="gearnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_dof = sub.add_parser("dof", help="mobility counts for a mechanism")
    _add_mechanism_args(p_dof)
    p_dof.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_dof.set_defaults(handler=_cmd_dof)

    p_null = sub.add_parser("nullspace", help="feasible velocity basis as JSON")
    _add_mechanism_args(p_null)
    p_null.set_defaults(handler=_cmd_nullspace)

    p_sim = sub.add_parser("simulate", help="run scenario file(s) to trajectory CSV")
    p_sim.add_argument("scenario", nargs="?", help="scenario JSON file")
    p_sim.add_argument(
        "--batch", metavar="DIR", help="run every *.json scenario in DIR, in name order"
    )
    p_sim.add_argument(
        "--verify", action="store_true", help="also check invariants and write a report"
    )
    p_sim.set_defaults(handler=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="run a scenario and check its invariants")
    p_ver.add_argument("scenario", help="scenario JSON file")
    p_ver.add_argument("--report", metavar="PATH", help="write the JSON report here")
    p_ver.set_defaults(handler=_cmd_verify)

    p_demo = sub.add_parser("demo", help="build a named mechanism and show what it does")
    p_demo.add_argument("name", choices=sorted(BUILDERS), help="mechanism to demonstrate")
    p_demo.add_argument(
        "--equal-loads",
        action="store_true",
        help="run the canonical equal-load scenario (3ood only)",
    )
    p_demo.set_defaults(handler=_cmd_demo)
    return parser


def _add_mechanism_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--mechanism",
        required=True,
        metavar="NAME_OR_FILE",
        help=f"builder name ({', '.join(sorted(BUILDERS))}) or mechanism JSON file",
    )
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="builder parameter, repeatable (numbers parsed as floats)",
    )


def _resolve_mechanism(spec: str, params: list[str]) -> MechanismGraph:
    kwargs = {}
    for item in params:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ScenarioError(f"--param: expected KEY=VALUE, got {item!r}")
        try:
            kwargs[key] = float(raw)
        except ValueError:
            kwargs[key] = raw
    if spec in BUILDERS:
        return build_by_name(spec, **kwargs)
    path = Path(spec)
    if path.is_file():
        if kwargs:
            raise ScenarioError("--param: only valid with a builder name")
        return MechanismGraph.load(path)
    raise ScenarioError(
        f"--mechanism: {spec!r} is neither a builder name "
        f"({', '.join(sorted(BUILDERS))}) nor an existing file"
    )


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_dof(args) -> int:
    graph = _resolve_mechanism(args.mechanism, args.param)
    report = mobility(graph)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"mechanism: {args.mechanism}")
        print(f"shafts={report.n_shafts} constraints={report.n_constraints} rank={report.rank}")
        print(f"external_dof={report.external_dof} nullity={report.nullity}")
    return EXIT_OK


def _cmd_nullspace(args) -> int:
    graph = _resolve_mechanism(args.mechanism, args.param)
    basis = nullspace_basis(graph)
    doc = {
        "shafts": graph.shaft_names(),
        "nullity": basis.shape[1],
        "basis": [basis[:, k].tolist() for k in range(basis.shape[1])],
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if (args.scenario is None) == (args.batch is None):
        raise _UsageError("gearnet simulate: error: give a scenario file or --batch DIR")
    if args.batch is not None:
        return _run_batch(Path(args.batch), args.verify)
    outputs: _Outputs = []
    try:
        code, lines = _run_scenario_file(
            Path(args.scenario), args.verify, outputs, _available_cpus()
        )
    finally:
        _move_into_place(outputs)
    for line in lines:
        print(line)
    return code


def _cmd_verify(args) -> int:
    sf = load_scenario(args.scenario)
    traj = simulate(sf.scenario)
    report = check_invariants(traj)
    for line in report.summary_lines():
        print(line)
    report_path = args.report or sf.report_path
    if report_path is not None:
        target = _resolve_output(Path(args.scenario), report_path)
        outputs: _Outputs = []
        _write_aside(report.write, target, outputs)
        _move_into_place(outputs)
        print(f"report written to {target}")
    if not report.all_passed():
        return EXIT_VERIFICATION
    print("all applicable checks passed")
    return EXIT_OK


def _cmd_demo(args) -> int:
    if args.equal_loads and args.name != "3ood":
        raise _UsageError("gearnet demo: error: --equal-loads only applies to the 3ood demo")
    graph = build_by_name(args.name)
    report = mobility(graph)
    print(f"demo: {args.name}")
    print(
        f"shafts={report.n_shafts} constraints={report.n_constraints} "
        f"external={','.join(graph.external_names())}"
    )
    print(f"external_dof={report.external_dof} nullity={report.nullity}")
    if args.name == "3ood" and args.equal_loads:
        return _demo_equal_loads(graph)
    extra = {
        "2od": "one input splits to two outputs; equal loads turn at the input speed",
        "3ood": "rerun with --equal-loads for the canonical end-to-end scenario",
        "initial": "a single mobility mode: every feasible motion moves all outputs together",
        "2-2d": "two differential pairs behind a splitter; near outputs react more than far ones",
        "multi-axle": "planetary splitter chain; each axle pair divides its share independently",
    }
    print(extra[args.name])
    return EXIT_OK


def _demo_equal_loads(graph: MechanismGraph) -> int:
    """Velocity-driven input at 20 rad/s, identical viscous loads on all outputs."""
    outputs = graph.meta["outputs"]
    scenario = Scenario(
        graph=graph,
        drive=Drive.velocity(20.0),
        loads={name: Viscous(1.0) for name in outputs},
        options=SimOptions(duration=0.5, dt=1e-4),
        name="equal-loads",
    )
    traj = simulate(scenario)
    w_in = traj.omega_of(scenario.drive_shaft())[-1]
    speeds = " ".join(f"{name}={traj.omega_of(name)[-1]:.6f}" for name in outputs)
    print(f"equal-load run: input {w_in:.1f} rad/s, outputs {speeds} rad/s")
    tau_in = traj.drive_torque[-1]
    p_out = sum(1.0 * traj.omega_of(name)[-1] ** 2 for name in outputs)
    print(
        f"input torque {tau_in:.6f}, power in {w_in * tau_in:.6f} W, "
        f"power out {p_out:.6f} W"
    )
    report = check_invariants(traj)
    for line in report.summary_lines():
        print(line)
    if not report.all_passed():
        return EXIT_VERIFICATION
    print("all applicable checks passed")
    return EXIT_OK


# --------------------------------------------------------------------------
# scenario execution
# --------------------------------------------------------------------------


def _resolve_output(scenario_path: Path, target: str | Path) -> Path:
    target = Path(target)
    return target if target.is_absolute() else scenario_path.parent / target


def _temporary_sibling(target: Path) -> Path:
    """A fresh temporary name beside ``target``."""
    return target.with_name(f"{target.name}.{os.urandom(6).hex()}.tmp")


def _write_aside(write, target: Path, outputs: _Outputs) -> None:
    """Call ``write(path)`` on a fresh temporary sibling of ``target`` and
    add (temporary, target) to ``outputs``, for :func:`_move_into_place`."""
    tmp = _temporary_sibling(target)
    try:
        write(tmp)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            # report the file asked for; an OSError without an errno prints
            # a filename as "[Errno None] None", so its message names it
            exc.filename = str(target)
        raise
    outputs.append((tmp, target))


def _move_into_place(outputs: _Outputs) -> None:
    for tmp, target in outputs:
        os.replace(tmp, target)


def _run_scenario_file(
    path: Path, verify: bool, outputs: _Outputs, cpus: int = 1
) -> tuple[int, list[str]]:
    """Simulate one scenario file; returns (exit code, stdout lines).

    The trajectory CSV is written on up to ``cpus`` CPUs (see
    :func:`_split_csv_write`); the invariants are checked meanwhile.  Each
    output file is written aside and added to ``outputs`` as it is
    written, also when a later step raises.
    """
    sf = load_scenario(path)
    traj = simulate(sf.scenario)
    csv_path = _resolve_output(path, sf.trajectory_path or path.with_suffix(".csv").name)
    with _split_csv_write(traj, csv_path, cpus) as write_csv:
        report = check_invariants(traj) if verify or sf.report_path is not None else None
        _write_aside(write_csv, csv_path, outputs)
    lines = [f"{path}: wrote {csv_path}"]
    if report is not None:
        if sf.report_path is not None:
            report_path = _resolve_output(path, sf.report_path)
            _write_aside(report.write, report_path, outputs)
            lines.append(f"{path}: wrote {report_path}")
        n_ok = sum(1 for r in report.applicable() if r.passed)
        lines.append(f"{path}: {n_ok}/{len(report.applicable())} applicable checks passed")
        if verify and not report.all_passed():
            for r in report.failed():
                lines.append(
                    f"{path}: FAIL {r.check} (max rel residual {r.max_rel_residual:.3e})"
                )
            return EXIT_VERIFICATION, lines
    return EXIT_OK, lines


# The fewest rows a forked writer is given.  On the smallest mechanism
# (2od, 7 columns) they take about 7 ms to format, twice what a fork and
# its wait cost a process holding a trajectory (2-4 ms, 2-CPU x86-64 host).
_MIN_PART_ROWS = 16 * _CSV_CHUNK


@contextlib.contextmanager
def _split_csv_write(traj: Trajectory, target: Path, cpus: int):
    """Yield ``write(path)``, which writes the trajectory CSV of one run on
    up to ``cpus`` CPUs.

    Entered, it forks a writer for each CPU but the first, when the
    platform can fork and each would get ``_MIN_PART_ROWS`` rows or more.
    Each writer writes one range of rows, starting at a chunk bound, to a
    part file beside the target, and reports only its exit status.
    ``write`` writes the header and the first range itself, then waits
    for the writers in order and appends their parts, so the file holds
    the bytes of one serial write.  A range whose writer could not be
    forked or did not exit 0 is written into its part here, first, so a
    split write fails only as a one-CPU write would.  Leaving the context
    kills and reaps every writer still running and removes every part.
    Forking shares the trajectory without a copy; it is safe here because
    gearnet starts no threads and OpenBLAS stops its pool across a fork.
    """
    rows = len(traj.t)
    parts = max(1, min(cpus, rows // _MIN_PART_ROWS)) if hasattr(os, "fork") else 1
    chunks = -(-rows // _CSV_CHUNK)
    # each range starts on a chunk bound, so every chunk holds the rows a
    # serial write gives it and is formatted the same way
    bounds = [k * chunks // parts * _CSV_CHUNK for k in range(parts)] + [rows]
    ranges = [(_temporary_sibling(target), a, b) for a, b in zip(bounds[1:-1], bounds[2:])]
    writers: dict[Path, int] = {}  # part -> pid of its writer, not yet reaped
    try:
        for part, start, stop in ranges:
            try:
                pid = os.fork()
            except OSError:  # no process to spare: write() writes this range
                continue
            if pid == 0:  # os._exit skips the exit handlers and stdio buffers it inherited
                status = 1
                try:
                    write_trajectory_csv(traj, part, start, stop)
                    status = 0
                finally:
                    os._exit(status)
            writers[part] = pid

        def write(path: Path) -> None:
            write_trajectory_csv(traj, path, stop=bounds[1])
            with open(path, "ab") as out:
                for part, start, stop in ranges:
                    status = os.waitpid(writers[part], 0)[1] if part in writers else None
                    writers.pop(part, None)
                    if status != 0:
                        write_trajectory_csv(traj, part, start, stop)
                    with open(part, "rb") as src:
                        shutil.copyfileobj(src, out)

        yield write
    finally:
        for pid in writers.values():
            import signal  # here, so that `import gearnet.cli` stays as fast as it was

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part, _, _ in ranges:
            part.unlink(missing_ok=True)


def _run_batch_file(path: Path, verify: bool) -> tuple[int, list[str], _Outputs]:
    """One batch file: (exit code, stdout lines, outputs written aside).

    A run error becomes the exit code and the line a single run would
    give.  This is what a batch worker runs; only its result crosses back
    to the parent.
    """
    outputs: _Outputs = []
    try:
        code, lines = _run_scenario_file(path, verify, outputs)
    except _RUN_ERRORS as exc:
        code, message = _diagnose(exc)
        lines = [f"{path}: {message}"]
    return code, lines, outputs


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on this platform
        return os.cpu_count() or 1


def _run_batch(directory: Path, verify: bool) -> int:
    if not directory.is_dir():
        raise ScenarioError(f"--batch: {directory} is not a directory")
    files = sorted(directory.glob("*.json"))
    if not files:
        raise ScenarioError(f"--batch: no *.json scenario files in {directory}")

    worst = EXIT_OK
    succeeded = 0
    workers = min(_available_cpus(), len(files))
    run_files = map  # in process: one worker, or a platform that cannot fork
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # imported here so that `import gearnet.cli` stays as fast as it was
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            if "fork" in multiprocessing.get_all_start_methods():
                # a forked worker starts with numpy and gearnet imported, where
                # a spawned one would import them again.  gearnet starts no
                # threads, the pool forks all workers before it starts its own
                # (Python >= 3.11), and OpenBLAS stops its pool across a fork.
                fork = multiprocessing.get_context("fork")
                run_files = stack.enter_context(ProcessPoolExecutor(workers, mp_context=fork)).map
        for code, lines, outputs in run_files(_run_batch_file, files, [verify] * len(files)):
            _move_into_place(outputs)  # in file-name order: a later file's output wins
            for line in lines:
                print(line)
            worst = max(worst, code)
            succeeded += code == EXIT_OK
    print(f"batch: {succeeded}/{len(files)} scenarios succeeded")
    return worst


if __name__ == "__main__":
    sys.exit(main())
