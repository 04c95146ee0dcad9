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
its CSV in one process.  `simulate --batch` runs the files in forked
worker processes, one per available CPU (in process when there is one),
each writing its CSVs alone, and prints each file's lines in file-name
order; an error in one file is reported on its line, with the same exit
code a single run would give, and does not stop the others.  When a
worker dies, the files left without a result run in process, in order.
Every output is written to a temporary sibling and moved into place in
file-name order, so when two files name the same output the later one's
file is left, whole, as a serial run would leave it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .builders import BUILDERS, build_by_name
from .dynamics import Drive, Scenario, SimOptions, simulate, write_trajectory_csv
from .errors import GearnetError, NonFiniteState, ScenarioError, SingularKKT
from .kinematics import mobility, nullspace_basis
from .mechanism import MechanismGraph, Viscous
from .scenario_io import load_scenario
from .verification import VerificationReport, check_invariants

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
        try:  # every builder parameter is a number
            kwargs[key] = float(raw)
        except ValueError:
            raise ScenarioError(f"--param {key}: expected a number, got {raw!r}") from None
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
        print(json.dumps(dataclasses.asdict(report), indent=2))
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
            Path(args.scenario), args.verify, outputs, str(os.getpid())
        )
    finally:
        _move_into_place(outputs)
    for line in lines:
        print(line)
    return code


def _cmd_verify(args) -> int:
    sf = load_scenario(args.scenario)
    if args.report is not None:
        target = _output_path(Path(), args.report, "--report")
    elif sf.report_path is not None:
        target = _output_path(Path(args.scenario).parent, sf.report_path, "outputs.report")
    else:
        target = None
    return _print_report(check_invariants(simulate(sf.scenario)), target)


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
    return _print_report(check_invariants(traj))


def _print_report(report: VerificationReport, target: Path | None = None) -> int:
    """Print the report's lines, write it to ``target`` when one is given,
    and return the exit code of its verdict."""
    for line in report.summary_lines():
        print(line)
    if target is not None:
        outputs: _Outputs = []
        _write_aside(report.write, target, outputs, str(os.getpid()))
        _move_into_place(outputs)
        print(f"report written to {target}")
    if not report.all_passed():
        return EXIT_VERIFICATION
    print("all applicable checks passed")
    return EXIT_OK


# --------------------------------------------------------------------------
# scenario execution
# --------------------------------------------------------------------------


def _output_path(base: Path, target: str, field: str) -> Path:
    """Where an output goes: ``target``, relative to the directory ``base``
    (the scenario file's for a path the file names, the working directory
    for one given on the command line).  A target with no file name, or one
    that names a directory, is a :class:`ScenarioError` naming ``field``,
    raised before the run."""
    path = Path(target)
    if not path.is_absolute():
        path = base / path
    if not path.name or target.endswith(("/", os.sep)) or path.is_dir():
        raise ScenarioError(f"{field}: {target!r} names a directory, not a file")
    return path


def _write_aside(write, target: Path, outputs: _Outputs, tag: str) -> None:
    """Call ``write(path)`` on a temporary sibling of ``target`` and add
    (temporary, target) to ``outputs``, for :func:`_move_into_place`.

    The temporary is named after ``tag`` and the number of outputs written
    before it, so work that is run again under the same tag writes the
    same names and overwrites what an interrupted run left.
    """
    tmp = target.with_name(f"{target.name}.{tag}-{len(outputs)}.tmp")
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
    """Move each temporary onto its target, in order.  When a move fails,
    the temporaries not yet moved are removed before the error goes on."""
    for k, (tmp, target) in enumerate(outputs):
        try:
            os.replace(tmp, target)
        except OSError:
            for left, _ in outputs[k:]:
                left.unlink(missing_ok=True)
            raise


def _run_scenario_file(
    path: Path, verify: bool, outputs: _Outputs, tag: str
) -> tuple[int, list[str]]:
    """Simulate one scenario file; returns (exit code, stdout lines).

    The invariants are checked first, then the trajectory CSV is written.
    Each output file is written aside under ``tag`` and added to
    ``outputs`` as it is written, also when a later step raises.
    """
    sf = load_scenario(path)
    csv_path = _output_path(
        path.parent, sf.trajectory_path or path.with_suffix(".csv").name, "outputs.trajectory"
    )
    report_path = None
    if sf.report_path is not None:
        report_path = _output_path(path.parent, sf.report_path, "outputs.report")
    traj = simulate(sf.scenario)
    report = check_invariants(traj) if verify or report_path is not None else None
    _write_aside(lambda tmp: write_trajectory_csv(traj, tmp), csv_path, outputs, tag)
    lines = [f"{path}: wrote {csv_path}"]
    if report is not None:
        if report_path is not None:
            _write_aside(report.write, report_path, outputs, tag)
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


def _run_batch_file(path: Path, verify: bool, tag: str) -> tuple[int, list[str], _Outputs]:
    """One batch file: (exit code, stdout lines, outputs written aside).

    A run error becomes the exit code and the line a single run would
    give.  This is what a batch worker runs; only its result crosses back
    to the parent.
    """
    outputs: _Outputs = []
    try:
        code, lines = _run_scenario_file(path, verify, outputs, tag)
    except _RUN_ERRORS as exc:
        code, message = _diagnose(exc)
        lines = [f"{path}: {message}"]
    return code, lines, outputs


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on this platform
        return os.cpu_count() or 1


def _batch_results(files: list[Path], verify: bool):
    """Each file's :func:`_run_batch_file` result, in file order.

    The files run in forked workers, or in process with one worker or on
    a platform that cannot fork.  Each file writes aside under a tag of
    this process's id and the file's index.  When a worker dies (killed,
    or out of memory) the pool breaks; once it is shut down and its
    workers are gone, the files left without a result run here, in order,
    and each overwrites what a dead worker left under its tag.
    """
    tags = [f"{os.getpid()}-{k}" for k in range(len(files))]
    workers = min(_available_cpus(), len(files))
    run_files = map
    broken = ()  # what a map over a pool whose worker died raises
    done = 0
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # imported here so that `import gearnet.cli` stays as fast as it was
            import multiprocessing
            from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

            if "fork" in multiprocessing.get_all_start_methods():
                # a forked worker starts with numpy and gearnet imported, where
                # a spawned one would import them again.  gearnet starts no
                # threads, the pool forks all workers before it starts its own
                # (Python >= 3.11), and OpenBLAS stops its pool across a fork.
                fork = multiprocessing.get_context("fork")
                run_files = stack.enter_context(ProcessPoolExecutor(workers, mp_context=fork)).map
                broken = BrokenExecutor
        with contextlib.suppress(broken):
            for result in run_files(_run_batch_file, files, [verify] * len(files), tags):
                yield result
                done += 1
    for path, tag in zip(files[done:], tags[done:]):
        yield _run_batch_file(path, verify, tag)


def _run_batch(directory: Path, verify: bool) -> int:
    if not directory.is_dir():
        raise ScenarioError(f"--batch: {directory} is not a directory")
    files = sorted(directory.glob("*.json"))
    if not files:
        raise ScenarioError(f"--batch: no *.json scenario files in {directory}")

    worst = EXIT_OK
    succeeded = 0
    for path, (code, lines, outputs) in zip(files, _batch_results(files, verify)):
        try:
            _move_into_place(outputs)  # in file-name order: a later file's output wins
        except OSError as exc:  # this file's outputs failed; the others go on
            code, message = _diagnose(exc)
            lines = [f"{path}: {message}"]
        for line in lines:
            print(line)
        worst = max(worst, code)
        succeeded += code == EXIT_OK
    print(f"batch: {succeeded}/{len(files)} scenarios succeeded")
    return worst


if __name__ == "__main__":
    sys.exit(main())
