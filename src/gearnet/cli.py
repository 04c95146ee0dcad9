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
artifacts next to the scenarios themselves.  An output that would
overwrite its own scenario file, or a report that would overwrite the
trajectory, is refused before the run.  A single `simulate` writes
its CSV in one process.  `simulate --batch` loads every file first, in
file-name order, and refuses one whose output names another scenario
of the batch or an output of a file before it.  It runs the files on
the available CPUs: it forks one worker per CPU past the first (none
on a platform that cannot fork) and runs files itself too, each
process claiming the next file from a shared queue and writing its
CSVs alone.  It prints each file's lines in file-name order; an error
in one file is reported on its line, with the same exit code a single
run would give, and does not stop the others.  When a worker dies, the
files left without a result run in process, in order.  Each output is
written to a temporary sibling and moved into place as soon as it is
whole, so a target holds a complete output or the one it held before.
An interrupted batch stops its workers, keeps the outputs that had
landed, and leaves no temporary behind.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import pickle
import sys
from pathlib import Path
from typing import Callable, NoReturn

import numpy as np

from .builders import BUILDERS, build_by_name
from .dynamics import Drive, Scenario, SimOptions, simulate
from .errors import GearnetError, NonFiniteState, ScenarioError, SingularKKT
from .kinematics import mobility, nullspace_basis
from .mechanism import MechanismGraph, Viscous
from .scenario_io import ScenarioFile, load_scenario
from .trajectory_io import write_trajectory_csv
from .verification import VerificationReport, check_invariants

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_VERIFICATION = 3

# Errors that end a run with a diagnostic instead of a traceback.
_SOLVER_ERRORS = (SingularKKT, NonFiniteState, np.linalg.LinAlgError, FloatingPointError)
_RUN_ERRORS = _SOLVER_ERRORS + (GearnetError, OSError)


# a scenario file's (exit code, stdout lines)
_Result = tuple[int, list[str]]

# the most 4-byte records the batch queue holds (see _file_queue)
_QUEUE_RECORDS = 1024


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
    path = Path(args.scenario)
    sf = load_scenario(path)
    targets = _output_paths(path, sf)
    code, lines = _run_scenario_file(path, sf, *targets, args.verify, str(os.getpid()))
    for line in lines:
        print(line)
    return code


def _cmd_verify(args) -> int:
    sf = load_scenario(args.scenario)
    _, target = _output_paths(Path(args.scenario), sf, args.report)
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
        _write_output(report.write, target, str(os.getpid()))
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


def _output_paths(
    path: Path, sf: ScenarioFile, report: str | None = None, taken: dict[str, str] | None = None
) -> tuple[Path, Path | None]:
    """The trajectory CSV and the report (None when none is asked for) of
    the scenario file ``path``, checked before the run.

    ``report``, a ``--report`` argument, replaces the file's own report.
    An output that resolves to the scenario file, or a report that
    resolves to the trajectory, is a :class:`ScenarioError` naming the
    field: no run overwrites its own scenario or its own CSV.  A batch
    passes ``taken``, which maps each resolved file that its other files
    read or write to what that file is: an output that resolves to one of
    them is refused the same way, and once every output of this file has
    passed, they are added to it.
    """
    csv_name = path.with_suffix(".csv").name if sf.trajectory_path is None else sf.trajectory_path
    given = [("outputs.trajectory", path.parent, csv_name)]
    if report is not None:
        given.append(("--report", Path(), report))
    elif sf.report_path is not None:
        given.append(("outputs.report", path.parent, sf.report_path))
    taken = {} if taken is None else taken
    # os.path.realpath, unlike Path.resolve, does not raise on a symlink loop
    scenario = os.path.realpath(path)
    mine: dict[str, str] = {}  # each resolved output of this file: its field
    targets = []
    for field, base, target in given:
        out = _output_path(base, target, field)
        key = os.path.realpath(out)
        other = "the scenario" if key == scenario else mine.get(key) or taken.get(key)
        if other is not None:
            raise ScenarioError(f"{field}: {target!r} names the same file as {other}")
        mine[key] = field
        targets.append(out)
    taken.update((key, f"{field} of {path}") for key, field in mine.items())
    return targets[0], targets[1] if len(targets) > 1 else None


def _write_output(write, target: Path, tag: str) -> None:
    """Call ``write(path)`` on the temporary sibling of ``target`` named
    after ``tag``, then move it onto ``target``; on any exception the
    temporary is removed before it goes on.

    No two outputs of one invocation share a target, so work run again
    under the same tag writes the same name and overwrites what an
    interrupted run left.
    """
    tmp = target.with_name(f"{target.name}.{tag}.tmp")
    try:
        write(tmp)
        os.replace(tmp, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # fails only where none could be made
            tmp.unlink()
        if isinstance(exc, OSError) and exc.errno is not None and exc.filename2 is None:
            # report the file asked for, not the temporary (a failed move
            # names both); an OSError without an errno prints a filename
            # as "[Errno None] None", so its message names it
            exc.filename = str(target)
        raise


def _run_scenario_file(
    path: Path, sf: ScenarioFile, csv_path: Path, report_path: Path | None, verify: bool, tag: str
) -> _Result:
    """Simulate the scenario file ``path``, loaded as ``sf``, to the
    outputs :func:`_output_paths` gave it; returns (exit code, stdout lines).

    The invariants are checked first, then the trajectory CSV and the
    report are written, each through :func:`_write_output` under ``tag``.
    """
    traj = simulate(sf.scenario)
    report = check_invariants(traj) if verify or report_path is not None else None
    _write_output(lambda tmp: write_trajectory_csv(traj, tmp), csv_path, tag)
    lines = [f"{path}: wrote {csv_path}"]
    if report is not None:
        if report_path is not None:
            _write_output(report.write, report_path, tag)
            lines.append(f"{path}: wrote {report_path}")
        n_ok = sum(1 for r in report.applicable() if r.passed)
        lines.append(f"{path}: {n_ok}/{len(report.applicable())} applicable checks passed")
        if verify and not report.all_passed():
            for r in report.failed():
                lines.append(f"{path}: FAIL {r.check} (max rel residual {r.max_rel_residual:.3e})")
            return EXIT_VERIFICATION, lines
    return EXIT_OK, lines


def _batch_file(
    path: Path, verify: bool, tag: str, taken: dict[str, str]
) -> Callable[[], _Result]:
    """Load the batch file ``path`` and check its outputs against
    ``taken`` (see :func:`_output_paths`); returns the call that runs it
    under ``tag`` to its result.

    A run error, while loading or while running, becomes the exit code
    and the line a single run would give.
    """
    try:
        sf = load_scenario(path)
        csv_path, report_path = _output_paths(path, sf, taken=taken)
    except _RUN_ERRORS as exc:
        refused = _failure(path, exc)
        return lambda: refused

    def run() -> _Result:
        try:
            return _run_scenario_file(path, sf, csv_path, report_path, verify, tag)
        except _RUN_ERRORS as exc:
            return _failure(path, exc)

    return run


def _failure(path: Path, exc: BaseException) -> _Result:
    """The result of the scenario file ``path`` whose run ``exc`` ended."""
    code, message = _diagnose(exc)
    return code, [f"{path}: {message}"]


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on this platform
        return os.cpu_count() or 1


def _file_queue(n: int) -> tuple[int, int]:
    """(read end, run length) of a pipe that hands out the files of a batch.

    Each 4-byte record is the index of the first of ``run`` consecutive
    files, with ``run`` = ceil(n / 1024) so that at most 1024 records,
    4 KiB, are written: the write neither blocks nor splits, and every
    record is written before any process reads one.
    """
    run = -(-n // _QUEUE_RECORDS)
    read, write = os.pipe()
    os.write(write, b"".join(k.to_bytes(4, "little") for k in range(0, n, run)))
    os.close(write)
    return read, run


def _claims(queue: int, run: int, n: int):
    """The indices of the files this process claims from ``queue``, one
    record at a time, until it is empty."""
    while len(record := os.read(queue, 4)) == 4:
        first = int.from_bytes(record, "little")
        yield from range(first, min(first + run, n))


def _worker(runs: list[Callable[[], _Result]], queue: int, run: int, send: int) -> NoReturn:
    """A forked batch worker: run the files it claims, send their
    ``(index, result)`` pairs, pickled, through ``send`` once the queue is
    empty, and exit, with status 0 only when every byte was sent.

    It never returns into its caller's stack.  A SIGTERM, from a parent
    that stops its workers, ends it as an interrupt would: the outputs
    that landed stay, the one being written is removed, and no temporary
    is left.
    """
    sent = False
    try:
        import signal

        signal.signal(signal.SIGTERM, signal.default_int_handler)
        done = [(k, runs[k]()) for k in _claims(queue, run, len(runs))]
        data = memoryview(pickle.dumps(done, pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(send, data) :]
        sent = True
    finally:
        os._exit(0 if sent else 1)


def _batch_results(runs: list[Callable[[], _Result]]) -> list[_Result]:
    """Each batch file's result, from its call in ``runs``, in file order.

    With P = min(available CPUs, files), this process forks P - 1
    workers (:func:`_worker`) and then runs files itself; on a platform
    that cannot fork, it runs them all.  Every process claims files
    from one queue (:func:`_file_queue`) until it is empty.  A forked
    worker starts with numpy, gearnet and every loaded file; gearnet
    starts no threads, and OpenBLAS stops its pool across a fork.

    What a worker sent is dropped unless it exited with status 0 (it
    was killed, or ran out of memory), and once every worker is reaped
    the files left without a result run here, in order, under the tag
    the worker had, so that each overwrites what a dead worker left.  On
    any exception here, KeyboardInterrupt included, the workers are
    stopped and reaped before it goes on.
    """
    n = len(runs)
    results: list[_Result | None] = [None] * n
    forks = min(_available_cpus(), n) - 1 if hasattr(os, "fork") else 0
    queue, run = _file_queue(n)
    fds = [queue]  # closed on the way out
    # each unreaped worker's pid: (its result pipe's read end, the bytes read from it)
    live: dict[int, tuple[int, bytearray]] = {}
    try:
        for _ in range(forks):
            read, send = os.pipe()
            fds.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(runs, queue, run, send)
            finally:
                os.close(send)
            live[pid] = read, bytearray()
        for k in _claims(queue, run, n):
            results[k] = runs[k]()
        _reap(live, results)
        for k, result in enumerate(results):
            if result is None:
                results[k] = runs[k]()
    except BaseException:
        import signal

        for pid in live:
            os.kill(pid, signal.SIGTERM)
        _reap(live, results)
        raise
    finally:
        for fd in fds:
            os.close(fd)
    return results


def _reap(live: dict[int, tuple[int, bytearray]], results: list[_Result | None]) -> None:
    """Read the pipe of each live worker to its end and wait for the
    worker; when it exited with status 0, put the results it sent in
    ``results``."""
    for pid, (read, data) in list(live.items()):
        while chunk := os.read(read, 1 << 16):
            data += chunk
        _, status = os.waitpid(pid, 0)
        del live[pid]
        if os.waitstatus_to_exitcode(status) == 0:
            for k, result in pickle.loads(data):
                results[k] = result


def _run_batch(directory: Path, verify: bool) -> int:
    if not directory.is_dir():
        raise ScenarioError(f"--batch: {directory} is not a directory")
    files = sorted(directory.glob("*.json"))
    if not files:
        raise ScenarioError(f"--batch: no *.json scenario files in {directory}")

    # every scenario of the batch, then the outputs of each file accepted
    taken = {os.path.realpath(path): f"the scenario {path}" for path in files}
    tag = str(os.getpid())
    runs = [_batch_file(path, verify, tag, taken) for path in files]
    worst = EXIT_OK
    succeeded = 0
    for code, lines in _batch_results(runs):
        for line in lines:
            print(line)
        worst = max(worst, code)
        succeeded += code == EXIT_OK
    print(f"batch: {succeeded}/{len(files)} scenarios succeeded")
    return worst


if __name__ == "__main__":
    sys.exit(main())
