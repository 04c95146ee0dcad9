"""Traced, in-process run: per-layer metrics from spans around public calls.

Spans are recorded from the benchmark's side only.  ``Tracer.patched``
swaps the module attributes through which ``gearnet`` reaches its own
public functions (for example ``gearnet.cli.simulate``) for wrappers
that record a span, and restores them afterwards; nothing in the
program changes.  Each span holds its name, start, end, parent span and
the id of the scenario it belongs to.  Spans stay in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import itertools
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checker import Checker, Totals

IMPORT_SAMPLES = 3

# (module, attribute, span name): the calls gearnet makes into its own
# public functions along the CLI path.
PATCHES = (
    ("gearnet.cli", "load_scenario", "scenario_io.load_scenario"),
    ("gearnet.scenario_io", "build_by_name", "builders.build_by_name"),
    ("gearnet.cli", "simulate", "dynamics.simulate"),
    ("gearnet.dynamics", "constraint_matrix", "kinematics.constraint_matrix"),
    ("gearnet.dynamics", "solve_velocities", "kinematics.solve_velocities"),
    ("gearnet.cli", "write_trajectory_csv", "dynamics.write_trajectory_csv"),
    ("gearnet.cli", "check_invariants", "verification.check_invariants"),
)

_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    scenario: str | None


class Tracer:
    """Collects spans; parent and scenario follow the calling thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root: int | None = None  # parent for spans opened on pool threads

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.scenario = None
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, scenario: str | None = None):
        stack = self._stack()
        if scenario is not None:
            self._local.scenario = scenario
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        if parent is None:
            self.root = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            if self.root == sid:
                self.root = None
            self.spans.append(Span(sid, parent, name, start, end, self._local.scenario))

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            scenario = None
            if name == "scenario_io.load_scenario":
                scenario = Path(args[0]).stem  # a new scenario starts on this thread
            with self.span(name, scenario):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for mod_name, attr, span_name in PATCHES:
                mod = importlib.import_module(mod_name)
                if not hasattr(mod, attr):  # a refactor removed this call path
                    continue
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(getattr(mod, attr), span_name))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([dataclasses.asdict(s) for s in self.spans]) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def import_breakdown(python: str, env: dict, cwd: Path) -> tuple[float, float]:
    """Cumulative import seconds of gearnet.cli and of scipy.linalg, by -X importtime."""
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import gearnet.cli"],
        env=env, cwd=cwd, capture_output=True, text=True, check=True, timeout=120,
    )
    found = {}
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m[2] in ("gearnet.cli", "scipy.linalg"):
            found[m[2]] = int(m[1]) * 1e-6
    return found.get("gearnet.cli", 0.0), found.get("scipy.linalg", 0.0)


def run_cli(argv: list[str]) -> tuple[int, str, float, float]:
    """Run ``gearnet`` in-process; returns (exit code, stdout, wall s, cpu s)."""
    from gearnet import cli

    buf = io.StringIO()
    cpu0, t0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), time.perf_counter() - t0, time.process_time() - cpu0


def probe_layers(tracer: Tracer, paths: list[Path], probe_csv: Path) -> dict:
    """Call each layer's public functions once per scenario, serially, under spans.

    Every scenario is simulated twice, with torques recorded and without,
    and its invariants are checked on the recorded run, whether or not
    the workload's own command asks for torques or verification.
    """
    import numpy as np

    from gearnet import check_invariants, mobility, nullspace_basis, solve_velocities, step
    from gearnet.dynamics import simulate, write_trajectory_csv
    from gearnet.scenario_io import load_scenario

    counts = {"steps": 0, "solves": 0, "saddle_dim": 0, "csv_bytes": 0,
              "applicable": 0, "passed": 0, "worst_pass": 0.0}
    for path in paths:
        sid = path.stem
        with tracer.span("scenario_io.load_scenario", sid):
            sf = load_scenario(path)
        scn = sf.scenario
        g = scn.graph
        with tracer.span("kinematics.mobility", sid):
            mobility(g)
        with tracer.span("kinematics.nullspace_basis", sid):
            nullspace_basis(g)
        with tracer.span("kinematics.solve_velocities", sid):
            solve_velocities(g, {scn.drive_shaft(): 1.0}, require_external_determined=False)
        with tracer.span("dynamics.step", sid):
            step(scn, np.zeros(g.n_shafts), 0.0)
        variants = {}
        for record in (False, True):
            opts = dataclasses.replace(scn.options, record_torques=record)
            with tracer.span(f"dynamics.simulate[torques={'on' if record else 'off'}]", sid):
                variants[record] = simulate(dataclasses.replace(scn, options=opts))
        with tracer.span("dynamics.write_trajectory_csv", sid):
            write_trajectory_csv(variants[scn.options.record_torques], probe_csv)
        counts["csv_bytes"] += probe_csv.stat().st_size
        probe_csv.unlink()
        with tracer.span("verification.check_invariants", sid):
            report = check_invariants(variants[True])

        steps = max(1, int(round(scn.options.duration / scn.options.dt)))
        counts["steps"] += steps
        counts["solves"] += steps + 1 if scn.options.integrator != "rk4" else 4 * steps + 1
        counts["saddle_dim"] = max(counts["saddle_dim"], g.n_shafts + _constraint_rows(scn))
        for r in report.applicable():
            counts["applicable"] += 1
            if r.passed:
                counts["passed"] += 1
                counts["worst_pass"] = max(counts["worst_pass"], r.max_rel_residual / r.tolerance)
    return counts


def _constraint_rows(scn) -> int:
    """Element rows plus one pin row per velocity-prescribed or locked shaft."""
    from gearnet.mechanism import Locked

    pins = sum(isinstance(load, Locked) for load in scn.loads.values())
    if scn.drive.mode == "velocity":
        pins += 1
    elif scn.drive.mode == "input_locked":
        pins += 1 + (scn.drive.source_shaft is not None and scn.drive.source_kind == "velocity")
    return len(scn.graph.elements) + pins


def layer_metrics(spans: list[Span], counts: dict) -> dict[str, float]:
    """Per-layer figures of one probe pass, from span durations, self times and counts."""
    own = self_times(spans)
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        dur[s.name] = dur.get(s.name, 0.0) + (s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.id]
    t_off = dur["dynamics.simulate[torques=off]"]
    write_s = dur["dynamics.write_trajectory_csv"]
    return {
        "scenario_io.load_s": self_s["scenario_io.load_scenario"],
        "builders.build_s": dur.get("builders.build_by_name", 0.0),
        "kinematics.mobility_s": dur["kinematics.mobility"],
        "kinematics.nullspace_s": dur["kinematics.nullspace_basis"],
        "kinematics.solve_velocities_s": dur["kinematics.solve_velocities"],
        "dynamics.assemble_factor_s": dur["dynamics.step"],
        "dynamics.step_us": 1e6 * t_off / counts["steps"],
        "dynamics.torque_recovery_s": dur["dynamics.simulate[torques=on]"] - t_off,
        "dynamics.csv_write_s": write_s,
        "dynamics.csv_mb_per_s": counts["csv_bytes"] / 1e6 / write_s,
        "verification.check_s": dur["verification.check_invariants"],
    }


def traced_run(argv, expectations, workdir: Path, seconds: float, env: dict, trace_file: Path):
    """Repeat, until ``seconds`` pass, four in-process passes over the workload.

    1. the workload's command, untraced: wall and CPU time;
    2. the same command under spans: its excess over pass 1 is the
       tracing overhead;
    3. the command once per scenario file, serially: its sum over the
       pass-1 wall is the batch speed-up;
    4. the layer probes of :func:`probe_layers`.
    Passes 1 to 3 go through the output checker.  Figures are medians
    over the repetitions.  Returns (totals, metrics); the spans of every
    pass go to ``trace_file``.
    """
    imports = [import_breakdown(sys.executable, env, workdir) for _ in range(IMPORT_SAMPLES)]
    checker, totals, tracer = Checker(expectations), Totals(), Tracer()
    flags = [a for a in argv if a == "--verify"]
    serial = [["simulate", e.scenario, *flags] for e in expectations]
    probe_paths = [workdir / e.scenario for e in expectations]
    runs: dict[str, list] = {"wall": [], "cpu": [], "traced": [], "serial": [], "layers": []}
    counts: dict = {}
    home = Path.cwd()
    os.chdir(workdir)  # scenario paths on the command line are relative
    try:
        start = time.perf_counter()
        while not runs["wall"] or time.perf_counter() - start < seconds:
            checker.remove_outputs()
            code, out, wall, cpu = run_cli(argv)
            totals.add(checker.check(code, out))
            runs["wall"].append(wall)
            runs["cpu"].append(cpu)

            checker.remove_outputs()
            with tracer.patched(), tracer.span("cli.main") as root:
                code, out, _, _ = run_cli(argv)
            totals.add(checker.check(code, out))
            runs["traced"].append(next(s for s in tracer.spans if s.id == root))

            checker.remove_outputs()
            codes, outs, total = [], [], 0.0
            for one in serial:
                code, out, wall, _ = run_cli(one)
                codes.append(code)
                outs.append(out)
                total += wall
            totals.add(checker.check(max(codes), "".join(outs)))
            runs["serial"].append(total)

            mark = len(tracer.spans)
            with tracer.patched():
                counts = probe_layers(tracer, probe_paths, workdir / "probe.csv")
            runs["layers"].append(layer_metrics(tracer.spans[mark:], counts))
    finally:
        os.chdir(home)
    checker.remove_outputs()
    tracer.write(trace_file)

    med = statistics.median
    n = len(runs["wall"])
    traced = med(s.end - s.start for s in runs["traced"])
    metrics = {
        "cli.import_s": (med(i for i, _ in imports), "s", len(imports)),
        "cli.import_scipy_s": (med(s for _, s in imports), "s", len(imports)),
        "cli.batch_wall_s": (med(runs["wall"]), "s", n),
        "cli.batch_speedup": (med(runs["serial"]) / med(runs["wall"]), "ratio", n),
        "cli.cpu_s": (med(runs["cpu"]), "s", n),
    }
    for key in runs["layers"][0]:
        unit = "us" if key.endswith("_us") else "MB/s" if key.endswith("mb_per_s") else "s"
        metrics[key] = (med(r[key] for r in runs["layers"]), unit, n)
    metrics.update({
        "dynamics.solves": (counts["solves"], "count", n),
        "dynamics.saddle_dim": (counts["saddle_dim"], "count", n),
        "dynamics.csv_bytes": (counts["csv_bytes"], "bytes", n),
        "verification.checks_applicable": (counts["applicable"], "count", n),
        "verification.checks_passed_frac": (counts["passed"] / counts["applicable"], "ratio", n),
        "verification.worst_rel_residual": (counts["worst_pass"], "tol", n),
        "trace.overhead_frac": (traced / med(runs["wall"]) - 1.0, "ratio", n),
    })
    print(f"spans: {len(tracer.spans)} written to {trace_file}")
    return totals, metrics
