"""gearnet benchmark: CLI wall time and step throughput, plus a traced per-layer run.

Usage, from the repository root:

    python3 bench/run.py --workload canonical-3ood --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the real CLI (``python -m gearnet ...``) as one
closed-loop client, one process at a time, for ``--seconds`` and reports
the end-to-end metrics.  ``--trace 1`` runs the same workload in-process
under spans and reports the per-layer metrics.  Every invocation's
output goes through the checker.

The shared host's speed drifts by tens of percent within minutes, more
than the bounds allow.  So every timed process is followed by a run of
``reference.py``, a fixed job that shares no code with gearnet, and the
end-to-end times are rescaled to a host on which the reference takes
``REF_NOMINAL_S``: each median wall time is multiplied by
``REF_NOMINAL_S`` over the median reference time of the same run.
The raw wall times are printed as well.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checker import Checker, Expectation, Totals
from workloads import COMMANDS, WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # scratch space inside the checkout; git ignores it
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REF_NOMINAL_S = 0.7  # typical reference wall time on the 2-vCPU Xeon host the bounds were set on
SETUP_SAMPLES = 7  # fresh interpreters timed per run for setup_s
MIN_SAMPLES = 3  # invocations per run, even when --seconds runs out first
PROCESS_TIMEOUT_S = 120  # a process still running after this is killed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gearnet" / "__init__.py").is_file():
        print(f"error: no gearnet sources under {SRC}", file=sys.stderr)
        return 2

    threads = min(2, len(os.sched_getaffinity(0)))
    os.environ["GEARNET_THREADS"] = str(threads)  # in-process runs read it too
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        argv, expectations = prepare(args.workload, args.seed, workdir)
        print_machine(threads)
        if args.trace:
            from spans import traced_run

            totals, metrics = traced_run(argv, expectations, workdir, args.seconds, env,
                                         WORK / "last_trace.json")
        else:
            totals, metrics = untraced_run(argv, expectations, workdir, args.seconds, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result(totals, metrics)))
    return 0


def prepare(workload: str, seed: int, workdir: Path):
    """Write the scenario files; return the CLI argv and what each scenario must produce."""
    from gearnet.scenario_io import load_scenario

    docs = generate(workload, seed)
    batch = "{dir}" in COMMANDS[workload]
    scen_dir = workdir / "scenarios" if batch else workdir
    scen_dir.mkdir(exist_ok=True)
    argv = [a.format(dir="scenarios", file=docs[0][0]) for a in COMMANDS[workload]]
    verify = "--verify" in argv
    expectations = []
    for name, doc in docs:
        path = scen_dir / name
        path.write_text(json.dumps(doc, indent=2) + "\n")
        scn = load_scenario(path).scenario
        g = scn.graph
        header = ["t"] + [f"{s}.{q}" for s in g.shaft_names() for q in ("omega", "alpha")]
        if scn.options.record_torques:
            header += [f"{e.name}.tau_{p}" for e in g.elements for p, _ in e.ports()]
        speed_sum, final = None, ()
        if g.meta.get("family") == "3ood":
            ratio = g.meta["ratio_j"] / g.meta["ratio_k"]
            speed_sum = (g.meta["input"], tuple(g.meta["outputs"]), 3.0 * ratio)
            if workload == "canonical-3ood":  # equal loads: every output at j * w_in / k
                final = tuple((o, ratio * doc["drive"]["value"]) for o in g.meta["outputs"])
        expectations.append(Expectation(
            scenario=str(path.relative_to(workdir)),
            csv=scen_dir / doc["outputs"]["trajectory"],
            header=tuple(header),
            steps=max(1, int(round(scn.options.duration / scn.options.dt))),
            verify=verify,
            rk4=scn.options.integrator == "rk4",
            speed_sum=speed_sum,
            final_speeds=final,
        ))
    return argv, expectations


def print_machine(threads: int) -> None:
    info = {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "GEARNET_THREADS": threads,
    }
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))


def spawn(cmd: list[str], cwd: Path, env: dict) -> tuple[int, str, float, float]:
    """Run one process; returns (exit code, stdout, wall s, peak RSS MB).

    The peak resident set comes from wait4, so it covers the process and
    every child it waited for.  A process that outlives PROCESS_TIMEOUT_S
    is killed; its exit code then fails the checker.
    """
    out_path = cwd / ".stdout"
    with open(out_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_text(), wall, usage.ru_maxrss / 1024.0


class HostClock:
    """Times processes, each followed by the reference job that gauges the host's speed."""

    def __init__(self, workdir: Path, env: dict):
        self.workdir, self.env = workdir, env
        self.refs: list[float] = []
        self.reference()  # warm-up: page cache, numpy and scipy imports
        self.refs.clear()

    def reference(self) -> None:
        cmd = [sys.executable, str(REFERENCE), ".reference.csv"]
        code, _, wall, _ = spawn(cmd, self.workdir, self.env)
        if code != 0:
            raise RuntimeError("the host-speed reference job failed")
        self.refs.append(wall)

    def timed(self, cmd: list[str]) -> tuple[int, str, float, float]:
        """(exit code, stdout, wall s, peak RSS MB) of one process."""
        result = spawn(cmd, self.workdir, self.env)
        self.reference()
        return result

    def scale(self) -> float:
        """Factor that takes this run's wall times to a host at nominal speed."""
        return REF_NOMINAL_S / statistics.median(self.refs)


def measure_setup(clock: HostClock) -> list[float]:
    """Wall times of fresh interpreters importing gearnet.cli (first one warms caches)."""
    cmd = [sys.executable, "-c", "import gearnet.cli"]
    walls = []
    for i in range(SETUP_SAMPLES + 1):
        code, _, wall, _ = clock.timed(cmd)
        if code != 0:
            raise RuntimeError("import gearnet.cli failed")
        if i:
            walls.append(wall)
    return walls


def untraced_run(argv, expectations, workdir: Path, seconds: float, env: dict):
    """Closed loop of CLI processes, one at a time; returns (totals, metrics)."""
    clock = HostClock(workdir, env)
    setup = measure_setup(clock)
    checker = Checker(expectations)
    totals = Totals()
    walls, rss = [], []
    cmd = [sys.executable, "-m", "gearnet", *argv]
    start = time.perf_counter()
    while len(walls) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        checker.remove_outputs()
        code, stdout, wall, peak = clock.timed(cmd)
        totals.add(checker.check(code, stdout))
        walls.append(wall)
        rss.append(peak)
    setup_s, run_s, steps_per_s = (
        statistics.median(setup), statistics.median(walls), totals.steps_ok / sum(walls))
    k = clock.scale()
    print(f"  raw wall: setup {setup_s:.4g} s, run p50 {run_s:.4g} s, {steps_per_s:.6g} steps/s; "
          f"reference p50 {statistics.median(clock.refs):.4g} s (n={len(clock.refs)}), "
          f"so times are scaled by {k:.4g}")
    metrics = {
        "setup_s": (setup_s * k, "s", len(setup)),
        "run_s_p50": (run_s * k, "s", len(walls)),
        "steps_per_s": (steps_per_s / k, "steps/s", len(walls)),
        "peak_rss_mb": (max(rss), "MB", len(rss)),
    }
    return totals, metrics


def result(totals: Totals, metrics: dict) -> dict:
    """Print every metric with unit and sample count; build the final JSON object."""
    totals.print_findings()
    for name, (value, unit, n) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} (n={n})")
    return {
        "correct": not totals.problems,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
