"""Seeded scenario generators for the three benchmark workloads.

Each generator returns a list of ``(file_name, document)`` pairs; the
benchmark writes them as JSON files and hands only those files to the
``gearnet`` command.  The same seed always yields the same documents.
A seed changes parameter values only, never the structure of a
workload: mechanisms, integrators, durations and time steps are fixed,
so the amount of work per invocation does not depend on the seed.

* ``canonical-3ood`` is the README equal-load run and ignores the seed.
* ``sweep-3ood`` is a dozen 3ood scenarios that share mechanism, dt and
  integrator and vary only drives and loads.
* ``mixed-families`` runs every builder family plus one inline
  mechanism, each under both integrators, so no two scenarios share
  mechanism, dt and integrator.
"""

from __future__ import annotations

import random

WORKLOADS = ("canonical-3ood", "sweep-3ood", "mixed-families")

# Per-workload command-line tail after ``python -m gearnet``; ``{dir}`` is
# the scenario directory and ``{file}`` the single scenario file.
COMMANDS = {
    "canonical-3ood": ["simulate", "{file}", "--verify"],
    "sweep-3ood": ["simulate", "--batch", "{dir}"],
    "mixed-families": ["simulate", "--batch", "{dir}", "--verify"],
}

SWEEP_SCENARIOS = 12
SWEEP_DURATION = 0.1
SWEEP_DT = 1e-4


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    """Scenario documents of one workload, as (file name, document) pairs."""
    if workload == "canonical-3ood":
        return [("canonical.json", canonical())]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-3ood":
        return [(f"sweep{i:02d}.json", _sweep_scenario(rng, i)) for i in range(SWEEP_SCENARIOS)]
    if workload == "mixed-families":
        return [(f"{name}.json", doc) for name, doc in _mixed_scenarios(rng)]
    raise ValueError(f"unknown workload {workload!r}")


def canonical() -> dict:
    """The README/demo equal-load 3ood run (``gearnet demo 3ood --equal-loads``)."""
    return {
        "name": "equal-loads",
        "mechanism": {"builder": "3ood"},
        "drive": {"mode": "velocity", "value": 20.0},
        "loads": {o: {"kind": "viscous", "b": 1.0} for o in ("O1", "O2", "O3")},
        "sim": {"duration": 0.5, "dt": 1e-4},
        "outputs": {"trajectory": "canonical.csv"},
    }


def _series(rng: random.Random, duration: float, lo: float, hi: float, points: int = 4) -> list:
    """Piecewise-linear [t, value] series over [0, duration] with kinks inside.

    Knots sit in evenly spaced slots, jittered, and values alternate
    between the lower and upper part of [lo, hi], so every segment has a
    slope of at least a fifth of the range over its length.
    """
    slot = duration / (points - 1)
    times = [0.0]
    times += [round((k + rng.uniform(-0.25, 0.25)) * slot, 6) for k in range(1, points - 1)]
    times.append(duration)
    span = hi - lo
    values = [
        lo + span * (rng.uniform(0.6, 1.0) if k % 2 else rng.uniform(0.0, 0.4))
        for k in range(points)
    ]
    return [[t, round(v, 6)] for t, v in zip(times, values)]


def _sweep_scenario(rng: random.Random, i: int) -> dict:
    if i % 2 == 0:
        drive = {"mode": "velocity", "value": round(rng.uniform(10.0, 30.0), 6)}
    else:
        drive = {"mode": "torque", "value": round(rng.uniform(0.05, 0.2), 6)}
    loads = {}
    for n, out in enumerate(("O1", "O2", "O3")):
        kind = ("viscous", "resistive", "applied_torque")[(i + n) % 3]
        if kind == "viscous":
            loads[out] = {"kind": "viscous", "b": round(rng.uniform(0.5, 2.0), 6)}
        elif kind == "resistive":
            loads[out] = {"kind": "resistive", "tau": round(rng.uniform(0.1, 0.5), 6)}
        else:
            loads[out] = {
                "kind": "applied_torque",
                "series": _series(rng, SWEEP_DURATION, -0.5, 0.0),
            }
    return {
        "name": f"sweep{i:02d}",
        "mechanism": {"builder": "3ood"},
        "drive": drive,
        "loads": loads,
        "sim": {"duration": SWEEP_DURATION, "dt": SWEEP_DT, "record_torques": False},
        "outputs": {"trajectory": f"sweep{i:02d}.csv"},
    }


def inline_mechanism(rng: random.Random) -> dict:
    """A worm-fed differential behind a fixed-ratio stage, all shafts massive."""
    inertia = lambda: round(rng.uniform(0.2, 2.0), 6)  # noqa: E731
    return {
        "shafts": [
            {"name": n, "inertia": inertia(), "role": r}
            for n, r in (
                ("motor", "input"),
                ("lay", "intermediate"),
                ("carrier", "ring"),
                ("left", "output"),
                ("right", "output"),
            )
        ],
        "elements": [
            {"kind": "fixed_ratio", "ports": {"a": "motor", "b": "lay"},
             "params": {"ratio": round(rng.uniform(0.5, 2.0), 6)}, "name": "reduction"},
            {"kind": "worm_pair", "ports": {"worm": "lay", "wheel": "carrier"},
             "params": {"ratio_k": round(rng.uniform(2.0, 8.0), 6)}, "name": "worm"},
            {"kind": "differential",
             "ports": {"ring": "carrier", "side_a": "left", "side_b": "right"},
             "params": {}, "name": "diff"},
        ],
        "external": ["motor", "left", "right"],
    }


def _mixed_scenarios(rng: random.Random) -> list[tuple[str, dict]]:
    u = lambda lo, hi: round(rng.uniform(lo, hi), 6)  # noqa: E731
    viscous = lambda: {"kind": "viscous", "b": u(0.5, 2.0)}  # noqa: E731
    resistive = lambda: {"kind": "resistive", "tau": u(0.05, 0.3)}  # noqa: E731

    def doc(name, mechanism, drive, loads, duration, dt, integrator, **sim):
        return name, {
            "name": name,
            "mechanism": mechanism,
            "drive": drive,
            "loads": loads,
            "sim": {"duration": duration, "dt": dt, "integrator": integrator, **sim},
            "outputs": {"trajectory": f"{name}.csv"},
        }

    euler, rk4 = "semi_implicit_euler", "rk4"
    off = {"record_torques": False}
    return [
        doc("2od-euler", {"builder": "2od"},
            {"mode": "torque", "series": _series(rng, 0.15, 0.5, 2.0)},
            {"side_a": viscous(), "side_b": resistive()}, 0.15, 1e-4, euler, **off),
        doc("2od-rk4", {"builder": "2od"},
            {"mode": "torque", "series": _series(rng, 0.15, 0.5, 2.0)},
            {"side_a": viscous(),
             "side_b": {"kind": "applied_torque", "series": _series(rng, 0.15, -0.5, 0.0)}},
            0.15, 2e-4, rk4, **off),
        doc("3ood-euler", {"builder": "3ood", "params": {"ratio_k": u(10.0, 30.0)}},
            {"mode": "input_locked",
             "source": {"shaft": "O1", "kind": "velocity", "series": _series(rng, 0.1, 1.0, 4.0)}},
            {"O2": viscous(), "O3": viscous()}, 0.1, 1e-4, euler),
        doc("3ood-rk4", {"builder": "3ood", "params": {"ratio_j": u(1.5, 3.0)}},
            {"mode": "velocity", "series": _series(rng, 0.1, 10.0, 30.0)},
            {"O1": viscous(), "O2": resistive(), "O3": viscous()}, 0.1, 2e-4, rk4),
        doc("initial-euler", {"builder": "initial"},
            {"mode": "velocity", "value": u(5.0, 20.0)},
            {"X1": resistive(), "X2": viscous(), "X3": viscous()}, 0.15, 1e-4, euler,
            initial="rest", **off),
        doc("initial-rk4", {"builder": "initial"},
            {"mode": "torque", "series": _series(rng, 0.15, 0.0, 0.5)},
            {"X1": viscous(), "X2": viscous(), "X3": resistive()}, 0.15, 2e-4, rk4, **off),
        doc("2-2d-euler", {"builder": "2-2d"},
            {"mode": "torque", "series": _series(rng, 0.15, 0.5, 2.0)},
            {"A": viscous(), "B": resistive(), "C": viscous(), "D": viscous()},
            0.15, 1e-4, euler, **off),
        doc("2-2d-rk4", {"builder": "2-2d"},
            {"mode": "velocity", "series": _series(rng, 0.15, 2.0, 8.0)},
            {"A": viscous(), "B": viscous(), "C": viscous(),
             "D": {"kind": "applied_torque", "series": _series(rng, 0.15, -1.0, 0.0)}},
            0.15, 2e-4, rk4, **off),
        doc("multi-axle-euler", {"builder": "multi-axle", "params": {"rho": u(1.5, 3.0)}},
            {"mode": "input_locked",
             "source": {"shaft": "X", "kind": "torque", "series": _series(rng, 0.15, 0.0, 2.0)}},
            {"Y": viscous(), "Z": viscous()}, 0.15, 1e-4, euler, **off),
        doc("multi-axle-rk4", {"builder": "multi-axle"},
            {"mode": "torque", "series": _series(rng, 0.15, 0.5, 2.0)},
            {"X": viscous(), "Y": resistive(), "Z": viscous()}, 0.15, 2e-4, rk4, **off),
        doc("inline-euler", {"inline": inline_mechanism(rng)},
            {"mode": "velocity", "shaft": "motor", "series": _series(rng, 0.15, 2.0, 10.0)},
            {"left": viscous(), "right": resistive()}, 0.15, 1e-4, euler, **off),
        doc("inline-rk4", {"inline": inline_mechanism(rng)},
            {"mode": "torque", "shaft": "motor", "series": _series(rng, 0.15, 0.0, 4.0)},
            {"left": viscous(), "right": {"kind": "applied_torque",
                                          "series": _series(rng, 0.15, -0.5, 0.0)}},
            0.15, 2e-4, rk4, **off),
    ]
