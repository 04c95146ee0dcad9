"""Shared helpers for the test suite."""

import importlib.util
from pathlib import Path

import numpy as np

from gearnet.dynamics import Drive, Scenario, SimOptions
from gearnet.mechanism import (
    Differential,
    FixedRatio,
    MechanismGraph,
    Planetary,
    RigidCoupling,
    Viscous,
    WormPair,
)

# Output-cyclic relabelling O1->O2->O3 of build_3ood, extended to the whole
# graph; the topology maps onto itself under this permutation.
THREE_OOD_CYCLIC_MAP = {
    "input": "input",
    "O1": "O2", "O2": "O3", "O3": "O1",
    "R1": "R2", "R2": "R3", "R3": "R1",
    "R4": "R5", "R5": "R6", "R6": "R4",
    "S1": "S4", "S4": "S5", "S5": "S1",
    "S2": "S3", "S3": "S6", "S6": "S2",
    "S7": "S9", "S9": "S11", "S11": "S7",
    "S8": "S10", "S10": "S12", "S12": "S8",
}


def random_tree_graph(rng: np.random.Generator, max_shafts: int = 6) -> MechanismGraph:
    """A random tree of gear elements with every shaft carrying real inertia.

    Each new element attaches one port to an already existing shaft and
    grows fresh shafts for the rest, so the constraint rows stay linearly
    independent whatever the draw.  Growth stops before exceeding
    ``max_shafts`` shafts.
    """
    g = MechanismGraph()
    g.add_shaft("n0", inertia=float(rng.uniform(0.2, 2.0)), role="input")
    count = 1

    def fresh() -> int:
        nonlocal count
        sid = g.add_shaft(f"n{count}", inertia=float(rng.uniform(0.2, 2.0)))
        count += 1
        return sid

    target = int(rng.integers(3, max_shafts + 1))
    k = 0
    while count < target:
        base = int(rng.integers(count))
        kind = int(rng.integers(5))
        if count + (2 if kind in (0, 4) else 1) > target:
            kind = int(rng.integers(1, 4))  # two-port elements only
        name = f"e{k}"
        k += 1
        if kind == 0:
            ports = [base, fresh(), fresh()]
            order = rng.permutation(3)
            g.add_element(
                Differential(
                    ring=ports[order[0]],
                    side_a=ports[order[1]],
                    side_b=ports[order[2]],
                    name=name,
                )
            )
        elif kind == 1:
            g.add_element(
                WormPair(
                    worm=base,
                    wheel=fresh(),
                    ratio_k=float(rng.uniform(2.0, 8.0)),
                    name=name,
                )
            )
        elif kind == 2:
            ratio = float(rng.uniform(0.5, 3.0)) * (1 if rng.random() < 0.5 else -1)
            g.add_element(FixedRatio(a=base, b=fresh(), ratio=ratio, name=name))
        elif kind == 3:
            g.add_element(
                RigidCoupling(a=base, b=fresh(), sign=1 if rng.random() < 0.5 else -1, name=name)
            )
        else:
            ports = [base, fresh(), fresh()]
            order = rng.permutation(3)
            g.add_element(
                Planetary(
                    sun=ports[order[0]],
                    ring=ports[order[1]],
                    carrier=ports[order[2]],
                    rho=float(rng.uniform(1.5, 3.0)),
                    name=name,
                )
            )
    g.set_external("n0", f"n{count - 1}")
    return g.finalize()


def random_tree_scenario(rng: np.random.Generator, duration: float = 0.1) -> Scenario:
    """Torque-driven scenario on a random tree graph, viscous loads on a few shafts."""
    g = random_tree_graph(rng)
    names = g.shaft_names()
    loads = {}
    for name in names:
        if rng.random() < 0.4:
            loads[name] = Viscous(float(rng.uniform(0.1, 1.0)))
    return Scenario(
        graph=g,
        drive=Drive.torque(float(rng.uniform(0.5, 3.0)), shaft="n0"),
        loads=loads,
        options=SimOptions(duration=duration, dt=1e-4, integrator="rk4"),
    )


def canonical_equal_load_scenario(**options) -> Scenario:
    """Input spun at 20 rad/s, identical unit viscous loads on all three outputs."""
    from gearnet.builders import build_3ood

    g = build_3ood()
    opts = SimOptions(**{"duration": 0.5, "dt": 1e-4, **options})
    return Scenario(
        graph=g,
        drive=Drive.velocity(20.0),
        loads={name: Viscous(1.0) for name in g.meta["outputs"]},
        options=opts,
        name="equal-loads",
    )


def bench_workloads():
    """The benchmark's scenario generators, bench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
