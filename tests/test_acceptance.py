"""End-to-end acceptance checks for the three-output drivetrain package.

Each test exercises one headline behaviour at its stated tolerance and
prints a single PASS/FAIL line so the whole gate can be read at a glance:

    pytest tests/test_acceptance.py -q
"""

import numpy as np
import pytest

from conftest import THREE_OOD_CYCLIC_MAP, canonical_equal_load_scenario, random_tree_scenario
from penalty_reference import penalty_velocities

from gearnet.builders import (
    build_2_2d,
    build_3ood,
    build_initial_design,
    build_two_output_diff,
)
from gearnet.cli import main
from gearnet.dynamics import Drive, Scenario, SimOptions, impulse_response, simulate
from gearnet.kinematics import mobility, nullspace_basis
from gearnet.mechanism import AppliedTorque, ConstantResistive, Free, Locked, Viscous
from gearnet.verification import check_invariants


def report(capsys, num, label, ok, detail=""):
    with capsys.disabled():
        line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d}: {label}"
        if detail:
            line += f"  ({detail})"
        print(line)


def test_equal_loads_give_equal_output_speeds(capsys):
    # velocity-driven input at 20 rad/s with k=20, j=2 and unit viscous
    # loads: every output settles at j*20/k = 2 rad/s
    traj = simulate(canonical_equal_load_scenario(duration=0.5))
    speeds = [traj.omega_of(n)[-1] for n in ("O1", "O2", "O3")]
    err = max(abs(s - 2.0) for s in speeds)
    ok = err <= 1e-6
    report(
        capsys, 1, "equal loads: all outputs at 2.0 rad/s within 1e-6", ok,
        f"max deviation {err:.2e}",
    )
    assert ok


def test_output_sum_tracks_input_for_random_asymmetric_loads(capsys):
    # w_O1 + w_O2 + w_O3 = 3*j*w_in/k at every step, whatever the loads
    rng = np.random.default_rng(42)
    g = build_3ood()
    j_over_k = g.meta["ratio_j"] / g.meta["ratio_k"]

    def random_load(r):
        kind = r.integers(4)
        if kind == 0:
            return Viscous(float(r.uniform(0.1, 3.0)))
        if kind == 1:
            return ConstantResistive(float(r.uniform(0.1, 1.0)))
        if kind == 2:
            return AppliedTorque(float(r.uniform(-1.0, 1.0)))
        return Free()

    worst = 0.0
    for case in range(100):
        if rng.random() < 0.5:
            drive = Drive.velocity(float(rng.uniform(5.0, 40.0)))
        else:
            drive = Drive.torque(float(rng.uniform(0.5, 5.0)))
        scn = Scenario(
            graph=g,
            drive=drive,
            loads={n: random_load(rng) for n in ("O1", "O2", "O3")},
            options=SimOptions(
                duration=0.05,
                dt=1e-3,
                initial="rest" if rng.random() < 0.5 else "consistent",
            ),
        )
        traj = simulate(scn)
        w_in = traj.omega_of("input")
        total = traj.omega_of("O1") + traj.omega_of("O2") + traj.omega_of("O3")
        residual = np.abs(total - 3.0 * j_over_k * w_in)
        bound = 1e-8 * np.maximum(1.0, np.abs(w_in))
        worst = max(worst, float(np.max(residual / bound)))
    ok = worst < 1.0
    report(
        capsys, 2, "output-sum law holds per step over 100 random load mixes", ok,
        f"worst residual/bound ratio {worst:.2e} against 1e-8*max(1,|w_in|)",
    )
    assert ok


def test_locked_input_splits_driven_output_evenly(capsys):
    # input held, O1 spun at +3 rad/s against equal loads: the motion
    # recirculates and the idle outputs each turn at -1.5 rad/s
    scn = Scenario(
        graph=build_3ood(),
        drive=Drive.velocity(3.0, shaft="O1"),
        loads={"input": Locked(), "O2": Viscous(1.0), "O3": Viscous(1.0)},
        options=SimOptions(duration=0.3, dt=1e-4),
    )
    traj = simulate(scn)
    o2 = traj.omega_of("O2")[-1]
    o3 = traj.omega_of("O3")[-1]
    err = max(abs(o2 + 1.5), abs(o3 + 1.5))
    ok = err <= 1e-6
    report(
        capsys, 3, "locked input: idle outputs at -1.5 rad/s within 1e-6", ok,
        f"O2={o2:.8f} O3={o3:.8f}",
    )
    assert ok


def test_torque_driven_steady_state_and_power_balance(capsys):
    # tau_e = 3 against unit viscous loads: effective input drag is
    # 3*b*(j/k)^2 = 0.03, so w_in -> 100, each output torque -> 10, and
    # 300 W flows in and out
    g = build_3ood()
    scn = Scenario(
        graph=g,
        drive=Drive.torque(3.0),
        loads={n: Viscous(1.0) for n in g.meta["outputs"]},
        options=SimOptions(duration=0.7, dt=1e-4, initial="rest"),
    )
    traj = simulate(scn)
    w_in = traj.omega_of("input")[-1]
    taus = [abs(traj.port_torque(e, "b")[-1]) for e in g.meta["ratios"]]
    p_in = 3.0 * w_in
    p_out = sum(1.0 * traj.omega_of(n)[-1] ** 2 for n in g.meta["outputs"])
    speed_err = abs(w_in - 100.0) / 100.0
    torque_err = max(abs(t - 10.0) / 10.0 for t in taus)
    power_err = abs(p_in - p_out) / 300.0
    ok = speed_err <= 1e-4 and torque_err <= 1e-4 and power_err <= 1e-6
    report(
        capsys, 4, "torque drive: w_in=100, each tau_O=10, 300 W in = 300 W out", ok,
        f"speed err {speed_err:.1e}, torque err {torque_err:.1e}, power err {power_err:.1e}",
    )
    assert ok


def test_mobility_counts_are_exact(capsys):
    two = mobility(build_two_output_diff())
    three = mobility(build_3ood())
    ok = two.nullity == 2 and three.external_dof == 3
    report(
        capsys, 5, "mobility: single diff nullity 2; three-output external dof 3", ok,
        f"nullity={two.nullity}, external_dof={three.external_dof}",
    )
    assert ok


def test_cascaded_tree_reacts_asymmetrically(capsys):
    # unit torque on A with the root braked: hand-solved response is
    # (2/3, -1/3, -1/6, -1/6), so the sibling outruns the cousins
    g = build_2_2d()
    alpha = impulse_response(g, "A", held=("root",))
    a, b, c, d = (float(alpha[g.shaft_id(n)]) for n in "ABCD")
    expect = {"A": 2.0 / 3.0, "B": -1.0 / 3.0, "C": -1.0 / 6.0, "D": -1.0 / 6.0}
    err = max(abs(v - expect[n]) for n, v in zip("ABCD", (a, b, c, d)))
    ok = err <= 1e-9 and abs(b) > abs(c)
    report(
        capsys, 6, "two-stage tree: impulse on A gives (2/3,-1/3,-1/6,-1/6), |B|>|C|", ok,
        f"max deviation {err:.2e}",
    )
    assert ok


def test_three_output_impulse_symmetry(capsys):
    # with the input held, a torque on any one output accelerates the
    # other two identically, and relabeling outputs cyclically relabels
    # the whole response
    g = build_3ood()
    sigma = THREE_OOD_CYCLIC_MAP
    names = g.shaft_names()
    perm = np.array([g.shaft_id(sigma.get(n, n)) for n in names])
    base = impulse_response(g, "O1", held=("input",))
    pair_gap = abs(base[g.shaft_id("O2")] - base[g.shaft_id("O3")])

    relabel_gap = 0.0
    resp = base
    for target in ("O2", "O3"):
        resp_next = impulse_response(g, target, held=("input",))
        relabel_gap = max(relabel_gap, float(np.max(np.abs(resp_next[perm] - resp))))
        resp = resp_next
    ok = pair_gap <= 1e-9 and relabel_gap <= 1e-9
    report(
        capsys, 7, "impulse on one output: other two equal; cyclic relabel invariant", ok,
        f"pair gap {pair_gap:.2e}, relabel gap {relabel_gap:.2e}",
    )
    assert ok


def test_initial_design_cannot_differentiate(capsys):
    # the naive splitter's entire motion space keeps at least two outputs
    # locked together in every one of 1000 random feasible states
    g = build_initial_design()
    basis = nullspace_basis(g)
    rng = np.random.default_rng(2024)
    ids = [g.shaft_id(n) for n in g.meta["outputs"]]
    worst = 0.0
    for _ in range(1000):
        v = basis @ rng.normal(0.0, 10.0, size=basis.shape[1])
        x1, x2, x3 = (v[i] for i in ids)
        closest = min(abs(x1 - x2), abs(x1 - x3), abs(x2 - x3))
        worst = max(worst, closest)
    ok = worst <= 1e-9
    report(
        capsys, 8, "naive splitter: two outputs equal in all 1000 random states", ok,
        f"largest closest-pair gap {worst:.2e}",
    )
    assert ok


def test_multiplier_dynamics_agree_with_penalty_reference(capsys):
    # 50 random small graphs, torque-driven for 0.1 s: the KKT stepper
    # and the stiff penalty system, linear here and so solved in closed
    # form, land on the same velocities
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        scn = random_tree_scenario(rng, duration=0.1)
        v_kkt = simulate(scn).omega[-1]
        v_pen = penalty_velocities(scn)
        worst = max(worst, float(np.max(np.abs(v_kkt - v_pen))))
    ok = worst <= 1e-3
    report(
        capsys, 9, "multiplier vs penalty dynamics within 1e-3 on 50 random graphs", ok,
        f"worst velocity gap {worst:.2e}",
    )
    assert ok


def test_canonical_demo_report_is_all_green(capsys):
    traj = simulate(canonical_equal_load_scenario())
    rep = check_invariants(traj)
    n_ok = sum(1 for r in rep.applicable() if r.passed)
    cli_ok = main(["demo", "3ood", "--equal-loads"]) == 0
    ok = rep.all_passed() and cli_ok
    report(
        capsys, 10, "canonical demo: every applicable invariant check passes", ok,
        f"{n_ok}/{len(rep.applicable())} checks, demo exit 0",
    )
    assert ok
