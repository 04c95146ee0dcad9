"""Constrained integration: stepping, trajectories, torque recovery."""

import math

import numpy as np
import pytest

from conftest import bench_workloads, canonical_equal_load_scenario, random_tree_scenario
from penalty_reference import PenaltySystem, penalty_velocities

from gearnet import dynamics
from gearnet.builders import build_2_2d, build_3ood, build_two_output_diff
from gearnet.dynamics import (
    Drive,
    Scenario,
    Series,
    SimOptions,
    Trajectory,
    _CSV_CELLS,
    _format_cells,
    impulse_response,
    simulate,
    step,
    write_trajectory_csv,
)
from gearnet.errors import GraphValidationError, ScenarioError, SingularKKT
from gearnet.kinematics import constraint_matrix
from gearnet.scenario_io import parse_scenario
from gearnet.verification import check_invariants
from gearnet.mechanism import (
    OMEGA_EPS,
    AppliedTorque,
    ConstantResistive,
    Locked,
    MechanismGraph,
    RigidCoupling,
    Viscous,
)


def test_constraints_hold_at_every_step():
    # Every state is rebuilt on the constraint set, so |C @ omega| stays
    # at round-off over the whole canonical run instead of drifting.
    scn = canonical_equal_load_scenario()
    traj = simulate(scn)
    C = constraint_matrix(scn.graph)
    assert np.max(np.abs(C @ traj.omega.T)) < 1e-13
    assert np.max(np.abs(C @ traj.alpha.T)) < 1e-8


def test_step_matches_simulate():
    scn = canonical_equal_load_scenario(duration=0.01)
    traj = simulate(scn)
    v_next, alpha, _ = step(scn, traj.omega[0], traj.t[0])
    assert np.allclose(alpha, traj.alpha[0], atol=1e-12)
    assert np.allclose(v_next, traj.omega[1], atol=1e-12)


def test_equal_loads_reach_balanced_speeds():
    traj = simulate(canonical_equal_load_scenario())
    final = traj.final_state()
    for name in ("O1", "O2", "O3"):
        assert final[name] == pytest.approx(2.0, abs=1e-9)


def test_velocity_drive_from_rest_spins_up_in_one_step():
    scn = canonical_equal_load_scenario(duration=0.01, initial="rest")
    traj = simulate(scn)
    assert traj.omega_of("input")[0] == 0.0
    assert traj.omega_of("input")[1] == pytest.approx(20.0, abs=1e-9)


def test_element_power_is_conjugate_along_trajectory():
    # Lossless elements: recorded port torques do no net work on any
    # feasible velocity pattern, at every time point.
    rng = np.random.default_rng(3)
    scn = random_tree_scenario(rng, duration=0.05)
    traj = simulate(scn)
    for e in scn.graph.elements:
        power = np.zeros(len(traj.t))
        for port, sid in e.ports():
            power += traj.port_torque(e.name, port) * traj.omega_of(scn.graph.shaft_name(sid))
        scale = max(1.0, np.max(np.abs(power)))
        assert np.max(np.abs(power)) / max(scale, 1.0) < 1e-8 or np.max(np.abs(power)) < 1e-8


def test_torque_driven_reaches_analytic_steady_state():
    # Input effort tau_e against viscous b on each output: the effective
    # drag seen by the input is 3*b*j^2/k^2, so omega_in -> tau_e / that.
    g = build_3ood()
    k = g.meta["ratio_k"]
    j = g.meta["ratio_j"]
    tau_e, b = 3.0, 1.0
    scn = Scenario(
        graph=g,
        drive=Drive.torque(tau_e),
        loads={n: Viscous(b) for n in g.meta["outputs"]},
        options=SimOptions(duration=0.6, dt=1e-4, initial="rest"),
    )
    traj = simulate(scn)
    w_in = traj.omega_of("input")[-1]
    assert w_in == pytest.approx(tau_e * k * k / (3.0 * b * j * j), rel=1e-4)
    for n in g.meta["outputs"]:
        assert traj.omega_of(n)[-1] == pytest.approx(j * w_in / k, rel=1e-6)


def test_locked_input_recirculates_output_motion():
    g = build_3ood()
    scn = Scenario(
        graph=g,
        drive=Drive.velocity(3.0, shaft="O1"),
        loads={"input": Locked(), "O2": Viscous(1.0), "O3": Viscous(1.0)},
        options=SimOptions(duration=0.3, dt=1e-4),
    )
    traj = simulate(scn)
    assert np.max(np.abs(traj.omega_of("input"))) < 1e-12
    assert traj.omega_of("O2")[-1] == pytest.approx(-1.5, abs=1e-6)
    assert traj.omega_of("O3")[-1] == pytest.approx(-1.5, abs=1e-6)


def test_rk4_and_euler_agree_when_converged():
    rng = np.random.default_rng(11)
    scn = random_tree_scenario(rng, duration=0.05)
    euler = Scenario(
        graph=scn.graph,
        drive=scn.drive,
        loads=scn.loads,
        options=SimOptions(duration=0.05, dt=2e-5),
    )
    v_rk4 = simulate(scn).omega[-1]
    v_euler = simulate(euler).omega[-1]
    assert np.max(np.abs(v_rk4 - v_euler)) < 1e-4


def test_applied_torque_load_accepts_time_series():
    g = build_two_output_diff(side_inertia=1.0)
    scn = Scenario(
        graph=g,
        drive=Drive.velocity(2.0, shaft="ring"),
        loads={"side_a": AppliedTorque(lambda t: 0.5 * np.sin(t))},
        options=SimOptions(duration=0.02, dt=1e-3),
    )
    traj = simulate(scn)
    assert traj.omega_of("ring")[-1] == pytest.approx(2.0, abs=1e-12)


def test_redundant_rows_raise_singular_kkt():
    g = MechanismGraph()
    g.add_shaft("x", inertia=1.0, role="input")
    g.add_shaft("y", inertia=1.0)
    g.add_element(RigidCoupling(a=0, b=1, name="c1"))
    g.add_element(RigidCoupling(a=0, b=1, name="c2"))
    g.set_external("x", "y")
    scn = Scenario(
        graph=g.finalize(),
        drive=Drive.torque(1.0, shaft="x"),
        options=SimOptions(duration=0.01, dt=1e-3),
    )
    with pytest.raises(SingularKKT) as err:
        simulate(scn)
    assert err.value.direction is not None


def test_motion_without_inertia_raises_singular_kkt():
    # All-massless differential under a torque drive: no feasible motion
    # carries inertia, so nothing determines the accelerations.
    g = build_two_output_diff(ring_inertia=0.0, side_inertia=0.0)
    scn = Scenario(
        graph=g,
        drive=Drive.torque(1.0),
        options=SimOptions(duration=0.01, dt=1e-3),
    )
    with pytest.raises(SingularKKT, match="carries no inertia") as err:
        simulate(scn)
    mode = err.value.direction
    assert mode.shape == (g.n_shafts,)
    assert np.max(np.abs(constraint_matrix(g) @ mode)) < 1e-12


def test_scenario_validation_rejects_contradictions():
    g = build_3ood()
    base = dict(graph=g, drive=Drive.velocity(20.0))
    with pytest.raises(ScenarioError, match="duration"):
        Scenario(**base, options=SimOptions(duration=0.0)).validate()
    with pytest.raises(ScenarioError, match="integrator"):
        Scenario(**base, options=SimOptions(integrator="leapfrog")).validate()
    with pytest.raises(ScenarioError, match="cannot lock the driven shaft"):
        Scenario(graph=g, drive=Drive.velocity(1.0), loads={"input": Locked()}).validate()


def test_scenario_validation_holds_every_rule_of_a_run():
    # validate is the one validator: simulate, the file reader and the
    # penalty reference all reject these before any work
    g = build_3ood()
    rk4_rest = SimOptions(duration=0.01, integrator="rk4", initial="rest")
    rest_spin = Scenario(graph=g, drive=Drive.velocity(20.0), options=rk4_rest)
    with pytest.raises(ScenarioError, match="sim.initial: 'rest' conflicts with a nonzero"):
        rest_spin.validate()
    # only the prescribed speed at t = 0 counts
    ramp = Series(np.array([0.0, 0.01]), np.array([0.0, 20.0]))
    Scenario(graph=g, drive=Drive.velocity(ramp), options=rk4_rest).validate()
    Scenario(graph=g, drive=Drive.torque(1.0), options=rk4_rest).validate()
    Scenario(graph=g, drive=Drive.velocity(20.0), options=SimOptions(initial="rest")).validate()

    brake = Scenario(graph=g, drive=Drive.velocity(20.0), loads={"O1": "brake"})
    with pytest.raises(ScenarioError, match="loads.O1: unsupported load 'brake'"):
        brake.validate()
    with pytest.raises(ScenarioError, match="drive.mode: unknown mode 'spin'"):
        Scenario(graph=g, drive=Drive(mode="spin", value=1.0)).validate()

    bare = MechanismGraph()
    bare.add_shaft("x", inertia=0.5)
    bare.set_external("x")
    with pytest.raises(ScenarioError, match=r"drive\.shaft: no shaft given"):
        Scenario(graph=bare.finalize(), drive=Drive.torque(1.0)).validate()


def test_validate_finalizes_the_graph():
    # a library graph whose roles are set but that was never finalized:
    # the input comes from its role, and a 3ood gets its ten checks
    built = build_3ood()
    g = MechanismGraph()
    for shaft in built.shafts:
        g.add_shaft(shaft.name, shaft.inertia, shaft.role)
    for element in built.elements:
        g.add_element(element)
    scn = Scenario(
        graph=g,
        drive=Drive.velocity(20.0),
        loads={name: Viscous(1.0) for name in ("O1", "O2", "O3")},
        options=SimOptions(duration=0.01, dt=1e-4),
    )
    scn.validate()
    assert scn.drive_shaft() == "input"
    assert g.meta == built.meta
    with pytest.raises(GraphValidationError, match="finalized"):
        g.add_shaft("late")
    report = check_invariants(simulate(scn))
    assert len(report.applicable()) == 10 and report.all_passed()


def test_penalty_reference_rejects_an_unsupported_load():
    # the reference models neither speed prescriptions nor massless shafts
    cases = [
        (Drive.torque(1.0), {"side_a": "brake"}, 1e-3, "loads.side_a: unsupported load 'brake'"),
        (Drive.velocity(1.0), {}, 1e-3, "torque-driven scenarios only"),
        (Drive.torque(1.0), {"side_a": Locked()}, 1e-3, "torque-driven scenarios only"),
        (Drive.torque(1.0), {}, 0.0, "inertia on every shaft; massless: side_a, side_b$"),
    ]
    for drive, loads, inertia, message in cases:
        scn = Scenario(
            graph=build_two_output_diff(side_inertia=inertia),
            drive=drive,
            loads=loads,
            options=SimOptions(duration=0.01),
        )
        with pytest.raises(ScenarioError, match=message):
            penalty_velocities(scn)


def test_penalty_closed_form_agrees_with_radau():
    # acceptance 09's graphs are linear, so their reference is the closed
    # form; on its first three it must land where Radau does.  They run
    # 0.01 s, not 0.1 s: Radau's atol of 1e-12 is below the round-off of
    # the K_PEN rows here, and it takes about 9 s over 0.1 s
    for seed in range(1000, 1003):
        system = PenaltySystem(random_tree_scenario(np.random.default_rng(seed), duration=0.01))
        assert system.linear
        assert np.max(np.abs(system.closed_form() - system.radau())) < 1e-8


def test_record_torques_picks_the_csv_columns_only(tmp_path):
    # the multipliers are kept either way: record_torques decides only
    # whether the CSV carries the port torque columns
    on = simulate(canonical_equal_load_scenario(duration=0.01))
    off = simulate(canonical_equal_load_scenario(duration=0.01, record_torques=False))
    assert np.array_equal(off.multipliers.view(np.int64), on.multipliers.view(np.int64))
    assert np.array_equal(off.port_torque("worm1", "worm"), on.port_torque("worm1", "worm"))
    on.to_csv(tmp_path / "on.csv")
    off.to_csv(tmp_path / "off.csv")
    on_lines = (tmp_path / "on.csv").read_text().splitlines()
    off_lines = (tmp_path / "off.csv").read_text().splitlines()
    width = 1 + 2 * on.omega.shape[1]
    assert [line.split(",")[:width] for line in on_lines] == [line.split(",") for line in off_lines]
    assert all(".tau_" in name for name in on_lines[0].split(",")[width:])


def test_port_torque_names_an_unknown_port_or_element():
    traj = simulate(canonical_equal_load_scenario(duration=0.001))
    with pytest.raises(GraphValidationError, match="element 'worm1' has no port 'ring'"):
        traj.port_torque("worm1", "ring")
    with pytest.raises(GraphValidationError, match="no element named 'nope'"):
        traj.port_torque("nope", "worm")


def test_csv_round_trips_exactly(tmp_path):
    # four chunks, the last one partial; every cell must parse back to the
    # bit pattern of the series it came from
    scn = canonical_equal_load_scenario(duration=0.02)
    traj = simulate(scn)
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    header, *lines = path.read_text().splitlines()
    names = header.split(",")
    parsed = np.array([[float(cell) for cell in line.split(",")] for line in lines])
    want = {"t": traj.t}
    for name in traj.shaft_names:
        want[f"{name}.omega"] = traj.omega_of(name)
        want[f"{name}.alpha"] = traj.alpha_of(name)
    for e in scn.graph.elements:
        for port, _ in e.ports():
            want[f"{e.name}.tau_{port}"] = traj.port_torque(e.name, port)
    assert names == list(want)
    for name, column in zip(names, parsed.T):
        assert np.array_equal(column.view(np.int64), want[name].view(np.int64)), name


def reference_csv(traj):
    """The trajectory CSV written the plain way: each cell on its own."""
    graph = traj.scenario.graph
    names = ["t"]
    for name in traj.shaft_names:
        names += [f"{name}.omega", f"{name}.alpha"]
    columns = [traj.t]
    for i in range(len(traj.shaft_names)):
        columns += [traj.omega[:, i], traj.alpha[:, i]]
    if traj.scenario.options.record_torques:
        for e in graph.elements:
            for port, _ in e.ports():
                names.append(f"{e.name}.tau_{port}")
                columns.append(traj.port_torque(e.name, port))
    lines = [",".join(names)]
    for i in range(len(traj.t)):
        lines.append(",".join("%.17g" % float(col[i]) for col in columns))
    return "\n".join(lines) + "\n"


EDGE_VALUES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1,
    np.nextafter(0.1, 1.0),
    np.nextafter(0.1, 0.0),
    2.0,
    np.nextafter(2.0, 3.0),
]


def coupled_chain() -> MechanismGraph:
    """x, y and z joined by two couplings, whose rows have coefficients -1, +1."""
    g = MechanismGraph()
    for name in "xyz":
        g.add_shaft(name, inertia=1.0)
    g.add_element(RigidCoupling(a=0, b=1, name="c1"))
    g.add_element(RigidCoupling(a=1, b=2, name="c2"))
    return g.finalize()


def chunk_rows(columns: int) -> int:
    """The rows of one chunk of a CSV write with this many columns."""
    return max(1, _CSV_CELLS // columns)


def synthetic_trajectory(rows: int, record_torques: bool) -> Trajectory:
    """Rows drawn from EDGE_VALUES, except the second chunk's.

    The first chunk repeats every value many times and has 0.0 and -0.0
    in one column; the second mixes the edge values into cells that are
    all distinct.  Each coupling's multiplier is its ``b`` column, so its
    ``a`` column is the negated multiplier, and the first rows of both
    multipliers run through the edge values.
    """
    graph = coupled_chain()
    n = graph.n_shafts
    rng = np.random.default_rng(8)
    table = rng.choice(np.array(EDGE_VALUES), size=(rows, 1 + 2 * n + 4))  # in CSV column order
    table[:2, 1] = [0.0, -0.0]
    chunk = chunk_rows(11 if record_torques else 7)
    second = table[chunk : 2 * chunk]
    if second.size:
        second[:] = rng.standard_normal(second.shape) * 10.0 ** rng.integers(-300, 300, second.shape)
        second.flat[: len(EDGE_VALUES)] = EDGE_VALUES
    multipliers = table[:, [2 * n + 2, 2 * n + 4]]  # c1.tau_b, c2.tau_b
    edges = min(rows, len(EDGE_VALUES))
    multipliers[:edges, 0] = EDGE_VALUES[:edges]
    multipliers[:edges, 1] = EDGE_VALUES[::-1][:edges]
    scn = Scenario(
        graph=graph,
        drive=Drive.torque(1.0, shaft="x"),
        options=SimOptions(record_torques=record_torques),
    )
    return Trajectory(
        scenario=scn,
        t=table[:, 0],
        omega=table[:, 1 : 1 + 2 * n : 2],
        alpha=table[:, 2 : 2 + 2 * n : 2],
        multipliers=multipliers,
        step_torque=np.zeros((rows - 1, n)),
    )


@pytest.mark.parametrize("record_torques", [True, False], ids=["torques", "no-torques"])
@pytest.mark.parametrize("length", ["chunks", "short"])
def test_csv_matches_a_per_cell_writer(tmp_path, length, record_torques):
    chunk = chunk_rows(11 if record_torques else 7)
    rows = 2 * chunk + 5 if length == "chunks" else 7
    traj = synthetic_trajectory(rows, record_torques)
    path = tmp_path / "synthetic.csv"
    write_trajectory_csv(traj, path)
    text = path.read_bytes().decode("utf-8")
    assert text == reference_csv(traj)
    assert ",-0," in text and ",0," in text
    if record_torques:
        # -0.0, the smallest subnormals, the largest floats and one-ulp
        # pairs reach the torque columns through the -1 and +1 coefficients
        torques = np.array([[float(c) for c in line.split(",")[-4:]] for line in text.splitlines()[1:]])
        bits = set(torques.ravel().view(np.int64).tolist())
        for value in EDGE_VALUES:
            for signed in (value, -value):
                assert np.float64(signed).view(np.int64) in bits, signed

    # the data covers both kinds of chunk: 17 digits keep distinct floats distinct
    lines = text.splitlines()[1:]
    repeating = [cell for line in lines[:chunk] for cell in line.split(",")]
    assert 2 * len(set(repeating)) <= len(repeating)
    if rows > chunk:
        distinct = [cell for line in lines[chunk : 2 * chunk] for cell in line.split(",")]
        assert len(set(distinct)) == len(distinct)


def test_csv_keeps_the_sign_of_zero_from_chunk_to_chunk(tmp_path):
    # both chunks repeat their values, so the second looks up what it
    # shares with the first; only the first holds 0.0, only the second -0.0
    chunk = chunk_rows(7)
    rows = 2 * chunk
    table = np.ones((rows, 7))
    table[:chunk:2] = 0.0
    table[chunk::2] = -0.0
    traj = Trajectory(
        scenario=Scenario(
            graph=coupled_chain(),
            drive=Drive.torque(1.0, shaft="x"),
            options=SimOptions(record_torques=False),
        ),
        t=table[:, 0],
        omega=table[:, 1::2],
        alpha=table[:, 2::2],
        multipliers=np.zeros((rows, 2)),
        step_torque=np.zeros((rows - 1, 3)),
    )
    path = tmp_path / "zeros.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes().decode("utf-8") == reference_csv(traj)


def percent_17g(block: np.ndarray) -> bytes:
    """The cells of a (rows, columns) block by ``%``, joined as _format_cells joins them."""
    rows, cols = block.shape
    return ((",".join(["%.17g"] * cols) + "\n") * rows % tuple(block.ravel().tolist())).encode()


def format_cells_edge_values() -> np.ndarray:
    """Signed zeros, subnormals, the largest float, inf and nan, each power
    of ten from 1e-300 to 1e300 and its neighbours one ulp away, exact ties
    at the 17th digit in each decade from 1e5 to 1e15, and dyadic rationals."""
    rng = np.random.default_rng(21)
    values = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    values += [math.inf, math.nan]
    for k in range(-300, 301):
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    # 10**d + an integer below 10**d + odd / 2**m, m = 17 - d, has 18
    # digits, the last a 5, and is a float
    values += [1e15 + 0.25, 1e15 + 0.75]
    for d in range(5, 16):
        m = 17 - d
        whole = 10**d + rng.integers(0, 10**d, 50)
        odd = 2 * rng.integers(0, 2 ** (m - 1), 50) + 1
        ties = whole + odd / 2.0**m
        assert np.array_equal(ties * 2.0**m - whole * 2.0**m, odd)
        values += ties.tolist()
    values += [n / 2.0**j for n in range(1, 200) for j in range(0, 64, 3)]
    values = np.array(values)
    return np.concatenate([values, -values])


def test_format_cells_matches_percent_17g():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, size=1_002_000, dtype=np.uint64).view(np.float64)
    random_bits = bits[np.isfinite(bits)][:1_000_000]
    assert random_bits.size == 1_000_000
    # the magnitudes a trajectory holds, in fixed and exponent notation
    typical = rng.standard_normal(200_000) * 10.0 ** rng.uniform(-8, 8, 200_000)
    edges = format_cells_edge_values()
    blocks = [edges.reshape(-1, 1), edges[: edges.size // 8 * 8].reshape(-1, 8)]
    blocks += [random_bits.reshape(-1, 8), typical.reshape(-1, 8)]
    for block in blocks:
        assert _format_cells(block) == percent_17g(block)


def test_benchmark_trajectories_match_a_per_cell_writer(tmp_path, monkeypatch):
    # a sweep-3ood file with resistive and applied-torque loads and every
    # mixed-families file: the chunks that format every cell write what
    # the per-cell writer writes, on real trajectories
    workloads = bench_workloads()
    sweep = workloads.generate("sweep-3ood", 0)[1]
    assert {load["kind"] for load in sweep[1]["loads"].values()} >= {"resistive", "applied_torque"}
    formatted = []
    real = dynamics._format_cells

    def format_cells(block):
        formatted.append(name)
        return real(block)

    monkeypatch.setattr(dynamics, "_format_cells", format_cells)
    docs = [sweep] + workloads.generate("mixed-families", 0)
    for name, doc in docs:
        traj = simulate(parse_scenario(doc, name).scenario)
        path = tmp_path / "run.csv"
        write_trajectory_csv(traj, path)
        assert path.read_bytes().decode("utf-8") == reference_csv(traj), name
    assert sweep[0] in formatted
    assert len(set(formatted)) >= len(docs) // 2


def test_csv_is_deterministic(tmp_path):
    scn = canonical_equal_load_scenario(duration=0.01)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    simulate(scn).to_csv(a)
    simulate(scn).to_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_impulse_response_of_cascaded_tree():
    # Unit torque on output A of the two-stage tree with the root braked:
    # the sibling B reacts twice as hard as the cousins C and D.
    g = build_2_2d()
    alpha = impulse_response(g, "A", held=("root",))
    a, b, c, d = (alpha[g.shaft_id(n)] for n in "ABCD")
    assert a == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert b == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert c == pytest.approx(-1.0 / 6.0, abs=1e-9)
    assert d == pytest.approx(-1.0 / 6.0, abs=1e-9)


def test_impulse_response_with_held_shaft():
    g = build_3ood()
    alpha = impulse_response(g, "O1", held=("input",))
    assert alpha[g.shaft_id("input")] == pytest.approx(0.0, abs=1e-12)
    assert alpha[g.shaft_id("O1")] > 0
    o2 = alpha[g.shaft_id("O2")]
    o3 = alpha[g.shaft_id("O3")]
    assert o2 == pytest.approx(o3, abs=1e-12)
    assert o2 < 0


def test_impulse_response_rejects_holding_the_probed_shaft():
    with pytest.raises(ScenarioError, match="loads.O1: cannot lock the driven shaft"):
        impulse_response(build_3ood(), "O1", held=("O1",))
    with pytest.raises(ScenarioError, match="drive.shaft: no such shaft 'nope'"):
        impulse_response(build_3ood(), "nope")


@pytest.mark.parametrize("integrator", ["semi_implicit_euler", "rk4"])
def test_load_models_converge_to_the_penalty_reference(integrator):
    # power_balance checks the energy of the torque each step applied, not
    # the load models behind it, so check those against the independent
    # penalty reference: the final-speed gap halves with dt, where a sign
    # or timing error in a load would leave a gap of order one.
    ramp = Series(np.array([0.0, 0.04, 0.1]), np.array([-0.1, -0.5, -0.2]))

    def scenario(dt):
        return Scenario(
            graph=build_two_output_diff(),
            drive=Drive.torque(1.0),
            loads={"side_a": ConstantResistive(0.2), "side_b": AppliedTorque(ramp)},
            options=SimOptions(duration=0.1, dt=dt, integrator=integrator),
        )

    reference = penalty_velocities(scenario(1e-4))
    gaps = [
        np.max(np.abs(simulate(scenario(dt)).omega[-1] - reference)) for dt in (2e-4, 1e-4, 5e-5)
    ]
    assert gaps[-1] < 1e-2
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.7 < coarse / fine < 2.4


def test_rk4_is_fourth_order_under_a_smooth_velocity_drive():
    def final_speeds(dt):
        scn = Scenario(
            graph=build_3ood(),
            drive=Drive.velocity(lambda t: 20.0 * math.sin(30.0 * t) + 5.0),
            loads={"O1": Viscous(0.5), "O2": Viscous(1.0), "O3": Viscous(2.0)},
            options=SimOptions(duration=0.2, dt=dt, integrator="rk4"),
        )
        return simulate(scn).omega[-1]

    reference = final_speeds(2.5e-5)
    errors = [np.max(np.abs(final_speeds(dt) - reference)) for dt in (8e-4, 4e-4, 2e-4, 1e-4)]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 12.0


FRICTION_REGIMES = {
    # a friction shaft far from 0 rad/s, where tanh is flat: 3ood under a
    # smooth velocity drive, friction on O2
    "slipping": (
        build_3ood,
        Drive.velocity(lambda t: 20.0 + 5.0 * math.sin(30.0 * t)),
        {"O1": Viscous(0.5), "O2": ConstantResistive(0.3), "O3": Viscous(2.0)},
    ),
    # a friction shaft within OMEGA_EPS of 0 rad/s, where each stage's
    # friction follows its own speed: 2od under a small smooth torque
    "creeping": (
        build_two_output_diff,
        Drive.torque(lambda t: 2e-5 * math.sin(30.0 * t)),
        {"side_a": ConstantResistive(1e-5), "side_b": Viscous(0.01)},
    ),
}


@pytest.mark.parametrize("regime", FRICTION_REGIMES)
def test_rk4_is_fourth_order_with_friction(regime):
    build, drive, loads = FRICTION_REGIMES[regime]
    shaft = next(name for name, load in loads.items() if isinstance(load, ConstantResistive))

    def run(dt):
        scn = Scenario(
            graph=build(),
            drive=drive,
            loads=loads,
            options=SimOptions(duration=0.2, dt=dt, integrator="rk4"),
        )
        return simulate(scn)

    reference = run(2.5e-5).omega[-1]
    runs = [run(dt) for dt in (8e-4, 4e-4, 2e-4, 1e-4)]
    speeds = np.abs(np.concatenate([traj.omega_of(shaft) for traj in runs]))
    if regime == "slipping":
        assert speeds.min() > 1.0
    else:
        assert speeds.max() < OMEGA_EPS
    errors = [np.max(np.abs(traj.omega[-1] - reference)) for traj in runs]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 12.0


@pytest.mark.parametrize("integrator", ["semi_implicit_euler", "rk4"])
def test_velocity_ramp_records_its_slope_from_the_first_row(integrator):
    # each row holds the acceleration of the step launched from it, so the
    # first row of a 0 -> 10 rad/s ramp over 0.1 s is on the ramp already
    scn = Scenario(
        graph=build_two_output_diff(),
        drive=Drive.velocity(Series(np.array([0.0, 0.1]), np.array([0.0, 10.0]))),
        loads={"side_a": Viscous(1.0), "side_b": Viscous(2.0)},
        options=SimOptions(duration=0.01, dt=1e-3, integrator=integrator),
    )
    alpha = simulate(scn).alpha_of(scn.drive_shaft())
    assert alpha == pytest.approx(np.full(len(alpha), 100.0), rel=1e-9)
