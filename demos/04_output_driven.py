"""Back-driving one output while the input is held.

With the self-locking worm stage the input shaft cannot be turned from
the output side, so holding it costs nothing.  Spinning O1 forward then
forces the other two outputs backwards: the speed sum is geared to the
held input, so w_O2 + w_O3 = -w_O1 and by symmetry each picks up half.
The torque story is the interesting part: power injected at O1 does not
reach the input at all, it recirculates out through O2 and O3.
"""

from gearnet import (
    Drive,
    Locked,
    Scenario,
    SimOptions,
    Viscous,
    build_3ood,
    simulate,
)


def main() -> None:
    g = build_3ood()
    scn = Scenario(
        graph=g,
        drive=Drive.velocity(3.0, shaft="O1"),
        loads={"input": Locked(), "O2": Viscous(1.0), "O3": Viscous(1.0)},
        options=SimOptions(duration=0.5, dt=1e-4),
    )
    traj = simulate(scn)

    w1 = traj.omega_of("O1")[-1]
    w2 = traj.omega_of("O2")[-1]
    w3 = traj.omega_of("O3")[-1]
    wi = traj.omega_of("input")[-1]
    print("input locked, O1 driven at +3.0 rad/s")
    print(f"  input {wi:+.6f} rad/s (held by the self-locking worm)")
    print(f"  O1 {w1:+.4f}  O2 {w2:+.4f}  O3 {w3:+.4f} rad/s")
    print(f"  sum of outputs {w1 + w2 + w3:+.2e} rad/s (geared to the held input)")

    tau1 = traj.drive_torque[-1]
    p1 = tau1 * w1
    p2 = 1.0 * w2 * w2
    p3 = 1.0 * w3 * w3
    print(f"  torque needed at O1: {tau1:.4f} N*m")
    print(f"  power in at O1 {p1:.3f} W, dissipated at O2 {p2:.3f} W and O3 {p3:.3f} W")
    print("  nothing flows through the input shaft; the loop closes "
          "entirely between the outputs")


if __name__ == "__main__":
    main()
