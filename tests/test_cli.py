"""Command-line interface: subcommands, exit codes, artifact outputs."""

import errno
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gearnet.cli import main
from gearnet.verification import CheckResult, VerificationReport


FAILING_REPORT = VerificationReport(
    results=[
        CheckResult(
            check="output_speed_sum",
            anchor="w_O1 + w_O2 + w_O3 = 3*j*w_i/k",
            applicable=True,
            max_abs_residual=1.0,
            max_rel_residual=1.0,
            tolerance=1e-8,
            passed=False,
        )
    ]
)


def write_scenario(path, **overrides):
    doc = {
        "mechanism": {"builder": "3ood"},
        "drive": {"mode": "velocity", "value": 20.0},
        "loads": {
            "O1": {"kind": "viscous", "b": 1.0},
            "O2": {"kind": "viscous", "b": 1.0},
            "O3": {"kind": "viscous", "b": 1.0},
        },
        "sim": {"duration": 0.02, "dt": 1e-4},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def test_dof_prints_mobility_counts(capsys):
    assert main(["dof", "--mechanism", "3ood"]) == 0
    out = capsys.readouterr().out
    assert "external_dof=3" in out
    assert "nullity=4" in out


def test_dof_json_output(capsys):
    assert main(["dof", "--mechanism", "2od", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "n_shafts": 3,
        "n_constraints": 1,
        "rank": 1,
        "nullity": 2,
        "external_dof": 2,
    }


def test_dof_accepts_builder_params(capsys):
    assert main(["dof", "--mechanism", "3ood", "--param", "ratio_k=10"]) == 0
    assert "external_dof=3" in capsys.readouterr().out


def test_dof_accepts_mechanism_file(tmp_path, capsys):
    from gearnet.builders import build_two_output_diff

    path = tmp_path / "diff.json"
    build_two_output_diff().save(path)
    assert main(["dof", "--mechanism", str(path)]) == 0
    assert "nullity=2" in capsys.readouterr().out


def test_dof_unknown_mechanism(capsys):
    assert main(["dof", "--mechanism", "hovercraft"]) == 1
    assert "neither a builder name" in capsys.readouterr().err


def test_nullspace_emits_feasible_basis(capsys):
    assert main(["nullspace", "--mechanism", "3ood"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["nullity"] == 4
    assert len(doc["basis"]) == 4
    from gearnet.builders import build_3ood
    from gearnet.kinematics import constraint_matrix

    C = constraint_matrix(build_3ood())
    for mode in doc["basis"]:
        assert np.max(np.abs(C @ np.array(mode))) < 1e-10


def test_simulate_writes_csv_next_to_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path / "case.json")
    assert main(["simulate", str(path)]) == 0
    assert (tmp_path / "case.csv").is_file()
    assert "wrote" in capsys.readouterr().out


def test_simulate_honours_output_paths(tmp_path):
    path = write_scenario(
        tmp_path / "case.json",
        outputs={"trajectory": "deep/run.csv", "report": "deep/report.json"},
    )
    (tmp_path / "deep").mkdir()
    assert main(["simulate", str(path)]) == 0
    assert (tmp_path / "deep" / "run.csv").is_file()
    # a report path in the scenario triggers checking even without --verify
    entries = json.loads((tmp_path / "deep" / "report.json").read_text())
    assert all(e["pass"] for e in entries)


def test_simulate_rerun_is_bit_identical(tmp_path):
    path = write_scenario(tmp_path / "case.json")
    assert main(["simulate", str(path)]) == 0
    first = (tmp_path / "case.csv").read_bytes()
    assert main(["simulate", str(path)]) == 0
    assert (tmp_path / "case.csv").read_bytes() == first


CANONICAL_CSV_SHA256 = "21ad3e9dbc1034952afbef95fff16c4ea35c71e7e6a5e5361bd9a771b321697c"


def test_canonical_csv_matches_golden_hash(tmp_path):
    """The README equal-load run writes the same bytes as before the
    step loop pre-sampled its inputs.

    The hash was taken from that earlier step loop with numpy 2.4.6 and
    Python 3.11.7 on x86-64 Linux; another numpy or BLAS build may round
    differently and change it.
    """
    path = write_scenario(tmp_path / "canonical.json", sim={"duration": 0.5, "dt": 1e-4})
    assert main(["simulate", str(path)]) == 0
    digest = hashlib.sha256((tmp_path / "canonical.csv").read_bytes()).hexdigest()
    assert digest == CANONICAL_CSV_SHA256


def test_simulate_argument_errors(tmp_path, capsys):
    assert main(["simulate"]) == 1
    assert main(["simulate", str(tmp_path / "absent.json")]) == 1
    assert "not found" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text('{"mechanism": }')
    assert main(["simulate", str(bad)]) == 1
    assert "line 1 column" in capsys.readouterr().err


def test_simulate_schema_error_names_field(tmp_path, capsys):
    path = write_scenario(tmp_path / "case.json", sim={"duration": 0.02, "dtt": 1e-4})
    assert main(["simulate", str(path)]) == 1
    assert "sim: unknown field" in capsys.readouterr().err


def _inline(shafts, ports=None):
    return {
        "inline": {
            "shafts": shafts,
            "elements": [
                {"kind": "fixed_ratio", "ports": ports or {"a": "x", "b": "y"}, "params": {"ratio": 2.0}}
            ],
            "external": ["x", "y"],
        }
    }


_X = {"name": "x", "inertia": 1.0}
_Y = {"name": "y", "inertia": 1.0}


@pytest.mark.parametrize(
    "mechanism, field",
    [
        (_inline([dict(_X, inertia="heavy"), _Y]), r"shafts\[0\]\.inertia"),
        (_inline([dict(_X, inertia=None), _Y]), r"shafts\[0\]\.inertia"),
        (_inline([dict(_X, inertia=True), _Y]), r"shafts\[0\]\.inertia"),
        (_inline([_X, {"inertia": 1.0}]), r"shafts\[1\]\.name"),
        (_inline([_X, _Y], ports=["x", "y"]), r"elements\[0\]"),
        ({"inline": dict(_inline([_X, _Y])["inline"], external=[["x"]])}, "no shaft named"),
        ({"builder": "3ood", "params": {"ratio_k": "abc"}}, "bad parameters"),
        (["dof", "--mechanism", "3ood", "--param", "ratio_k=abc"], "bad parameters"),
        (["dof", "--mechanism", "3ood", "--param", "ratio_k"], r"--param: expected KEY=VALUE"),
        (["dof", "--mechanism", "{file}", "--param", "ratio=2"], r"--param: only valid with a builder"),
    ],
    ids=[
        "string-inertia", "null-inertia", "bool-inertia", "nameless-shaft", "port-list", "list-external",
        "file-ratio-k", "dof-ratio-k", "dof-param-without-equals", "dof-param-with-file",
    ],
)
def test_bad_mechanism_input_exits_1_without_traceback(tmp_path, capsys, mechanism, field):
    # A dict is a scenario's mechanism section; a list is a whole command
    # line, in which {file} stands for a saved mechanism file.
    from gearnet.builders import build_two_output_diff

    if isinstance(mechanism, dict):
        drive = {"mode": "torque", "value": 1.0, "shaft": "x"}
        if "builder" in mechanism:
            drive = {"mode": "velocity", "value": 20.0}
        path = write_scenario(tmp_path / "case.json", mechanism=mechanism, drive=drive, loads={})
        argv = ["simulate", str(path)]
    else:
        build_two_output_diff().save(tmp_path / "mechanism.json")
        argv = [arg.replace("{file}", str(tmp_path / "mechanism.json")) for arg in mechanism]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert re.search(field, err)
    assert "Traceback" not in err


def _edit(**fields):
    """An edit of a scenario document: replace the named sections."""
    return lambda doc: doc.update(fields)


_RAMP = [[0.0, 0.0], [0.02, 1.0]]


@pytest.mark.parametrize(
    "edit, field",
    [
        (_edit(name=3), r"name: expected a string"),
        (_edit(mechanism=dict(_inline([_X, _Y]), params={})), r"mechanism\.params: only valid"),
        (_edit(mechanism={"builder": 3}), r"mechanism\.builder: expected"),
        (
            _edit(mechanism=_inline([_X, _Y]), drive={"mode": "input_locked"}, loads={}),
            r"drive\.shaft: no shaft given",
        ),
        (
            _edit(drive={"mode": "input_locked", "source": {"shaft": 1, "value": 3.0}}),
            r"drive\.source\.shaft: expected",
        ),
        (
            lambda doc: doc["loads"].update(O1={"kind": "applied_torque", "tau": 1.0, "series": _RAMP}),
            r"loads\.O1: give 'tau' or 'series', not both",
        ),
        (_edit(sim={"duration": 0.02, "record_torques": "yes"}), r"sim\.record_torques: expected"),
        (_edit(sim=[]), r"sim: expected an object"),
        (_edit(outputs={"trajectory": 5}), r"outputs\.trajectory: expected a string"),
        (
            _edit(drive={"mode": "velocity", "value": 1.0, "series": _RAMP}),
            r"drive: give exactly one of 'value' or 'series'",
        ),
        (_edit(drive={"mode": "velocity"}), r"drive: give exactly one of 'value' or 'series'"),
        (
            _edit(drive={"mode": "torque", "series": [[0.0, 1.0], [0.1]]}),
            r"drive\.series\[1\]: expected a \[t, value\] pair",
        ),
    ],
    ids=[
        "name-number", "inline-with-params", "builder-number", "held-inline-without-input",
        "source-shaft-number", "applied-tau-and-series", "record-torques-string", "sim-list",
        "trajectory-number", "value-and-series", "neither-value-nor-series", "series-pair",
    ],
)
def test_bad_scenario_document_exits_1_naming_the_field(tmp_path, capsys, edit, field):
    path = write_scenario(tmp_path / "case.json")
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.match(f"error: {field}", err), err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda d: None, "is not a directory"),
        (lambda d: (d.mkdir(), (d / "notes.txt").write_text("no scenarios")), r"no \*\.json scenario files"),
    ],
    ids=["missing", "no-json"],
)
def test_bad_batch_directory_exits_1(tmp_path, capsys, make, message):
    batch = tmp_path / "jobs"
    make(batch)
    assert main(["simulate", "--batch", str(batch)]) == 1
    assert re.match(f"error: --batch: .*{message}", capsys.readouterr().err)


def test_different_load_series_are_not_equal_loads(tmp_path, capsys):
    # Three different applied-torque series on the outputs are not the
    # equal-load regime, so its checks do not apply and --verify passes.
    loads = {
        out: {"kind": "applied_torque", "series": [[0.0, 0.0], [0.02, -scale]]}
        for out, scale in (("O1", 0.1), ("O2", 0.5), ("O3", 1.0))
    }
    path = write_scenario(tmp_path / "series.json", loads=loads)
    assert main(["simulate", str(path), "--verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "9/9 applicable checks passed" in out


def test_batch_verifies_files_recorded_without_torques(tmp_path, capsys):
    # record_torques only drops the CSV's torque columns: every torque
    # check still runs, from the multipliers the trajectory keeps
    batch = tmp_path / "jobs"
    batch.mkdir()
    off = {"duration": 0.02, "dt": 1e-4, "record_torques": False}
    write_scenario(batch / "equal.json", sim=off)
    write_scenario(
        batch / "held.json",
        sim=off,
        drive={"mode": "input_locked", "source": {"shaft": "O1", "value": 3.0}},
        loads={"O2": {"kind": "viscous", "b": 1.0}, "O3": {"kind": "resistive", "tau": 0.2}},
    )
    write_scenario(
        batch / "unequal.json",
        sim=off,
        drive={"mode": "torque", "value": 2.0},
        loads={"O1": {"kind": "viscous", "b": 0.5}, "O3": {"kind": "applied_torque", "tau": -0.3}},
    )
    assert main(["simulate", "--batch", str(batch), "--verify"]) == 0
    out = capsys.readouterr().out
    passed = re.findall(r"^(.+): (\d+)/(\d+) applicable checks passed$", out, re.M)
    assert [(Path(p).name, k, n) for p, k, n in passed] == [
        ("equal.json", "15", "15"),
        ("held.json", "11", "11"),
        ("unequal.json", "9", "9"),
    ]
    assert "batch: 3/3 scenarios succeeded" in out
    assert ".tau_" not in (batch / "equal.csv").read_text().split("\n", 1)[0]


def test_held_input_spellings_agree(tmp_path, capsys):
    # input_locked with a source is a Locked input plus a drive on the
    # source shaft: both files get the locked-input checks and one CSV
    loads = {"O2": {"kind": "viscous", "b": 1.0}, "O3": {"kind": "viscous", "b": 1.0}}
    source = {"shaft": "O1", "kind": "velocity", "value": 3.0}
    mode = write_scenario(
        tmp_path / "mode.json", drive={"mode": "input_locked", "source": source}, loads=loads
    )
    load = write_scenario(
        tmp_path / "load.json",
        drive={"mode": "velocity", "shaft": "O1", "value": 3.0},
        loads={"input": {"kind": "locked"}, **loads},
    )
    for path in (mode, load):
        assert main(["simulate", str(path), "--verify"]) == 0
        assert "11/11 applicable checks passed" in capsys.readouterr().out
    assert (tmp_path / "mode.csv").read_bytes() == (tmp_path / "load.csv").read_bytes()

    both = write_scenario(
        tmp_path / "both.json",
        drive={"mode": "input_locked", "source": source},
        loads={"input": {"kind": "locked"}, **loads},
    )
    assert main(["simulate", str(both)]) == 1
    assert "loads.input" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    import gearnet

    src = str(Path(gearnet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    # the batch pool imports multiprocessing and concurrent.futures when it starts
    probe = (
        "import sys, gearnet.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def write_singular_scenario(path):
    inline = {
        "shafts": [{"name": "x", "inertia": 1.0}, {"name": "y", "inertia": 1.0}],
        "elements": [
            {"kind": "rigid_coupling", "ports": {"a": "x", "b": "y"}, "name": "c1"},
            {"kind": "rigid_coupling", "ports": {"a": "x", "b": "y"}, "name": "c2"},
        ],
        "external": ["x", "y"],
    }
    path.write_text(
        json.dumps(
            {
                "mechanism": {"inline": inline},
                "drive": {"mode": "torque", "value": 1.0, "shaft": "x"},
                "sim": {"duration": 0.01, "dt": 1e-3},
            }
        )
    )
    return path


def test_solver_failure_exits_2(tmp_path, capsys):
    path = write_singular_scenario(tmp_path / "singular.json")
    assert main(["simulate", str(path)]) == 2
    assert "solver error" in capsys.readouterr().err


def test_massless_feasible_motion_exits_2(tmp_path, capsys):
    path = write_scenario(
        tmp_path / "massless.json",
        mechanism={"builder": "2od", "params": {"ring_inertia": 0.0, "side_inertia": 0.0}},
        drive={"mode": "torque", "value": 1.0},
        loads={},
    )
    assert main(["simulate", str(path)]) == 2
    assert "carries no inertia" in capsys.readouterr().err


def write_diverging_scenario(path):
    """Stiff viscous load under RK4 at a step far beyond its stability limit."""
    return write_scenario(
        path,
        mechanism={"builder": "2od"},
        drive={"mode": "torque", "value": 1.0},
        loads={"side_a": {"kind": "viscous", "b": 1000.0}},
        sim={"duration": 0.05, "dt": 1e-3, "integrator": "rk4"},
    )


def test_diverging_run_exits_2_single_and_batch(tmp_path, capsys):
    batch = tmp_path / "jobs"
    batch.mkdir()
    path = write_diverging_scenario(batch / "blowup.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warnings either
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solver error: the run diverged")
        assert "from step 30 (t=0.03 s)" in err
        assert err.count("\n") == 1
        assert main(["simulate", "--batch", str(batch)]) == 2
    captured = capsys.readouterr()
    assert f"{path}: solver error: the run diverged" in captured.out
    assert "batch: 0/1 scenarios succeeded" in captured.out
    assert captured.err == ""
    assert not (batch / "blowup.csv").exists()


def test_batch_runs_all_and_reports_worst(tmp_path, capsys):
    batch = tmp_path / "jobs"
    batch.mkdir()
    for i in range(3):
        write_scenario(batch / f"s{i}.json", name=f"s{i}")
    (batch / "broken.json").write_text("{nope")
    assert main(["simulate", "--batch", str(batch)]) == 1
    out = capsys.readouterr().out
    assert "3/4 scenarios succeeded" in out
    for i in range(3):
        assert (batch / f"s{i}.csv").is_file()


def test_batch_solver_error_matches_single_run(tmp_path, capsys):
    batch = tmp_path / "jobs"
    batch.mkdir()
    write_scenario(batch / "a.json")
    write_singular_scenario(batch / "b.json")
    assert main(["simulate", "--batch", str(batch)]) == 2
    out = capsys.readouterr().out
    assert f"{batch / 'b.json'}: solver error: " in out
    assert "batch: 1/2 scenarios succeeded" in out


def test_batch_survives_linalg_error_in_one_file(tmp_path, capsys, monkeypatch):
    from gearnet import cli

    batch = tmp_path / "jobs"
    batch.mkdir()
    for i in range(3):
        write_scenario(batch / f"s{i}.json", name=f"s{i}")
    real = cli.simulate

    def flaky(scenario):
        if scenario.name == "s1":
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(scenario)

    monkeypatch.setattr("gearnet.cli.simulate", flaky)
    assert main(["simulate", "--batch", str(batch)]) == 2
    out = capsys.readouterr().out
    assert f"{batch / 's0.json'}: wrote" in out
    assert f"{batch / 's1.json'}: solver error: SVD did not converge" in out
    assert f"{batch / 's2.json'}: wrote" in out
    assert "batch: 2/3 scenarios succeeded" in out


def set_cpus(monkeypatch, n):
    """Make the batch see ``n`` available CPUs: two or more start a pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_batch_files_sharing_an_output_leave_the_later_one_whole(tmp_path, monkeypatch, capsys):
    # the runs overlap in time, on more workers than the CPUs of a small
    # host; the last file in name order must win with its own bytes, as
    # in a serial loop
    set_cpus(monkeypatch, 3)
    batch = tmp_path / "jobs"
    batch.mkdir()
    shared = batch / "shared.csv"
    for name, speed in (("a", 20.0), ("b", 25.0), ("c", 30.0)):
        write_scenario(
            batch / f"{name}.json",
            drive={"mode": "velocity", "value": speed},
            sim={"duration": 0.2, "dt": 1e-4},
            outputs={"trajectory": "shared.csv"},
        )
    assert main(["simulate", str(batch / "c.json")]) == 0
    last = shared.read_bytes()
    shared.unlink()
    capsys.readouterr()

    assert main(["simulate", "--batch", str(batch)]) == 0
    assert shared.read_bytes() == last
    assert list(batch.glob("*.tmp")) == []
    assert capsys.readouterr().out.splitlines() == [
        *(f"{batch / name}.json: wrote {shared}" for name in "abc"),
        "batch: 3/3 scenarios succeeded",
    ]


@pytest.mark.parametrize(
    "sim",
    [{"duration": 1e308, "dt": 1e-300}, {"duration": 1e6, "dt": 1e-12}],
    ids=["overflow", "out-of-memory"],
)
def test_batch_reports_an_unrunnable_step_count_on_its_line(tmp_path, monkeypatch, capsys, sim):
    # duration / dt is not finite, or its 1e18 steps cannot be allocated:
    # the file is invalid input, reported on its own line, and the other
    # file's run still lands whole
    set_cpus(monkeypatch, 2)
    batch = tmp_path / "jobs"
    batch.mkdir()
    bad = write_scenario(
        batch / "a_bad.json",
        mechanism={"builder": "2od"},
        drive={"mode": "torque", "value": 1.0},
        loads={},
        sim=sim,
    )
    good = write_scenario(batch / "b_good.json")
    assert main(["simulate", "--batch", str(batch)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{bad}: error: sim.dt: ")
    assert lines[1:] == [f"{good}: wrote {batch / 'b_good.csv'}", "batch: 1/2 scenarios succeeded"]
    assert (batch / "b_good.csv").is_file()
    assert list(batch.glob("*.tmp")) == []


def test_unallocatable_trajectory_is_a_scenario_error(tmp_path, monkeypatch, capsys):
    # 1e18 steps: numpy refuses the time grid at once, so nothing is
    # allocated; run in process so that the mapping itself is exercised
    from gearnet.dynamics import simulate
    from gearnet.errors import ScenarioError
    from gearnet.scenario_io import load_scenario

    set_cpus(monkeypatch, 1)
    batch = tmp_path / "jobs"
    batch.mkdir()
    path = write_scenario(
        batch / "huge.json",
        mechanism={"builder": "2od"},
        drive={"mode": "torque", "value": 1.0},
        loads={},
        sim={"duration": 1e6, "dt": 1e-12},
    )
    with pytest.raises(ScenarioError) as caught:
        simulate(load_scenario(path).scenario)
    message = str(caught.value)
    assert re.fullmatch(
        r"sim\.dt: 1e-12 over sim\.duration 1000000\.0 is 1000000000000000000 steps, whose "
        r"trajectory needs about \d\.\de\+\d+ bytes; there is not enough memory for it",
        message,
    )
    assert main(["simulate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["simulate", "--batch", str(batch)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{path}: error: {message}",
        "batch: 0/1 scenarios succeeded",
    ]
    assert list(batch.glob("*.tmp")) == []


def log_forks(monkeypatch, log):
    """Append to ``log`` the pid of each process that calls ``os.fork``."""
    real = os.fork

    def fork():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real()

    monkeypatch.setattr(os, "fork", fork)


# (CPUs, scenario overrides): rows that are a multiple of neither the
# 64-row chunk nor the number of parts
SPLIT_WRITES = {
    "canonical": (2, {"sim": {"duration": 0.5, "dt": 1e-4}}),
    "resistive": (
        3,
        {
            "mechanism": {"builder": "2od"},
            "drive": {"mode": "torque", "value": 1.0},
            "loads": {
                "side_a": {"kind": "resistive", "tau": 0.3},
                "side_b": {"kind": "viscous", "b": 0.5},
            },
            "sim": {"duration": 0.3301, "dt": 1e-4},
        },
    ),
}


@pytest.mark.parametrize("case", SPLIT_WRITES)
def test_split_csv_write_gives_the_serial_bytes(tmp_path, monkeypatch, case):
    from gearnet.dynamics import _CSV_CHUNK

    cpus, overrides = SPLIT_WRITES[case]
    path = write_scenario(tmp_path / "case.json", **overrides)
    csv = tmp_path / "case.csv"
    forks = tmp_path / "forks"
    log_forks(monkeypatch, forks)
    set_cpus(monkeypatch, 1)
    assert main(["simulate", str(path)]) == 0
    serial = csv.read_bytes()
    assert not forks.exists()
    rows = serial.count(b"\n") - 1
    assert rows % _CSV_CHUNK and rows % cpus

    set_cpus(monkeypatch, cpus)
    assert main(["simulate", str(path)]) == 0
    assert csv.read_bytes() == serial
    assert forks.read_text().split() == [str(os.getpid())] * (cpus - 1)
    assert sorted(tmp_path.iterdir()) == [csv, path, forks]


@pytest.mark.parametrize(
    "error, message",
    [
        (OSError(errno.ENOSPC, "No space left on device"), "[Errno 28] No space left on device: '{csv}'"),
        (RuntimeError("formatter broke"), None),
    ],
    ids=["disk-full", "other"],
)
def test_failed_csv_writer_fails_the_run_and_leaves_nothing(
    tmp_path, monkeypatch, capsys, error, message
):
    # the second half fails in its forked writer and again when the run
    # writes it itself: the run ends as a one-CPU write would, an OSError
    # on an error line and anything else as the exception, and keeps the
    # previous CSV
    from gearnet import cli

    set_cpus(monkeypatch, 2)
    path = write_scenario(tmp_path / "case.json", sim={"duration": 0.25, "dt": 1e-4})
    csv = tmp_path / "case.csv"
    csv.write_text("previous run\n")
    real = cli.write_trajectory_csv

    def write(traj, target, start=0, stop=None):
        if start:
            raise error
        real(traj, target, start, stop)

    monkeypatch.setattr("gearnet.cli.write_trajectory_csv", write)
    if message is None:
        with pytest.raises(type(error), match=str(error)):
            main(["simulate", str(path)])
    else:
        assert main(["simulate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(csv=csv)}\n"
    assert csv.read_text() == "previous run\n"
    assert sorted(tmp_path.iterdir()) == [csv, path]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_csv_writer_that_fails_alone_leaves_the_serial_bytes(tmp_path, monkeypatch):
    # a writer that dies without writing its range: the run writes it
    from gearnet import cli

    path = write_scenario(tmp_path / "case.json", sim={"duration": 0.25, "dt": 1e-4})
    csv = tmp_path / "case.csv"
    set_cpus(monkeypatch, 1)
    assert main(["simulate", str(path)]) == 0
    serial = csv.read_bytes()
    csv.unlink()

    parent, real = os.getpid(), cli.write_trajectory_csv

    def write(traj, target, start=0, stop=None):
        if os.getpid() != parent:
            os._exit(3)
        real(traj, target, start, stop)

    forks = tmp_path / "forks"
    log_forks(monkeypatch, forks)
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr("gearnet.cli.write_trajectory_csv", write)
    assert main(["simulate", str(path)]) == 0
    assert csv.read_bytes() == serial
    assert forks.read_text().split() == [str(parent)]
    assert sorted(tmp_path.iterdir()) == [csv, path, forks]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_csv_write_without_a_process_to_spare_is_serial(tmp_path, monkeypatch):
    path = write_scenario(tmp_path / "case.json", sim={"duration": 0.25, "dt": 1e-4})
    csv = tmp_path / "case.csv"
    set_cpus(monkeypatch, 1)
    assert main(["simulate", str(path)]) == 0
    serial = csv.read_bytes()

    def no_process(*args):
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_process)
    assert main(["simulate", str(path)]) == 0
    assert csv.read_bytes() == serial
    assert sorted(tmp_path.iterdir()) == [csv, path]


def test_interrupted_run_reaps_its_csv_writers(tmp_path, monkeypatch):
    set_cpus(monkeypatch, 2)
    path = write_scenario(tmp_path / "case.json", sim={"duration": 0.25, "dt": 1e-4})
    forks = tmp_path / "forks"
    log_forks(monkeypatch, forks)

    def interrupted(traj):
        raise KeyboardInterrupt

    monkeypatch.setattr("gearnet.cli.check_invariants", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", str(path), "--verify"])
    assert forks.read_text().split() == [str(os.getpid())]
    assert sorted(tmp_path.iterdir()) == [path, forks]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_batch_workers_write_their_csv_alone(tmp_path, monkeypatch, capsys):
    # the workers already hold the CPUs, so only the pool forks, from here
    set_cpus(monkeypatch, 2)
    batch = tmp_path / "jobs"
    batch.mkdir()
    for name in "ab":
        write_scenario(batch / f"{name}.json", sim={"duration": 0.25, "dt": 1e-4})
    forks = tmp_path / "forks"
    log_forks(monkeypatch, forks)
    assert main(["simulate", "--batch", str(batch)]) == 0
    assert set(forks.read_text().split()) == {str(os.getpid())}
    assert sorted(p.name for p in batch.iterdir()) == ["a.csv", "a.json", "b.csv", "b.json"]


def write_mixed_batch(batch):
    """Good files, one with a report, and a file for each error exit code;
    the check stub of the equivalence test fails the one named 'fail'."""
    batch.mkdir()
    write_scenario(batch / "a_good.json", name="a")
    (batch / "b_broken.json").write_text("{nope")
    write_scenario(batch / "c_fail.json", name="fail")
    write_singular_scenario(batch / "d_singular.json")
    write_scenario(
        batch / "e_report.json",
        name="e",
        drive={"mode": "torque", "value": 2.0},
        outputs={"trajectory": "out/e.csv", "report": "out/e.report.json"},
    )
    (batch / "out").mkdir()
    write_scenario(
        batch / "f_rk4.json",
        name="f",
        drive={"mode": "velocity", "series": [[0.0, 5.0], [0.01, 15.0]]},
        sim={"duration": 0.02, "dt": 2e-4, "integrator": "rk4"},
    )


def output_digests(directory, scenarios):
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p not in scenarios
    }


@pytest.mark.parametrize("cpus", [2, 1])
def test_batch_matches_single_runs(tmp_path, monkeypatch, capsys, cpus):
    from gearnet import cli

    real = cli.check_invariants
    pids = tmp_path / "pids"

    def checks(traj):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return FAILING_REPORT if traj.scenario.name == "fail" else real(traj)

    monkeypatch.setattr("gearnet.cli.check_invariants", checks)
    batch = tmp_path / "jobs"
    write_mixed_batch(batch)
    files = sorted(batch.glob("*.json"))

    want_lines, want_code = [], 0
    for path in files:
        code = main(["simulate", str(path), "--verify"])
        captured = capsys.readouterr()
        want_lines += captured.out.splitlines()
        want_lines += [f"{path}: {line}" for line in captured.err.splitlines()]
        want_code = max(want_code, code)
    want_outputs = output_digests(batch, files)
    assert want_code == 3
    assert len(want_outputs) == 5  # a, c, e with its report, and f

    for p in batch.rglob("*"):
        if p.is_file() and p not in files:
            p.unlink()
    pids.unlink()
    set_cpus(monkeypatch, cpus)
    assert main(["simulate", "--batch", str(batch), "--verify"]) == want_code
    assert capsys.readouterr().out.splitlines() == [
        *want_lines,
        f"batch: 3/{len(files)} scenarios succeeded",
    ]
    assert output_digests(batch, files) == want_outputs
    assert not list(batch.rglob("*.tmp"))
    workers = set(pids.read_text().split())
    if cpus == 1:
        assert workers == {str(os.getpid())}
    else:
        assert str(os.getpid()) not in workers


def test_verify_passes_and_writes_report(tmp_path, capsys):
    path = write_scenario(tmp_path / "case.json")
    report = tmp_path / "report.json"
    assert main(["verify", str(path), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "all applicable checks passed" in out
    assert report.is_file()


def test_verify_report_write_failure_keeps_the_old_report(tmp_path, monkeypatch, capsys):
    # the report is written aside and moved into place, so a write that
    # fails partway leaves the last complete report as it was
    path = write_scenario(tmp_path / "case.json")
    report = tmp_path / "report.json"
    report.write_text("previous report\n")

    def full_disk(self, target):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write("[\n  {")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(VerificationReport, "write", full_disk)
    assert main(["verify", str(path), "--report", str(report)]) == 1
    assert report.read_text() == "previous report\n"
    assert list(tmp_path.glob("*.tmp")) == []
    assert str(report) in capsys.readouterr().err


def test_verify_passes_rk4_torque_drive_with_viscous_loads(tmp_path, capsys):
    # RK4 applies its stage-weighted torque, so the energy ledger must
    # charge that torque and not the one at the start of each step
    path = write_scenario(
        tmp_path / "case.json",
        drive={"mode": "torque", "value": 1.0},
        sim={"duration": 0.05, "dt": 1e-3, "integrator": "rk4"},
    )
    assert main(["verify", str(path)]) == 0
    assert "PASS power_balance" in capsys.readouterr().out


def test_verify_exit_3_when_checks_fail(tmp_path, monkeypatch):
    monkeypatch.setattr("gearnet.cli.check_invariants", lambda traj: FAILING_REPORT)
    path = write_scenario(tmp_path / "case.json")
    assert main(["verify", str(path)]) == 3
    assert main(["simulate", str(path), "--verify"]) == 3


def test_demo_every_builder(capsys):
    for name in ("2od", "3ood", "initial", "2-2d", "multi-axle"):
        assert main(["demo", name]) == 0
        assert f"demo: {name}" in capsys.readouterr().out


def test_demo_equal_loads_shows_canonical_numbers(capsys):
    assert main(["demo", "3ood", "--equal-loads"]) == 0
    out = capsys.readouterr().out
    assert "O1=2.000000" in out
    assert "O2=2.000000" in out
    assert "O3=2.000000" in out
    assert "all applicable checks passed" in out


def test_demo_equal_loads_is_3ood_only(capsys):
    assert main(["demo", "2od", "--equal-loads"]) == 1
    assert "--equal-loads" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    assert main(["explode"]) == 1
    assert capsys.readouterr().err
