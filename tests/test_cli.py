"""Command-line interface: subcommands, exit codes, artifact outputs."""

import errno
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
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


def _inline(shafts, ports=None, params=None):
    return {
        "inline": {
            "shafts": shafts,
            "elements": [
                {
                    "kind": "fixed_ratio",
                    "ports": ports or {"a": "x", "b": "y"},
                    "params": params or {"ratio": 2.0},
                }
            ],
            "external": ["x", "y"],
        }
    }


_X = {"name": "x", "inertia": 1.0}
_Y = {"name": "y", "inertia": 1.0}
_PAIR = _inline([_X, _Y])["inline"]


@pytest.mark.parametrize(
    "mechanism, field",
    [
        (_inline([dict(_X, inertia="heavy"), _Y]), r"shafts\[0\]\.inertia"),
        (_inline([dict(_X, inertia=None), _Y]), r"shafts\[0\]\.inertia"),
        (_inline([dict(_X, inertia=True), _Y]), r"shafts\[0\]\.inertia"),
        (_inline([_X, {"inertia": 1.0}]), r"shafts\[1\]\.name"),
        (_inline([_X, _Y], ports=["x", "y"]), r"elements\[0\]"),
        ({"inline": dict(_PAIR, external=[["x"]])}, "no shaft named"),
        (
            _inline([{"name": "x", "inertai": 1.0}, _Y]),
            r"mechanism\.inline: shafts\[0\]: unknown field\(s\) inertai; allowed: inertia, name, role$",
        ),
        (
            {"inline": dict(_PAIR, elements=[dict(_PAIR["elements"][0], nmae="gear")])},
            r"mechanism\.inline: elements\[0\]: unknown field\(s\) nmae; allowed: kind, name, params, ports$",
        ),
        (
            {"inline": dict(_PAIR, extra=1)},
            r"mechanism\.inline: unknown field\(s\) extra; allowed: elements, external, shafts$",
        ),
        (
            {"inline": dict(_PAIR, external="xy")},
            r"mechanism\.inline: external: expected a list of shaft names, got str$",
        ),
        (
            {"builder": "3ood", "params": {"ratio_k": "abc"}},
            r"mechanism\.params\.ratio_k: expected a number, got 'abc'$",
        ),
        (
            {"builder": "3ood", "params": {"ratio_k": True}},
            r"mechanism\.params\.ratio_k: expected a number, got True$",
        ),
        (
            {"builder": "3ood", "params": {"ratio_k": "20"}},
            r"mechanism\.params\.ratio_k: expected a number, got '20'$",
        ),
        (
            _inline([_X, _Y], params={"ratio": True}),
            r"elements\[0\]\.params\.ratio: expected a number, got True$",
        ),
        (
            {"inline": dict(_PAIR, elements=[
                {"kind": "rigid_coupling", "ports": {"a": "x", "b": "y"}, "params": {"sign": True}}
            ])},
            r"elements\[0\]\.params\.sign: expected a number, got True$",
        ),
        (
            {"inline": dict(_PAIR, elements=[
                {"kind": "worm_pair", "ports": {"worm": "x", "wheel": "y"},
                 "params": {"ratio_k": 2.0, "self_locking": "no"}}
            ])},
            r"elements\[0\]\.params\.self_locking: expected true or false, got 'no'$",
        ),
        (
            ["dof", "--mechanism", "3ood", "--param", "ratio_k=abc"],
            r"--param ratio_k: expected a number, got 'abc'$",
        ),
        (["dof", "--mechanism", "3ood", "--param", "ratio_k"], r"--param: expected KEY=VALUE"),
        (["dof", "--mechanism", "{file}", "--param", "ratio=2"], r"--param: only valid with a builder"),
        (
            ["dof", "--mechanism", "{broken}"],
            r"broken\.json: invalid JSON at line 1 column 13: Expecting value$",
        ),
        (
            ["nullspace", "--mechanism", "{latin1}"],
            r"latin1\.json: not UTF-8 text at line 1 column 23: byte 0xe9$",
        ),
        (
            ["nullspace", "--mechanism", "{mixed}"],
            r"mixed\.json: not UTF-8 text at line 2 column 28: byte 0xe9$",
        ),
    ],
    ids=[
        "string-inertia", "null-inertia", "bool-inertia", "nameless-shaft", "port-list", "list-external",
        "misspelled-shaft-field", "misspelled-element-field", "unknown-top-field", "string-external",
        "file-ratio-k", "file-bool-ratio-k", "file-string-ratio-k", "inline-bool-ratio",
        "inline-bool-sign", "inline-string-self-locking", "dof-ratio-k",
        "dof-param-without-equals", "dof-param-with-file",
        "dof-malformed-json-file", "nullspace-non-utf8-file",
        "nullspace-non-utf8-after-utf8",
    ],
)
def test_bad_mechanism_input_exits_1_without_traceback(tmp_path, capsys, mechanism, field):
    # A dict is a scenario's mechanism section; a list is a whole command
    # line, in which {file} stands for a saved mechanism file, {broken} for
    # one cut short, {latin1} for one with a byte that is not UTF-8, and
    # {mixed} for one whose bad byte follows a two-byte UTF-8 character on
    # its line, so the column counts characters, not bytes.
    from gearnet.builders import build_two_output_diff

    if isinstance(mechanism, dict):
        drive = {"mode": "torque", "value": 1.0, "shaft": "x"}
        if "builder" in mechanism:
            drive = {"mode": "velocity", "value": 20.0}
        path = write_scenario(tmp_path / "case.json", mechanism=mechanism, drive=drive, loads={})
        argv = ["simulate", str(path)]
    else:
        build_two_output_diff().save(tmp_path / "file.json")
        (tmp_path / "broken.json").write_text('{"shafts": [')
        (tmp_path / "latin1.json").write_bytes('{"shafts": [{"name": "é"}]}'.encode("latin-1"))
        (tmp_path / "mixed.json").write_bytes(
            '{"shafts":\n [{"name": "é"}, {"name": "'.encode() + 'é"}]}'.encode("latin-1")
        )
        files = {
            name: str(tmp_path / f"{name}.json") for name in ("file", "broken", "latin1", "mixed")
        }
        argv = [arg.format(**files) for arg in mechanism]
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
            r"loads\.O1: give exactly one of 'tau' or 'series'",
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
    assert "5/5 applicable checks passed" in out


@pytest.mark.parametrize("mode", ["velocity", "torque"])
def test_equal_loads_driven_off_the_input_are_not_the_equal_load_regime(tmp_path, capsys, mode):
    # the paper's equal-load regime drives the input; equal loads on the
    # outputs with the drive on O1 is a correct run with unequal outputs
    path = write_scenario(tmp_path / "o1.json", drive={"mode": mode, "shaft": "O1", "value": 3.0})
    assert main(["simulate", str(path), "--verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "5/5 applicable checks passed" in out


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
        ("equal.json", "10", "10"),
        ("held.json", "5", "5"),
        ("unequal.json", "5", "5"),
    ]
    assert "batch: 3/3 scenarios succeeded" in out
    assert ".tau_" not in (batch / "equal.csv").read_text().split("\n", 1)[0]


def test_held_input_spellings_agree(tmp_path, capsys):
    # input_locked with a source is a Locked input plus a drive on the
    # source shaft: both files get the same checks and one CSV
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
        assert "5/5 applicable checks passed" in capsys.readouterr().out
    assert (tmp_path / "mode.csv").read_bytes() == (tmp_path / "load.csv").read_bytes()

    both = write_scenario(
        tmp_path / "both.json",
        drive={"mode": "input_locked", "source": source},
        loads={"input": {"kind": "locked"}, **loads},
    )
    assert main(["simulate", str(both)]) == 1
    assert "loads.input" in capsys.readouterr().err


def test_cli_import_loads_no_scipy(tmp_path):
    import gearnet

    src = str(Path(gearnet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    batch = tmp_path / "jobs"
    batch.mkdir()
    for name in "ab":
        _two_od(batch / f"{name}.json")
    # neither the import nor a two-CPU batch, which forks one worker, loads
    # multiprocessing or concurrent.futures; the CSV formatter builds its
    # tables from ints and floats, not from fractions or decimal.  No module
    # of the package loads scipy, which is not one of its dependencies
    probe = (
        "import contextlib, importlib, io, pkgutil, sys, gearnet.cli as cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in ('scipy',"
        " 'multiprocessing', 'concurrent', 'fractions', 'decimal', '_decimal', '_pydecimal'))\n"
        "print(loaded())\n"
        "cli._available_cpus = lambda: 2\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['simulate', '--batch', sys.argv[1]])\n"
        "print(code, loaded())\n"
        "import gearnet\n"
        "for module in pkgutil.walk_packages(gearnet.__path__, 'gearnet.'):\n"
        "    importlib.import_module(module.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(batch)], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.splitlines() == ["[]", "0 []", "[]"]
    assert (batch / "a.csv").is_file() and (batch / "b.csv").is_file()


def test_python_m_gearnet_runs_the_cli(tmp_path):
    # the entry point freezes the collector before calling main
    import gearnet

    src = str(Path(gearnet.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "gearnet", "dof", "--mechanism", "3ood"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "nullity=4" in done.stdout


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


@pytest.mark.parametrize("cpus", [2, 1])
def test_non_utf8_scenario_is_a_validation_error(tmp_path, monkeypatch, capsys, cpus):
    # a byte that is not UTF-8 is an error naming the file, in a single run
    # and on its own line of a batch, whose other files still run and move
    # their outputs into place
    set_cpus(monkeypatch, cpus)
    batch = tmp_path / "jobs"
    batch.mkdir()
    bad = batch / "a_latin1.json"
    bad.write_bytes(json.dumps({"name": "café"}, ensure_ascii=False).encode("latin-1"))
    write_scenario(batch / "b_good.json")
    expected = f"{bad}: not UTF-8 text at line 1 column 14: byte 0xe9"
    for command in ("simulate", "verify"):
        assert main([command, str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
    assert main(["simulate", "--batch", str(batch)]) == 1
    out = capsys.readouterr().out
    assert f"{bad}: error: {expected}\n" in out
    assert "batch: 1/2 scenarios succeeded" in out
    assert (batch / "b_good.csv").is_file()
    assert not list(batch.glob("*.tmp"))


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
    """Make the batch see ``n`` available CPUs: each past the first forks a worker."""
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


def _two_od(path, **overrides):
    """A short 2od scenario file."""
    return write_scenario(
        path,
        mechanism={"builder": "2od"},
        drive={"mode": "torque", "value": 1.0},
        loads={"side_a": {"kind": "viscous", "b": 0.5}},
        **overrides,
    )


# (output field, the target it names): targets with no file name, a
# trailing separator, or the name of an existing directory
DIRECTORY_TARGETS = [
    ("trajectory", "."),
    ("trajectory", "/"),
    ("trajectory", "sub/"),
    ("trajectory", "existing"),
    ("report", "."),
    ("report", "existing"),
]


@pytest.mark.parametrize("field, target", DIRECTORY_TARGETS)
def test_output_naming_a_directory_is_a_scenario_error(tmp_path, capsys, field, target):
    (tmp_path / "existing").mkdir()
    path = _two_od(tmp_path / "case.json", outputs={field: target})
    message = f"error: outputs.{field}: {target!r} names a directory, not a file"
    assert main(["simulate", str(path)]) == 1
    assert capsys.readouterr().err == message + "\n"
    if field == "report":
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().err == message + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case.json", "existing"]
    assert list((tmp_path / "existing").iterdir()) == []


@pytest.mark.parametrize("target", [".", "existing"])
def test_verify_report_option_naming_a_directory_is_an_error(tmp_path, monkeypatch, capsys, target):
    (tmp_path / "existing").mkdir()
    path = _two_od(tmp_path / "case.json")
    # relative to the working directory, as any path on the command line
    monkeypatch.chdir(tmp_path)
    assert main(["verify", str(path), "--report", target]) == 1
    assert capsys.readouterr().err == f"error: --report: {target!r} names a directory, not a file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case.json", "existing"]


def test_verify_report_option_is_relative_to_the_working_directory(tmp_path, monkeypatch, capsys):
    # a relative --report names a file from where the command runs, not
    # from the scenario file's directory as outputs.report does
    runs = tmp_path / "runs"
    runs.mkdir()
    _two_od(runs / "a.json", outputs={"report": "from-file.json"})
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "runs/a.json", "--report", "runs/a-report.json"]) == 0
    assert "report written to runs/a-report.json" in capsys.readouterr().out
    assert sorted(p.name for p in runs.iterdir()) == ["a-report.json", "a.json"]

    assert main(["verify", "runs/a.json"]) == 0
    assert f"report written to {Path('runs', 'from-file.json')}" in capsys.readouterr().out
    assert (runs / "from-file.json").is_file()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("field", ["trajectory", "report"])
def test_batch_reports_a_directory_output_on_its_line(tmp_path, monkeypatch, capsys, field, cpus):
    set_cpus(monkeypatch, cpus)
    batch = tmp_path / "jobs"
    batch.mkdir()
    for name in "abcd":
        outputs = {field: "."} if name == "b" else {"report": f"{name}.report.json"}
        _two_od(batch / f"{name}.json", outputs=outputs)
    assert main(["simulate", "--batch", str(batch)]) == 1
    lines = capsys.readouterr().out.splitlines()
    # three lines for each good file (its CSV, its report, its checks)
    assert lines[3] == f"{batch / 'b.json'}: error: outputs.{field}: '.' names a directory, not a file"
    assert len(lines) == 11 and lines[-1] == "batch: 3/4 scenarios succeeded"
    for name in "acd":
        assert (batch / f"{name}.csv").is_file()
        assert (batch / f"{name}.report.json").is_file()
    assert not list(tmp_path.rglob("*.tmp"))


def test_batch_move_that_fails_is_reported_on_its_line(tmp_path, monkeypatch, capsys):
    # the target turns into a directory after the check: the move fails,
    # the file's line says so, its temporaries go, and the others land
    set_cpus(monkeypatch, 1)
    batch = tmp_path / "jobs"
    batch.mkdir()
    for name in "abc":
        _two_od(batch / f"{name}.json", outputs={"report": f"{name}.report.json"})
    real = os.replace

    def replace(src, dst):
        if Path(dst).name == "b.csv":
            raise IsADirectoryError(errno.EISDIR, "Is a directory", str(dst))
        return real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert main(["simulate", "--batch", str(batch)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == f"{batch / 'b.json'}: error: [Errno 21] Is a directory: '{batch / 'b.csv'}'"
    assert lines[-1] == "batch: 2/3 scenarios succeeded"
    assert sorted(p.name for p in batch.glob("*.csv")) == ["a.csv", "c.csv"]
    assert not (batch / "b.report.json").exists()
    assert not list(batch.glob("*.tmp"))


def log_forks(monkeypatch, log):
    """Append to ``log`` the pid of each process that calls ``os.fork``."""
    real = os.fork

    def fork():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real()

    monkeypatch.setattr(os, "fork", fork)


def test_single_run_writes_its_csv_in_one_process(tmp_path, monkeypatch):
    # two CPUs and the 5001 rows of the canonical run: nothing forks, and
    # the bytes are the golden ones
    set_cpus(monkeypatch, 2)
    forks = tmp_path / "forks"
    log_forks(monkeypatch, forks)
    path = write_scenario(tmp_path / "canonical.json", sim={"duration": 0.5, "dt": 1e-4})
    assert main(["simulate", str(path), "--verify"]) == 0
    assert not forks.exists()
    digest = hashlib.sha256((tmp_path / "canonical.csv").read_bytes()).hexdigest()
    assert digest == CANONICAL_CSV_SHA256


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
    # the write fails part way through: an OSError ends the run on an
    # error line and anything else goes on as the exception; the previous
    # CSV is kept and the temporary removed
    path = write_scenario(tmp_path / "case.json")
    csv = tmp_path / "case.csv"
    csv.write_text("previous run\n")

    def write(traj, target):
        Path(target).write_text("t,half a row\n")
        raise error

    monkeypatch.setattr("gearnet.cli.write_trajectory_csv", write)
    if message is None:
        with pytest.raises(type(error), match=str(error)):
            main(["simulate", str(path)])
    else:
        assert main(["simulate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(csv=csv)}\n"
    assert csv.read_text() == "previous run\n"
    assert sorted(tmp_path.iterdir()) == [csv, path]


def test_interrupted_run_reaps_its_csv_writers(tmp_path, monkeypatch):
    # interrupted part way through its CSV, after the checks: the run
    # leaves no temporary and no process behind
    path = write_scenario(tmp_path / "case.json")

    def write(traj, target):
        Path(target).write_text("t,half a row\n")
        raise KeyboardInterrupt

    monkeypatch.setattr("gearnet.cli.write_trajectory_csv", write)
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", str(path), "--verify"])
    assert sorted(tmp_path.iterdir()) == [path]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_batch_workers_write_their_csv_alone(tmp_path, monkeypatch, capsys):
    # this process and its worker already hold the CPUs, so only the
    # worker is forked, once, from here
    set_cpus(monkeypatch, 2)
    batch = tmp_path / "jobs"
    batch.mkdir()
    for name in "ab":
        write_scenario(batch / f"{name}.json", sim={"duration": 0.25, "dt": 1e-4})
    forks = tmp_path / "forks"
    log_forks(monkeypatch, forks)
    assert main(["simulate", "--batch", str(batch)]) == 0
    assert forks.read_text().split() == [str(os.getpid())]
    assert sorted(p.name for p in batch.iterdir()) == ["a.csv", "a.json", "b.csv", "b.json"]


def wait_for_a_worker_to_exit(timeout=60.0):
    """Wait until a child of this process has exited, without reaping it."""
    deadline = time.monotonic() + timeout
    while os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
        assert time.monotonic() < deadline, "no batch worker exited"
        time.sleep(1e-3)


def test_batch_reruns_the_files_of_a_dead_worker(tmp_path, monkeypatch, capsys):
    # the worker dies after writing the CSV of its first file aside, while
    # this process waits in its own first file; the files left without a
    # result run here, each overwriting what the dead worker left, and the
    # batch ends as a serial run does, with no process or temporary left
    from gearnet import cli

    batch = tmp_path / "jobs"
    batch.mkdir()
    files = [_two_od(batch / f"{name}.json") for name in "abcd"]
    set_cpus(monkeypatch, 1)
    assert main(["simulate", "--batch", str(batch)]) == 0
    want_lines = capsys.readouterr().out.splitlines()
    want_outputs = output_digests(batch, files)
    assert len(want_outputs) == 4
    for name in "abcd":
        (batch / f"{name}.csv").unlink()

    real = cli.write_trajectory_csv
    parent = os.getpid()
    waited = []

    def write(traj, path, *args, **kwargs):
        real(traj, path, *args, **kwargs)
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        elif not waited:
            waited.append(wait_for_a_worker_to_exit())

    monkeypatch.setattr("gearnet.cli.write_trajectory_csv", write)
    set_cpus(monkeypatch, 2)
    assert main(["simulate", "--batch", str(batch)]) == 0
    assert capsys.readouterr().out.splitlines() == want_lines
    assert output_digests(batch, files) == want_outputs
    assert not list(batch.glob("*.tmp"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_descriptors():
    """This process's open file descriptors, or None where /proc does not list them."""
    fd_dir = Path("/proc/self/fd")
    return sorted(os.listdir(fd_dir)) if fd_dir.is_dir() else None


@pytest.mark.parametrize("worker_done", [False, True], ids=["worker-running", "worker-done"])
def test_interrupted_batch_stops_its_workers_and_leaves_nothing(
    tmp_path, monkeypatch, worker_done
):
    # interrupted in this process's own share of a two-CPU batch, while
    # the worker still runs or after it sent its results: the interrupt
    # goes on, and no process, temporary or descriptor is left behind
    from gearnet import cli

    set_cpus(monkeypatch, 2)
    batch = tmp_path / "jobs"
    batch.mkdir()
    files = [_two_od(batch / f"{name}.json") for name in "abcdef"]
    real = cli.write_trajectory_csv
    parent = os.getpid()

    def write(traj, path):
        real(traj, path)
        if os.getpid() == parent:
            if worker_done:
                wait_for_a_worker_to_exit()
            raise KeyboardInterrupt

    monkeypatch.setattr("gearnet.cli.write_trajectory_csv", write)
    before = open_descriptors()
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--batch", str(batch)])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(batch.iterdir()) == files
    assert open_descriptors() == before


def test_batch_interrupted_while_moving_leaves_no_temporary(tmp_path, monkeypatch):
    # interrupted while the outputs move into place: what moved stays,
    # and the temporaries of the files not yet moved are removed
    set_cpus(monkeypatch, 2)
    batch = tmp_path / "jobs"
    batch.mkdir()
    files = [_two_od(batch / f"{name}.json") for name in "abc"]
    real = os.replace

    def replace(src, dst):
        if Path(dst).name == "b.csv":
            raise KeyboardInterrupt
        return real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--batch", str(batch)])
    assert sorted(batch.iterdir()) == [batch / "a.csv", *files]


def test_batch_runs_every_file_once(tmp_path, monkeypatch, capsys):
    # this process and its worker claim the files from one queue: each
    # file runs exactly once, in one of the two
    from gearnet import cli

    set_cpus(monkeypatch, 2)
    batch = tmp_path / "jobs"
    batch.mkdir()
    files = [_two_od(batch / f"s{k:02d}.json") for k in range(12)]
    runs = tmp_path / "runs"
    real = cli._run_scenario_file

    def run(path, *args):
        with open(runs, "a") as fh:
            fh.write(f"{os.getpid()} {path.name}\n")
        return real(path, *args)

    monkeypatch.setattr("gearnet.cli._run_scenario_file", run)
    assert main(["simulate", "--batch", str(batch)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "batch: 12/12 scenarios succeeded"
    logged = [line.split() for line in runs.read_text().splitlines()]
    assert sorted(name for _, name in logged) == [p.name for p in files]
    pids = {pid for pid, _ in logged}
    assert len(pids - {str(os.getpid())}) <= 1


@pytest.mark.parametrize("n", [1, 5, 1024, 1025, 3001])
def test_file_queue_hands_out_every_file_once(n):
    # above 1024 files a record names a run of ceil(n / 1024) files; a
    # forked reader and this process drain the queue together
    from gearnet import cli

    queue, run = cli._file_queue(n)
    assert run == -(-n // 1024)
    read, send = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.write(send, json.dumps(list(cli._claims(queue, run, n))).encode())
        finally:
            os._exit(0)
    os.close(send)
    try:
        mine = list(cli._claims(queue, run, n))
        with os.fdopen(read, "rb", closefd=False) as pipe:
            theirs = json.loads(pipe.read())
    finally:
        os.close(read)
        os.close(queue)
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert sorted(mine + theirs) == list(range(n))


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
    # the four files that simulate are checked once each, by this process
    # alone on one CPU, and by at most this process and one worker on two
    checked = pids.read_text().split()
    assert len(checked) == 4
    if cpus == 1:
        assert set(checked) == {str(os.getpid())}
    else:
        assert len(set(checked) - {str(os.getpid())}) <= 1


def test_verify_passes_and_writes_report(tmp_path, capsys):
    path = write_scenario(tmp_path / "case.json")
    report = tmp_path / "report.json"
    assert main(["verify", str(path), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "all applicable checks passed" in out
    assert report.is_file()


def test_verify_marks_the_equal_load_checks_of_an_unequal_load_run(tmp_path, capsys):
    path = write_scenario(
        tmp_path / "case.json",
        loads={"O1": {"kind": "viscous", "b": 1.0}, "O2": {"kind": "viscous", "b": 2.0}},
    )
    assert main(["verify", str(path)]) == 0
    skipped = re.findall(r"^  -    (\w+): not applicable in this regime$", capsys.readouterr().out, re.M)
    assert skipped == [
        "equal_load_side_speeds", "equal_load_output_speeds", "ring_torque_split",
        "input_torque_from_sides", "equal_load_output_torques",
    ]


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
