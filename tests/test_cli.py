"""Command-line interface: resolution, outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from ep_atlas.cli import main
from ep_atlas.runio import file_digest


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env, catch_exceptions=False)


def test_eps_writes_table_and_manifest(tmp_path):
    out = tmp_path / "o"
    res = run("eps", "--n", "5", "--out", str(out))
    assert res.exit_code == 0
    table = out / "eps.csv"
    man = out / "eps_manifest.json"
    assert table.is_file() and man.is_file()
    doc = json.loads(man.read_text())
    assert doc["files"]["eps.csv"]["sha256"] == file_digest(table)
    # expanded table: both members of all n-1 coupling pairs
    rows = [l for l in table.read_text().splitlines() if l and not l.startswith("#")]
    assert len(rows) - 1 == 2 * 4


def test_json_format(tmp_path):
    out = tmp_path / "o"
    res = run("eps", "--n", "4", "--out", str(out), "--format", "json")
    assert res.exit_code == 0
    doc = json.loads((out / "eps.json").read_text())
    assert "re_lambda" in doc["columns"]


def test_config_experiment_mismatch(tmp_path):
    conf = tmp_path / "c.conf"
    conf.write_text("experiment = sweep\n")
    res = run("eps", "--config", str(conf))
    assert res.exit_code == 2
    assert "experiment" in res.output


def test_unknown_config_key(tmp_path):
    conf = tmp_path / "c.conf"
    conf.write_text("experiment = eps\nwhatever = 3\n")
    res = run("eps", "--config", str(conf))
    assert res.exit_code == 2
    assert "unknown key" in res.output


def test_empty_grid_rejected(tmp_path):
    res = run("bcurve", "--n", "11", "--lambda-start", "0.5", "--lambda-stop", "0.1", "--lambda-step", "0.1", "--out", str(tmp_path))
    assert res.exit_code == 2
    assert "empty" in res.output


def test_numerical_failure_exit_code(tmp_path):
    conf = tmp_path / "c.conf"
    conf.write_text("experiment = loop\nradius = 50\n")
    res = run("loop", "--config", str(conf), "--out", str(tmp_path))
    assert res.exit_code == 3
    assert "numerical failure" in res.output


def test_flag_overrides_config(tmp_path):
    conf = tmp_path / "c.conf"
    conf.write_text("experiment = eps\nn = 4\n")
    out = tmp_path / "o"
    res = run("eps", "--config", str(conf), "--n", "3", "--out", str(out))
    assert res.exit_code == 0
    assert "# n: 3" in (out / "eps.csv").read_text()


def test_bad_ladders_rejected(tmp_path):
    conf = tmp_path / "c.conf"
    for text in ("ladder = 9", "ladder = 2,5,7", "ladder = 5;7;9"):
        conf.write_text("experiment = fig2\n%s\n" % text)
        res = run("fig2", "--config", str(conf), "--out", str(tmp_path))
        assert res.exit_code == 2, text


def test_out_env_fallback(tmp_path):
    res = run("eps", "--n", "4", env={"EP_ATLAS_OUT": str(tmp_path / "envdir")})
    assert res.exit_code == 0
    assert (tmp_path / "envdir" / "eps.csv").is_file()


def test_worker_count_does_not_change_bytes(tmp_path):
    args = ("bcurve", "--n", "21", "--lambda-start", "0.1", "--lambda-stop", "0.9", "--lambda-step", "0.01")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(*args, "--jobs", "1", "--out", str(a)).exit_code == 0
    assert run(*args, "--jobs", "3", "--out", str(b)).exit_code == 0
    assert (a / "bcurve.csv").read_bytes() == (b / "bcurve.csv").read_bytes()


def test_command_echoes_written_paths(tmp_path):
    out = tmp_path / "o"
    res = run("eps", "--n", "4", "--out", str(out))
    assert "eps.csv" in res.output
    assert "eps_manifest.json" in res.output


def test_runtime_needs_only_numpy_and_click(tmp_path):
    # scipy, sympy and mpmath are test extras; a None entry in sys.modules
    # makes any import of them fail in the child interpreter
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = (
        "import runpy, sys; sys.modules.update(scipy=None, sympy=None, mpmath=None); "
        "runpy.run_module('ep_atlas', run_name='__main__')"
    )
    for args in (
        ["eps", "--n", "9"],
        ["sweep", "--n", "9", "--lambda-stop", "0.5", "--lambda-step", "0.01"],
        ["bcurve", "--n", "21", "--lambda-step", "0.05", "--jobs", "1"],
    ):
        r = subprocess.run(
            [sys.executable, "-c", child, *args, "--out", str(tmp_path / args[0])],
            capture_output=True, text=True, env=env,
        )
        assert r.returncode == 0, r.stderr
        assert (tmp_path / args[0] / ("%s_manifest.json" % args[0])).is_file()
