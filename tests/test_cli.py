"""Command-line interface: resolution, outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ep_atlas import (
    b_measure,
    build_perturbed_fence,
    build_picket_fence,
    build_power_law,
    build_spacing_ensemble,
    build_two_level,
    eigen_spectrum,
    find_eps,
)
from ep_atlas.cli import main
from ep_atlas.runio import file_digest
from helpers import assert_complex_sets_close


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


def test_worker_processes_start_without_the_parent_threads(tmp_path):
    # the engine's thread pool is running when bcurve forks its --jobs workers: it must be
    # shut down before each fork, the run must finish with the one-process bytes, and no
    # worker thread may print a numpy warning
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = (
        "import multiprocessing, sys; from ep_atlas import secular, build_picket_fence, eigen_spectrum; "
        "from ep_atlas.cli import main; "
        "secular._THREADS = 2; eigen_spectrum(build_picket_fence(1001), 0.3); assert secular._pool is not None; "
        "main(sys.argv[1:], standalone_mode=False); "
        "assert secular._pool is None or multiprocessing.get_start_method() != 'fork'"
    )
    # three 64-point chunks at N=301, where every solve splits its row blocks
    args = ["bcurve", "--n", "301", "--lambda-start", "0.05", "--lambda-stop", "0.69", "--lambda-step", "0.005"]
    r = subprocess.run(
        [sys.executable, "-c", child, *args, "--jobs", "2", "--out", str(tmp_path / "2")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert r.returncode == 0 and r.stderr == "", r.stderr
    assert run(*args, "--jobs", "1", "--out", str(tmp_path / "1")).exit_code == 0
    assert (tmp_path / "1" / "bcurve.csv").read_bytes() == (tmp_path / "2" / "bcurve.csv").read_bytes()


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
    # a strong-regime cold solve must not import numpy.ma (np.median does), which costs peak RSS
    solve = (
        "import sys; sys.modules.update(scipy=None, sympy=None, mpmath=None); "
        "from ep_atlas import build_picket_fence, eigen_spectrum; "
        "eigen_spectrum(build_picket_fence(101), 3.0); "
        "assert 'numpy.ma' not in sys.modules"
    )
    r = subprocess.run([sys.executable, "-c", solve], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize(
    "command, text",
    [
        ("classify", "r = abc\nt = 4"),
        ("loop", "radius = abc"),
        ("eps", "amplitude = abc"),
        ("loop", "samples = 0"),
        ("loop", "samples = 1"),
        ("loop", "samples = 2"),
        ("loop", "windings = 0.5"),
        ("loop", "windings = 0"),
        ("loop", "radius = -0.1"),
        ("loop", "radius = 0"),
        ("loop", "radius = nan"),
        ("loop", "radius = inf"),
        ("order", "lambda_start = 0.5\nlambda_stop = 0.5"),
        ("order", "lambda_list = 0.5, 0.5"),
        ("bcurve", "lambda_list = nan"),
        ("sweep", "lambda_list = 0.1, nan"),
        ("sweep", "lambda_list = 0.1, inf, 0.3"),
        ("loop", "lam_factor = 0"),
        ("loop", "lam_factor = -1"),
        ("loop", "lam_factor = nan"),
        ("loop", "lam_factor = inf"),
        ("loop", "delta = 0"),
        ("loop", "delta = 45"),
        ("loop", "delta = -45"),
        ("loop", "delta = nan"),
        ("sweep", "ambiguity = foo"),
    ],
)
def test_bad_config_value_exits_2(tmp_path, command, text):
    conf = tmp_path / "c.conf"
    conf.write_text("experiment = %s\n%s\n" % (command, text))
    res = run(command, "--config", str(conf), "--n", "5", "--jobs", "1", "--out", str(tmp_path))
    assert res.exit_code == 2
    assert "error:" in res.output
    assert not list(tmp_path.glob("*.csv"))  # rejected before any table is written


def test_loop_keeps_the_branch_next_to_the_coalescence(tmp_path):
    # at 45 -+ 0.001 deg the ray passes 3.5e-5*gap from the coalescence; the two
    # lower-anchored angles end a quarter turn apart, not on the same branch
    conf = tmp_path / "c.conf"
    conf.write_text("experiment = loop\ndelta = 0.001\nsamples = 64\n")
    assert run("loop", "--config", str(conf), "--out", str(tmp_path)).exit_code == 0
    meta = dict(
        line[2:].split(": ", 1) for line in (tmp_path / "omega_check.csv").read_text().splitlines() if line.startswith("# ")
    )
    assert 89.99 < float(meta["phase_difference_deg"]) < 90.0


def test_sweep_and_bcurve_from_zero_coupling_match_cold_solves(tmp_path):
    grid = ("--n", "7", "--lambda-start", "0", "--lambda-stop", "0.3", "--lambda-step", "0.1", "--format", "json")
    assert run("sweep", *grid, "--out", str(tmp_path)).exit_code == 0
    assert run("bcurve", *grid, "--jobs", "1", "--out", str(tmp_path)).exit_code == 0
    m = build_picket_fence(7)
    cols = json.loads((tmp_path / "sweep_trajectories.json").read_text())["columns"]
    lam = np.array(cols["lam"])
    e = np.array(cols["re_energy"]) + 1j * np.array(cols["im_energy"])
    assert lam.min() == 0.0
    for c in np.unique(lam)[1:]:
        assert_complex_sets_close(e[lam == c], eigen_spectrum(m, c).energies, atol=1e-12)
    doc = json.loads((tmp_path / "bcurve.json").read_text())
    assert doc["meta"]["flagged"] == 0
    np.testing.assert_allclose(doc["columns"]["b"], [b_measure(m, c) for c in doc["columns"]["lam"]], rtol=1e-12)


@pytest.mark.parametrize(
    "text, build",
    [
        ("model = perturbed\namplitude = 0.2\nseed = 4", lambda: build_perturbed_fence(7, 0.2, 4)),
        ("model = powerlaw\nr = 1\nt = 4", lambda: build_power_law(7, 1.0, 4.0)),
        ("model = twolevel\neps1 = -0.5\neps2 = 1\nomega = 25", lambda: build_two_level(-0.5, 1.0, 25.0)),
        ("model = ensemble\nkind = wigner\nseed = 2", lambda: build_spacing_ensemble(7, "wigner", 2)),
    ],
    ids=["perturbed", "powerlaw", "twolevel", "ensemble"],
)
def test_eps_builds_every_model_kind(tmp_path, text, build):
    conf = tmp_path / "c.conf"
    conf.write_text("experiment = eps\n%s\n" % text)
    assert run("eps", "--config", str(conf), "--n", "7", "--format", "json", "--out", str(tmp_path)).exit_code == 0
    doc = json.loads((tmp_path / "eps.json").read_text())
    assert doc["meta"]["n"] == build().n
    assert json.loads((tmp_path / "eps_manifest.json").read_text())["config"]["n"] == str(build().n)  # 2 for twolevel
    cols = doc["columns"]
    rep = np.array(cols["representative"]) == 1
    got = np.array(cols["re_lambda"])[rep] + 1j * np.array(cols["im_lambda"])[rep]
    np.testing.assert_array_equal(got, [p.coupling for p in find_eps(build())])


@pytest.mark.parametrize("given, missing", [("--r", "t"), ("--t", "r")])
def test_classify_needs_both_exponents(tmp_path, given, missing):
    res = run("classify", given, "1", "--n", "5", "--lambda-step", "0.2", "--jobs", "1", "--out", str(tmp_path))
    assert res.exit_code == 2
    assert "error:" in res.output and "%s is missing" % missing in res.output
    assert not (tmp_path / "classify.csv").exists()


def test_loop_writes_plain_numbers(tmp_path):
    # numpy 2 scalars print as np.float64(...); no output may carry that type name
    assert run("loop", "--jobs", "1", "--out", str(tmp_path)).exit_code == 0
    written = sorted(tmp_path.iterdir())
    assert [p.name for p in written] == ["loop_contour.csv", "loop_manifest.json", "omega_check.csv"]
    for path in written:
        assert "np." not in path.read_text(), path.name
    assert "# radius: 0.34641016151377546" in (tmp_path / "loop_contour.csv").read_text()


_SMALL = ("--n", "7", "--lambda-start", "0.1", "--lambda-stop", "0.5", "--lambda-step", "0.1", "--jobs", "1")

_STEMS = [
    ("fig1", "", ("fig1_trajectories_n7", "fig1_crossings")),
    ("fig2", "ladder = 5,7", ("fig2_accumulation", "fig2_points")),
    ("fig3", "system = picket", ("fig3_b", "fig3_peaks")),
    ("fig4", "", ("fig4_eps",)),
    ("sweep", "", ("sweep_trajectories", "sweep_points")),
    ("eps", "", ("eps",)),
    ("bcurve", "", ("bcurve",)),
    ("order", "", ("order",)),
    ("loop", "samples = 64", ("loop_contour", "omega_check")),
    ("classify", "", ("classify",)),
]


@pytest.mark.parametrize("command, text, stems", _STEMS)
def test_every_runner_writes_csv_and_json_alike(tmp_path, command, text, stems):
    conf = tmp_path / "c.conf"
    conf.write_text("experiment = %s\n%s\n" % (command, text))
    tables = {}
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert run(command, "--config", str(conf), *_SMALL, "--format", fmt, "--out", str(out)).exit_code == 0
        doc = json.loads((out / ("%s_manifest.json" % command)).read_text())
        assert sorted(doc["files"]) == sorted(stem + "." + fmt for stem in stems)
        tables[fmt] = {stem: out / (stem + "." + fmt) for stem in stems}
    for stem in stems:
        lines = [l for l in tables["csv"][stem].read_text().splitlines() if not l.startswith("#")]
        columns = json.loads(tables["json"][stem].read_text())["columns"]
        assert sorted(columns) == sorted(lines[0].split(","))
        assert all(len(c) == len(lines) - 1 for c in columns.values())
