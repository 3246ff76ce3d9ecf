"""Config parsing and deterministic file emission."""

import json
import math

import numpy as np
import pytest

from ep_atlas import ConfigError, runio
from ep_atlas.runio import (
    file_digest,
    format_value,
    parse_config,
    resolve_out,
    write_csv,
    write_json,
    write_manifest,
)


def test_parse_config_basics(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text("# comment\n\nn = 15\nlambda-start = 0.1\nphi= 0\n")
    cfg = parse_config(p)
    assert cfg == {"n": "15", "lambda_start": "0.1", "phi": "0"}


def test_parse_config_rejections(tmp_path):
    p = tmp_path / "bad.conf"
    p.write_text("n = 1\nn = 2\n")
    with pytest.raises(ConfigError):
        parse_config(p)
    p.write_text("just a line\n")
    with pytest.raises(ConfigError):
        parse_config(p)
    p.write_text("mystery = 1\n")
    with pytest.raises(ConfigError):
        parse_config(p, allowed={"n"})
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "missing.conf")


def test_format_value_rules():
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(3) == "3"
    assert format_value(0.1) == "0.1"
    assert format_value(1.0 / 3.0) == repr(1.0 / 3.0)
    assert format_value(1.5 - 2.5j) == "1.5-2.5j"
    assert format_value(1.5 + 2.5j) == "1.5+2.5j"
    assert format_value("picket") == "picket"
    # numpy scalars read as the Python scalars they hold
    assert format_value(np.float64(0.1)) == "0.1"
    assert format_value(np.complex128(1.5 - 2.5j)) == "1.5-2.5j"
    assert format_value(np.bool_(True)) == "1"
    assert format_value(np.int64(3)) == "3"


def test_array_columns_write_like_lists(tmp_path, monkeypatch):
    nan, inf = float("nan"), float("inf")
    arrays = {
        "x": np.array([0.5, nan, -0.0, inf]),
        "k": np.arange(4),
        "z": np.array([1.5 - 2.5j, 0j, 1j, complex(-0.0, -0.0)]),
        "w": np.array([complex(1, nan), complex(nan, -0.0), complex(-inf, inf), complex(2, -inf)]),
        "b": np.array([True, False, True, False]),
        "i": np.array([-3, 0, 2**40, 7], dtype=np.int64),
    }
    lists = {k: [v.item() for v in a] for k, a in arrays.items()}
    for write, ext in ((write_csv, "csv"), (write_json, "json")):
        a = write(tmp_path / ("a." + ext), {"m": 1}, arrays)
        b = write(tmp_path / ("b." + ext), {"m": 1}, lists)
        assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv").read_text().splitlines()[2:] == [
        "0.5,0,1.5-2.5j,1.0-nanj,1,-3",
        "nan,1,0.0+0.0j,nan+0.0j,0,0",
        "-0.0,2,0.0+1.0j,-inf+infj,1,1099511627776",
        "inf,3,-0.0+0.0j,2.0-infj,0,7",
    ]
    monkeypatch.setattr(runio, "_ROWS", 2)  # rows split across batches
    assert write_csv(tmp_path / "c.csv", {"m": 1}, arrays).read_bytes() == (tmp_path / "a.csv").read_bytes()


def test_write_csv_layout_and_determinism(tmp_path):
    meta = {"beta": 2, "alpha": 1}
    cols = {"x": [1.0, 2.0], "y": [0.5j, 1.0 + 0.0j]}
    a = write_csv(tmp_path / "a.csv", meta, cols)
    b = write_csv(tmp_path / "b.csv", meta, cols)
    text = a.read_text()
    assert text.splitlines()[0] == "# alpha: 1"  # metadata keys sorted
    assert text.splitlines()[2] == "x,y"
    assert file_digest(a) == file_digest(b)
    with pytest.raises(ValueError):
        write_csv(tmp_path / "c.csv", {}, {"x": [1], "y": [1, 2]})


def test_write_json_mirror(tmp_path):
    p = write_json(tmp_path / "a.json", {"k": 1}, {"x": [float("nan"), 2.0], "z": [1 + 2j]})
    doc = json.loads(p.read_text())
    assert doc["columns"]["x"][0] is None  # NaN must not leak into JSON
    assert doc["columns"]["x"][1] == 2.0
    assert doc["columns"]["z"][0] == [1.0, 2.0]
    assert doc["meta"] == {"k": 1}


@pytest.mark.parametrize(
    "meta, columns",
    [
        (
            {"n": 3, "phi_deg": 0.0, "flagged": float("nan"), "model": "picket", "peak_lam": "0.5", "has_peak": True},
            {
                "z": np.array([1.5 - 2.5j, complex(1.0, float("nan")), -0.0j]),
                "x": np.array([0.5, float("nan"), -0.0]),
                "k": np.arange(3),
                "b": np.array([True, False, True]),
                "lam": [0.1, 0.2, 0.3],
                "e": ["a", "b\n", "\u00e9"],
            },
        ),
        ({"k": 1}, {"x": np.array([]), "z": []}),
        ({}, {}),
        ({"only": "meta"}, {}),
    ],
    ids=["mixed", "empty_columns", "empty", "no_columns"],
)
def test_write_json_streams_the_bytes_of_one_dump(tmp_path, monkeypatch, meta, columns):
    # the document written in batches of cells reads as one json.dump of the whole of it
    doc = {
        "meta": {k: meta[k] for k in sorted(meta)},
        "columns": {k: [runio._json_cell(v) for v in runio._cells(columns[k])] for k in columns},
    }
    want = (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")
    assert write_json(tmp_path / "a.json", meta, columns).read_bytes() == want
    monkeypatch.setattr(runio, "_ROWS", 2)  # cells split across batches
    assert write_json(tmp_path / "b.json", meta, columns).read_bytes() == want


def test_manifest_digests(tmp_path):
    f = write_csv(tmp_path / "data.csv", {}, {"x": [1.0]})
    man = write_manifest(tmp_path, "demo", {"n": 3}, [f], version="9.9", wall_time=1.23456)
    doc = json.loads(man.read_text())
    assert man.name == "demo_manifest.json"
    assert doc["command"] == "demo"
    assert doc["config"] == {"n": "3"}
    assert doc["version"] == "9.9"
    assert doc["wall_time_s"] == 1.235
    assert doc["files"]["data.csv"]["sha256"] == file_digest(f)
    assert doc["files"]["data.csv"]["bytes"] == f.stat().st_size


def test_resolve_out_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("EP_ATLAS_OUT", str(tmp_path / "env"))
    assert str(resolve_out("flag", "cfg")) == "flag"
    assert str(resolve_out(None, "cfg")) == "cfg"
    assert str(resolve_out(None, None)) == str(tmp_path / "env")
    monkeypatch.delenv("EP_ATLAS_OUT")
    assert str(resolve_out(None, None)) == "."


def test_nan_roundtrip_in_csv(tmp_path):
    p = write_csv(tmp_path / "n.csv", {}, {"b": [float("nan"), 1.0]})
    rows = p.read_text().splitlines()
    assert rows[1] == "nan"
    assert math.isnan(float(rows[1]))
